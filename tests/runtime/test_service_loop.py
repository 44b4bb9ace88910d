"""The worker's one service loop: a tuple is a batch of one.

DATA and BATCH messages are served by the same routine, so the same
tuples must leave the same evidence whichever kind carried them — and a
frame, an ACK or a handler that fails must be counted, never silent.
"""

import time

import pytest

from repro import metrics as metrics_mod
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.fabric import InProcFabric
from repro.runtime.serialization import encode_batch, encode_tuple
from repro.runtime.worker import WorkerRuntime
from repro.trace import PROCESS, QUEUE_WAIT, SHED, Tracer

EDGE = "f>snk"


class _SlowSink(CollectingSink):
    """Serves long enough that a wrong ``processing_delay`` shows."""

    def process_data(self, data):
        time.sleep(0.003)
        super().process_data(data)


class _Served:
    """One started worker "B" hosting the sink, driven by hand from "A"."""

    def __init__(self) -> None:
        graph = (GraphBuilder("service")
                 .source("src", lambda: IterableSource([]))
                 .unit("f", lambda: LambdaUnit(lambda v: v))
                 .sink("snk", _SlowSink)
                 .chain("src", "f", "snk")
                 .build())
        self.registry = metrics_mod.MetricsRegistry()
        self.tracer = Tracer(sample_rate=1.0)
        self.fabric = InProcFabric()
        self.upstream = self.fabric.register("A")
        self.worker = WorkerRuntime(
            "B", self.fabric, graph, registry=self.registry,
            trace=self.tracer, delivery=DeliveryConfig(mode=AT_LEAST_ONCE))
        self.fabric.send("A", "B", messages.deploy_message("B", ["snk"], {}))
        self.worker.start()

    def send(self, message, sender="A"):
        message.payload["edge"] = EDGE
        self.fabric.send(sender, "B", message)

    def acks(self, count):
        """The next *count* acknowledged units that reach the upstream:
        a frame's own ACK payload, or one entry per unit of an echo."""
        got = []
        while len(got) < count:
            _sender, message = self.upstream.get(timeout=5.0)
            assert message.kind == messages.ACK
            payload = message.payload
            if "heads" not in payload:
                got.append(payload)
                continue
            got.extend({"seq": head, "processing_delay": delay,
                        "edge": payload["edge"]}
                       for head, delay in zip(payload["heads"],
                                              payload["delays"]))
        return got

    def dropped(self, reason, link):
        return self.registry.value(metrics_mod.DROPPED_TOTAL,
                                   reason=reason, link=link)


@pytest.fixture
def served():
    swarm = _Served()
    yield swarm
    swarm.worker.stop()


def _frames():
    """Fresh, duplicate (edge, seq) and already-expired — in that order."""
    fresh = encode_tuple(DataTuple(values={"x": 1}, seq=0))
    expired = encode_tuple(DataTuple(values={"x": 2}, seq=2, deadline=0.0))
    return [(0, fresh), (0, fresh), (2, expired)]


def _evidence(served):
    worker, registry = served.worker, served.registry
    kinds = {}
    for span in served.tracer.spans():
        kinds.setdefault(span.seq, []).append(span.kind)
    return {
        "processed": worker.processed_count,
        "by_tenant": dict(worker.processed_by_tenant),
        "results": [data.seq for data in worker.unit("snk").results],
        "deduped": registry.value(metrics_mod.DEDUPED_TOTAL,
                                  queue="worker:B"),
        "shed": registry.value(metrics_mod.SHED_TOTAL, reason="expired",
                               queue="worker:B"),
        "span_kinds": kinds,
    }


def _process_seconds(served):
    (span,) = [s for s in served.tracer.spans() if s.kind == PROCESS]
    return span.duration


class TestKindEquivalence:
    def test_data_and_batch_leave_the_same_evidence(self):
        as_data, as_batch = _Served(), _Served()
        try:
            for seq, frame in _frames():
                as_data.send(messages.data_message("snk", frame, seq, 1.0))
            data_acks = as_data.acks(3)
            as_batch.send(messages.batch_message(
                "snk", encode_batch([frame for _seq, frame in _frames()]),
                [seq for seq, _frame in _frames()], 1.0))
            (batch_ack,) = as_batch.acks(1)
            expected = {
                "processed": 1, "by_tenant": {"": 1}, "results": [0],
                "deduped": 1, "shed": 1,
                "span_kinds": {0: [QUEUE_WAIT, PROCESS],
                               2: [QUEUE_WAIT, SHED]},
            }
            assert _evidence(as_data) == expected
            assert _evidence(as_batch) == expected
            # The ACKs differ in shape only: three echoes (the two
            # skipped tuples report no compute) vs one carrying the mean.
            assert [ack["seq"] for ack in data_acks] == [0, 0, 2]
            assert all("seqs" not in ack for ack in data_acks)
            assert [ack["processing_delay"] for ack in data_acks[1:]] \
                == [0.0, 0.0]
            assert data_acks[0]["processing_delay"] \
                == pytest.approx(_process_seconds(as_data), abs=1e-6)
            assert batch_ack["seqs"] == [0, 0, 2]
            assert batch_ack["processing_delay"] \
                == pytest.approx(_process_seconds(as_batch) / 3, abs=1e-6)
            for ack in data_acks + [batch_ack]:
                # The units of an echo carry no sent_at.
                assert ack["edge"] == EDGE \
                    and ack.get("sent_at", 1.0) == 1.0
        finally:
            as_data.worker.stop()
            as_batch.worker.stop()


class TestLoudFailures:
    def test_corrupt_tuple_for_hosted_unit_is_counted_and_not_acked(
            self, served):
        served.send(messages.data_message("snk", b"\xff garbage", 0, 1.0))
        served.send(messages.data_message(
            "snk", encode_tuple(DataTuple(values={"x": 1}, seq=1)), 1, 2.0))
        # The only ACK is the good tuple's: the worker kept serving.
        (ack,) = served.acks(1)
        assert ack["seq"] == 1
        assert len(served.upstream) == 0
        assert served.dropped("corrupt_batch", "?>B") == 1
        assert served.worker.processed_count == 1

    def test_ack_toward_an_unregistered_endpoint_is_counted(self, served):
        for seq, sender in ((0, "ghost"), (1, "A")):
            frame = encode_tuple(DataTuple(values={"x": seq}, seq=seq))
            served.send(messages.data_message("snk", frame, seq, 1.0),
                        sender=sender)
        (ack,) = served.acks(1)  # once seq 1 is ACKed, seq 0 is done too
        assert ack["seq"] == 1
        assert served.dropped("ack_unsent", "B>ghost") == 1
        assert served.worker.processed_count == 2

    def test_a_flush_that_raises_is_counted(self, served):
        class _BrokenDispatcher:
            def tick(self, now):
                raise RuntimeError("flush broke outside the send")

        served.worker._dispatchers["broken>edge"] = _BrokenDispatcher()
        served.worker._reschedule()  # its deadline is due now
        frame = encode_tuple(DataTuple(values={"x": 1}, seq=0))
        served.send(messages.data_message("snk", frame, 0, 1.0))
        served.acks(1)  # the loop kept serving
        del served.worker._dispatchers["broken>edge"]
        assert served.dropped("flush_error", "B>?") >= 1
