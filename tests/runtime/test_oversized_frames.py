"""A frame TCP cannot carry is dropped alone, counted, and kills nothing.

A message whose encoded frame exceeds ``channels.MAX_FRAME_BYTES`` can
never cross a :class:`TcpFabric`.  It is dropped where it would be
written, counted per tuple as
``swing_frames_dropped_total{reason=oversized_frame}``, and the rest of
its burst still goes out — whether a worker's loop thread wrote it at a
held-write flush or a source pump sent it on its own.
"""

import time

from repro import metrics as metrics_mod
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import channels, messages
from repro.runtime.fabric import TcpFabric
from repro.runtime.serialization import (decode_batch, decode_tuple,
                                         encode_tuple)
from repro.runtime.worker import WorkerRuntime

from tests.integration.waiting import wait_until

#: lowered limit, so the test moves megabytes, not 64 MiB; joined held
#: frames stop at HOLD_MAX_BATCH_BYTES (1 MiB), which still fits
LIMIT = 3 << 19
#: a result this large leaves alone, as a DATA frame over the limit
BIG = 2 << 20


class _Grow(FunctionUnit):
    """Forwards each tuple with a blob of ``values["size"]`` bytes."""

    def process_data(self, data: DataTuple) -> None:
        self.send(data.derive({"blob": bytes(data.values["size"])}))


def _oversized(registry, link):
    return registry.value(metrics_mod.DROPPED_TOTAL,
                          reason="oversized_frame", link=link)


def _pair(registry):
    fabric_a = TcpFabric("A", registry=registry)
    fabric_b = TcpFabric("B", registry=registry)
    fabric_a.learn("B", fabric_b.address)
    fabric_b.learn("A", fabric_a.address)
    return fabric_a, fabric_b


def _result_seqs(message):
    if message.kind == messages.BATCH:
        return [data.seq for data in decode_batch(message.payload["batch"])]
    return [decode_tuple(message.payload["tuple"]).seq]


def test_an_oversized_held_result_is_dropped_alone(monkeypatch):
    monkeypatch.setattr(channels, "MAX_FRAME_BYTES", LIMIT)
    registry = metrics_mod.MetricsRegistry()
    graph = (GraphBuilder("grow")
             .source("src", lambda: IterableSource([]))
             .unit("f", _Grow)
             .sink("snk", CollectingSink)
             .chain("src", "f", "snk")
             .build())
    fabric_a, fabric_b = _pair(registry)
    inbox = fabric_a.register("A")
    worker = WorkerRuntime("B", fabric_b, graph, policy="RR",
                           registry=registry)
    sizes = [10, 10, BIG, 10, 10]

    def frame(seq, size):
        message = messages.data_message(
            "f", encode_tuple(DataTuple(values={"size": size}, seq=seq)),
            seq, time.monotonic())
        message.payload["edge"] = "src>f"
        return message

    try:
        fabric_a.send("A", "B", messages.deploy_message(
            "B", ["f"], {"f>snk": ["snk@A"]}))
        for seq, size in enumerate(sizes):
            fabric_a.send("A", "B", frame(seq, size))
        # All queued before the loop starts: it serves them as one
        # burst and holds what it emits, so one flush writes them all.
        wait_until(lambda: len(worker.mailbox) == len(sizes) + 1,
                   message="every tuple queued at B")
        worker.start()
        results, acks = [], []

        def take(count):
            while len(acks) < count:
                _sender, message = inbox.get(timeout=5.0)
                if message.kind == messages.ACK:
                    acks.append(message.payload["seq"])
                else:
                    results.extend(_result_seqs(message))

        take(len(sizes))
        # Only the big result is gone; its tuple was still served and
        # ACKed, and every other frame of the burst arrived.
        assert sorted(acks) == list(range(len(sizes)))
        assert sorted(results) == [0, 1, 3, 4]
        assert _oversized(registry, "B>A") == 1
        # The loop is still serving.
        fabric_a.send("A", "B", frame(len(sizes), 10))
        take(len(sizes) + 1)
        assert results[-1] == len(sizes)
        assert _oversized(registry, "B>A") == 1
    finally:
        worker.stop()
        fabric_a.close()
        fabric_b.close()


def test_an_oversized_source_tuple_does_not_end_its_pump(monkeypatch):
    monkeypatch.setattr(channels, "MAX_FRAME_BYTES", LIMIT)
    registry = metrics_mod.MetricsRegistry()
    blobs = [b"a", bytes(BIG), b"c"]
    graph = (GraphBuilder("pump")
             .source("src", lambda: IterableSource(
                 [{"blob": blob} for blob in blobs]))
             .sink("snk", CollectingSink)
             .chain("src", "snk")
             .build())
    fabric_a, fabric_b = _pair(registry)
    inbox = fabric_a.register("A")
    worker = WorkerRuntime("B", fabric_b, graph, policy="RR",
                           source_rate=1000.0, registry=registry)
    try:
        worker.start()
        fabric_a.send("A", "B", messages.deploy_message(
            "B", ["src"], {"src>snk": ["snk@A"]}))
        fabric_a.send("A", "B", messages.start_message())
        seqs = []
        while len(seqs) < 2:
            _sender, message = inbox.get(timeout=5.0)
            if message.kind in (messages.DATA, messages.BATCH):
                seqs.extend(_result_seqs(message))
        # The tuple after the oversized one left: the pump lived on.
        assert seqs == [0, 2]
        assert _oversized(registry, "B>A") == 1
    finally:
        worker.stop()
        fabric_a.close()
        fabric_b.close()
