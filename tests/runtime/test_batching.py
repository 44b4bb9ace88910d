"""Tests for the batched zero-copy data plane.

Covers the flush-policy primitives, the dispatcher's batched send path
(including the batch-of-one wire-compat guarantee), the controller's
per-batch replay retention, and an end-to-end runtime flow where every
hop carries multi-tuple BATCH frames.
"""

import sys
import threading
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.batching import BatchBuffer, BatchConfig
from repro.core.controller import LrsController, PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig, EVICT_SHED
from repro.core.exceptions import SwingError
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.overload import OverloadConfig
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.dispatcher import UpstreamDispatcher
from repro.runtime.fabric import InProcFabric, Mailbox
from repro.runtime.serialization import decode_batch, encode_tuple
from repro.runtime.worker import WorkerRuntime


class TestBatchConfig:
    def test_defaults_disabled(self):
        config = BatchConfig()
        assert config.max_tuples == 1
        assert not config.enabled

    def test_enabled_above_one(self):
        assert BatchConfig(max_tuples=2).enabled

    def test_max_tuples_below_one_rejected(self):
        with pytest.raises(SwingError):
            BatchConfig(max_tuples=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(SwingError):
            BatchConfig(max_delay=-0.1)


class TestBatchBuffer:
    def test_append_reports_full(self):
        buffer = BatchBuffer(BatchConfig(max_tuples=2, max_delay=1.0))
        assert buffer.append("a", now=0.0) is False
        assert buffer.append("b", now=0.0) is True
        assert len(buffer) == 2

    def test_due_after_max_delay(self):
        buffer = BatchBuffer(BatchConfig(max_tuples=8, max_delay=0.5))
        assert not buffer.due(0.0)  # empty: never due
        buffer.append("a", now=1.0)
        assert not buffer.due(1.4)
        assert buffer.due(1.5)

    def test_due_in_counts_down_to_max_delay(self):
        buffer = BatchBuffer(BatchConfig(max_tuples=8, max_delay=0.5))
        assert buffer.due_in(0.0) is None  # empty: nothing to wait for
        buffer.append("a", now=1.0)
        buffer.append("b", now=1.3)  # the oldest item sets the deadline
        assert buffer.due_in(1.3) == pytest.approx(0.2)
        assert buffer.due_in(1.6) == pytest.approx(-0.1)

    def test_take_drains_and_resets_age(self):
        buffer = BatchBuffer(BatchConfig(max_tuples=8, max_delay=0.5))
        buffer.append("a", now=1.0)
        buffer.append("b", now=1.1)
        assert buffer.take() == ("a", "b")
        assert len(buffer) == 0
        assert not buffer.due(10.0)


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


def _dispatcher(captured, batching=None, clock=None, policy="RR",
                delivery=None, on_batch_open=None):
    config = PolicyConfig(policy=policy, batching=batching,
                          delivery=delivery)
    dispatcher = UpstreamDispatcher(
        "src", send=lambda target, msg: captured.append((target, msg)),
        edge="src>f", config=config, clock=clock or _FakeClock(),
        registry=metrics_mod.MetricsRegistry(), on_batch_open=on_batch_open)
    dispatcher.set_downstreams(["f@W"])
    return dispatcher


def _tuples(count, start_seq=0):
    return [DataTuple(values={"x": i}, seq=start_seq + i)
            for i in range(count)]


class TestDispatcherBatching:
    def test_flushes_when_full(self):
        captured = []
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=3, max_delay=60.0))
        data = _tuples(3)
        assert dispatcher.dispatch(data[0]) is None
        assert dispatcher.dispatch(data[1]) is None
        assert dispatcher.dispatch(data[2]) == "f@W"
        assert len(captured) == 1
        target, message = captured[0]
        assert target == "W"
        assert message.kind == messages.BATCH
        assert message.payload["seqs"] == [0, 1, 2]
        assert message.payload["edge"] == "src>f"
        decoded = decode_batch(message.payload["batch"])
        assert [d.seq for d in decoded] == [0, 1, 2]
        assert [d.values["x"] for d in decoded] == [0, 1, 2]
        assert dispatcher.dispatched == 3
        assert dispatcher.pending_batch() == 0

    def test_flush_of_one_uses_legacy_data_message(self):
        captured = []
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=4, max_delay=60.0))
        data = _tuples(1)[0]
        assert dispatcher.dispatch(data) is None
        assert dispatcher.pending_batch() == 1
        assert dispatcher.flush() == "f@W"
        _target, message = captured[0]
        assert message.kind == messages.DATA
        assert message.payload["tuple"] == encode_tuple(data)

    def test_batch_of_one_wire_identical_to_unbatched(self):
        clock = _FakeClock()
        batched_captured, plain_captured = [], []
        batched = _dispatcher(batched_captured,
                              BatchConfig(max_tuples=4, max_delay=60.0),
                              clock=clock)
        plain = _dispatcher(plain_captured, None, clock=clock)
        data = DataTuple(values={"frame": b"\x01\x02"}, seq=7)
        batched.dispatch(data)
        batched.flush()
        plain.dispatch(data)
        assert len(batched_captured) == len(plain_captured) == 1
        assert (batched_captured[0][1].encode()
                == plain_captured[0][1].encode())

    def test_tick_flushes_only_when_due(self):
        captured = []
        clock = _FakeClock()
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=8, max_delay=0.5),
                                 clock=clock)
        dispatcher.dispatch(_tuples(1)[0])
        assert dispatcher.tick(clock.now) == pytest.approx(clock.now + 0.5)
        assert captured == []
        clock.now += 0.6
        dispatcher.tick(clock.now)
        assert [target for target, _message in captured] == ["W"]

    def test_opening_a_batch_announces_its_deadline(self):
        captured, opened = [], []
        clock = _FakeClock()
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=2, max_delay=0.5),
                                 clock=clock,
                                 on_batch_open=lambda: opened.append(1))
        round_due = clock.now + 1.0  # nothing buffered: the next round
        assert dispatcher.tick(clock.now) == pytest.approx(round_due)
        first, second, third = _tuples(3)
        dispatcher.dispatch(first)
        assert len(opened) == 1
        clock.now += 0.2
        assert dispatcher.tick(clock.now) == pytest.approx(clock.now + 0.3)
        dispatcher.dispatch(second)  # fills the batch: flushed, not opened
        assert len(opened) == 1
        assert dispatcher.tick(clock.now) == pytest.approx(round_due)
        dispatcher.dispatch(third)
        assert len(opened) == 2
        unbatched = _dispatcher([], None, clock=clock)
        assert unbatched.tick(clock.now) == pytest.approx(clock.now + 1.0)

    def test_batched_ack_credits_every_member(self):
        captured = []
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=3, max_delay=60.0))
        for data in _tuples(3):
            dispatcher.dispatch(data)
        assert dispatcher.ack_count == 0
        dispatcher.on_ack_batch([0, 1, 2], processing_delay=0.01)
        assert dispatcher.ack_count == 3

    def test_batch_size_histogram_observed(self):
        captured = []
        dispatcher = _dispatcher(captured,
                                 BatchConfig(max_tuples=2, max_delay=60.0))
        for data in _tuples(2):
            dispatcher.dispatch(data)
        histogram = dispatcher._registry.histogram(
            metrics_mod.BATCH_SIZE, buckets=metrics_mod.BATCH_SIZE_BUCKETS,
            edge="src>f")
        assert histogram.count == 1
        assert histogram.total == 2.0


class _StubEgress:
    """Egress recording every send; always succeeds at the given clock."""

    def __init__(self, clock):
        self._clock = clock
        self.sent = []

    def send(self, downstream_id, seq, context=None, attempt=1):
        self.sent.append((downstream_id, seq, context))
        return self._clock()


def _controller(clock, delivery=None):
    config = PolicyConfig(policy="RR", delivery=delivery)
    controller = LrsController(config, clock=clock,
                               egress=_StubEgress(clock),
                               registry=metrics_mod.MetricsRegistry())
    controller.add_downstream("W")
    return controller


class TestControllerBatchReplay:
    DELIVERY = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=16)

    def test_one_retention_entry_covers_the_batch(self):
        controller = _controller(_FakeClock(), delivery=self.DELIVERY)
        assert controller.dispatch_batch([1, 2, 3], context=("a", "b", "c"))
        assert controller.replay_depth() == 1
        for seq in (1, 2, 3):
            assert controller.replay_holds(seq)

    def test_per_member_acks_release_on_last(self):
        controller = _controller(_FakeClock(), delivery=self.DELIVERY)
        controller.dispatch_batch([1, 2, 3], context=("a", "b", "c"))
        controller.on_ack(2)
        assert controller.replay_depth() == 1
        assert not controller.replay_holds(2)
        controller.on_ack(1)
        assert controller.replay_depth() == 1
        controller.on_ack(3)
        assert controller.replay_depth() == 0

    def test_batched_ack_releases_wholesale(self):
        controller = _controller(_FakeClock(), delivery=self.DELIVERY)
        controller.dispatch_batch([4, 5, 6], context=("a", "b", "c"))
        result = controller.on_ack_batch([4, 5, 6], processing_delay=0.01)
        assert result is not None
        assert result.downstream_id == "W"
        assert controller.replay_depth() == 0
        assert controller.ack_count == 3

    def test_release_replay_member_by_member(self):
        controller = _controller(_FakeClock(), delivery=self.DELIVERY)
        controller.dispatch_batch([7, 8, 9], context=("a", "b", "c"))
        controller.release_replay(7, EVICT_SHED)
        assert controller.replay_depth() == 1
        assert controller.replay_holds(8)
        controller.release_replay(8, EVICT_SHED)
        controller.release_replay(9, EVICT_SHED)
        assert controller.replay_depth() == 0

    def test_without_delivery_no_retention(self):
        controller = _controller(_FakeClock())
        controller.dispatch_batch([1, 2, 3], context=("a", "b", "c"))
        assert controller.replay_depth() == 0

    def test_batch_of_one_delegates_to_dispatch(self):
        controller = _controller(_FakeClock(), delivery=self.DELIVERY)
        assert controller.dispatch_batch([42], context="a") == "W"
        assert controller.dispatched == 1
        assert controller.replay_holds(42)
        controller.on_ack(42)
        assert controller.replay_depth() == 0


class TestMailboxBatchShedding:
    def test_batch_is_droppable_and_weighted(self):
        mailbox = Mailbox("W", overload=OverloadConfig(queue_capacity=4))
        mailbox.put("A", messages.batch_message("f", b"frame", [1, 2, 3], 0.0))
        assert mailbox.tenant_depths == {"": 3}
        mailbox.put("A", messages.data_message("f", b"p", 4, 0.0))
        assert mailbox.tenant_depths == {"": 4}
        mailbox.put("A", messages.ack_message(1, 0.0, 0.0))
        assert mailbox.tenant_depths == {"": 4}  # an ACK weighs nothing
        # Full: the next arrival evicts the whole batch, never the ACK.
        mailbox.put("A", messages.data_message("f", b"p", 5, 0.0))
        assert mailbox.shed_count == 3
        assert mailbox.tenant_depths == {"": 2}
        assert [message.kind for _sender, message in mailbox.items()] \
            == [messages.DATA, messages.ACK, messages.DATA]


class TestMailboxWake:
    def test_wake_ends_the_next_empty_wait_at_once(self):
        mailbox = Mailbox("W")
        mailbox.wake()
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=5.0)
        assert time.monotonic() - started < 1.0
        with pytest.raises(TimeoutError):  # consumed: a plain wait again
            mailbox.get(timeout=0.01)

    def test_wakes_racing_puts_lose_no_message(self):
        mailbox, producers, per_producer = Mailbox("W"), 4, 300

        def produce():
            for seq in range(per_producer):
                mailbox.wake()
                mailbox.put("A", messages.ack_message(seq, 0.0, 0.0))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce)
                       for _ in range(producers)]
            for thread in threads:
                thread.start()
            received, deadline = 0, time.monotonic() + 10.0
            while (received < producers * per_producer
                   and time.monotonic() < deadline):
                try:
                    mailbox.get(timeout=5.0)
                    received += 1
                except TimeoutError:
                    pass  # a wake with nothing queued
            for thread in threads:
                thread.join(timeout=5.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert received == producers * per_producer
        assert len(mailbox) == 0

    def test_a_delivered_message_consumes_the_wake(self):
        mailbox = Mailbox("W")
        mailbox.wake()
        mailbox.put("A", messages.ack_message(1, 0.0, 0.0))
        assert mailbox.get(timeout=1.0)[1].kind == messages.ACK
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=0.05)
        assert time.monotonic() - started >= 0.04


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestEndToEndBatching:
    """Full runtime flow: source -> f -> sink with batched frames."""

    ITEMS = 50

    def _graph(self):
        return (GraphBuilder("app")
                .source("src", lambda: IterableSource(
                    [{"x": i} for i in range(self.ITEMS)]))
                .unit("f", lambda: LambdaUnit(lambda v: {"y": v["x"] + 1}))
                .sink("snk", CollectingSink)
                .chain("src", "f", "snk")
                .build())

    def _run(self, batching, control_interval=1.0, timeout=10.0):
        fabric = InProcFabric()
        graph = self._graph()
        config = PolicyConfig(policy="RR", batching=batching,
                              control_interval=control_interval)
        registry = metrics_mod.MetricsRegistry()
        worker_a = WorkerRuntime("A", fabric, graph, policy_config=config,
                                 source_rate=2000.0, registry=registry)
        worker_b = WorkerRuntime("B", fabric, graph, policy_config=config,
                                 registry=registry)
        worker_a.start()
        worker_b.start()
        try:
            fabric.send("M", "A", messages.deploy_message(
                "A", ["src", "snk"], {"src>f": ["f@B"]}))
            fabric.send("M", "B", messages.deploy_message(
                "B", ["f"], {"f>snk": ["snk@A"]}))
            assert wait_until(lambda: worker_a.deployed.is_set()
                              and worker_b.deployed.is_set())
            fabric.send("M", "A", messages.start_message())
            fabric.send("M", "B", messages.start_message())
            sink = worker_a.unit("snk")
            assert wait_until(
                lambda: len(sink.results) >= self.ITEMS, timeout=timeout)
            return worker_a, worker_b, sink, registry
        finally:
            worker_a.stop()
            worker_b.stop()

    def test_all_tuples_arrive_batched(self):
        batching = BatchConfig(max_tuples=8, max_delay=0.2)
        worker_a, worker_b, sink, registry = self._run(batching)
        assert sorted(sink.values("y")) == list(range(1, self.ITEMS + 1))
        assert worker_b.processed_count == self.ITEMS
        histogram = registry.histogram(
            metrics_mod.BATCH_SIZE, buckets=metrics_mod.BATCH_SIZE_BUCKETS,
            edge="src>f")
        assert histogram.count > 0
        # Fewer flushes than tuples proves multi-tuple batches were used.
        assert histogram.count < self.ITEMS
        # ACKs flowed back batched and credited every member.
        dispatcher = worker_a.dispatcher("src")
        assert wait_until(lambda: dispatcher.ack_count >= self.ITEMS - 8)

    def test_source_pump_wakes_a_blocked_loop(self):
        def late_payloads():
            time.sleep(0.2)  # the loop is blocked until its round by now
            yield {"x": 1}

        graph = (GraphBuilder("app")
                 .source("src", lambda: IterableSource(late_payloads()))
                 .unit("f", lambda: LambdaUnit(lambda v: v))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        fabric = InProcFabric()
        downstream = fabric.register("B")
        worker = WorkerRuntime(
            "A", fabric, graph, source_rate=0,
            # The only deadline before the batch opens is a round 30 s
            # away: the pump's wake is what gets the batch out in time.
            policy_config=PolicyConfig(
                policy="RR", control_interval=30.0,
                batching=BatchConfig(max_tuples=64, max_delay=0.02)))
        worker.start()
        try:
            fabric.send("M", "A", messages.deploy_message(
                "A", ["src"], {"src>f": ["f@B"]}))
            assert wait_until(worker.deployed.is_set)
            fabric.send("M", "A", messages.start_message())
            _sender, message = downstream.get(timeout=3.0)
            assert message.kind == messages.DATA  # a batch of one
        finally:
            worker.stop()

    def test_last_partial_batch_flushes_at_max_delay(self):
        # The source's last batch is opened on its pump thread while A's
        # loop sleeps, the unit's on B's loop thread: both must flush at
        # max_delay, long before the next control round (30 s) wakes
        # either loop.
        started = time.monotonic()
        _worker_a, _worker_b, sink, _registry = self._run(
            BatchConfig(max_tuples=64, max_delay=0.02),
            control_interval=30.0, timeout=3.0)
        assert sorted(sink.values("y")) == list(range(1, self.ITEMS + 1))
        assert time.monotonic() - started < 3.0

    def test_batch_size_one_still_works(self):
        _worker_a, worker_b, sink, _registry = self._run(
            BatchConfig(max_tuples=1))
        assert sorted(sink.values("y")) == list(range(1, self.ITEMS + 1))
        assert worker_b.processed_count == self.ITEMS
