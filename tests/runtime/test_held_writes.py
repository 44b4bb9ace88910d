"""Held writes: what a worker's loop thread emits goes out in bursts.

A result and an ACK per tuple are held per target and written with one
``Fabric.send_many`` when the mailbox is empty, at ``HOLD_MAX_FRAMES``,
and before a unit known to be slow is called again — never across user
compute, never past ``stop()`` or ``leave()``, and never silently lost.
"""

import time

from repro import metrics as metrics_mod
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.fabric import Fabric, InProcFabric
from repro.runtime.serialization import encode_tuple
from repro.runtime.worker import HOLD_MAX_FRAMES, WorkerRuntime

from tests.integration.waiting import wait_until


class _Forward(FunctionUnit):
    """Forwards each tuple after *service* seconds, noting when it ran."""

    def __init__(self, service: float, calls: list) -> None:
        super().__init__()
        self._service = service
        self._calls = calls

    def process_data(self, data: DataTuple) -> None:
        started = time.monotonic()
        if self._service:
            time.sleep(self._service)
        self.send(data.derive(dict(data.values)))
        self._calls.append((started, time.monotonic()))


class _RecordingFabric(Fabric):
    """An in-proc fabric that notes every write B makes, single or
    burst: ``(when, target, kinds)``."""

    def __init__(self) -> None:
        self._inner = InProcFabric()
        self.writes = []

    def register(self, endpoint_id):
        return self._inner.register(endpoint_id)

    def _note(self, sender_id, target_id, burst):
        if sender_id == "B":
            self.writes.append((time.monotonic(), target_id,
                                [message.kind for message in burst]))

    def send(self, sender_id, target_id, message):
        self._note(sender_id, target_id, [message])
        self._inner.send(sender_id, target_id, message)

    def send_many(self, sender_id, target_id, burst):
        self._note(sender_id, target_id, burst)
        self._inner.send_many(sender_id, target_id, burst)


class _Swarm:
    """Worker "B" hosting ``f``, fed by hand from "A", which also hosts
    the downstream ``snk`` (as a bare mailbox the test reads)."""

    def __init__(self, tuples: int, service: float = 0.0,
                 downstream: str = "snk@A", then=()) -> None:
        self.calls = []
        graph = (GraphBuilder("held")
                 .source("src", lambda: IterableSource([]))
                 .unit("f", lambda: _Forward(service, self.calls))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        self.registry = metrics_mod.MetricsRegistry()
        self.fabric = _RecordingFabric()
        self.peer = self.fabric.register("A")
        self.worker = WorkerRuntime("B", self.fabric, graph, policy="RR",
                                    registry=self.registry)
        # Everything is queued before the loop starts, so the test, not
        # the scheduler, decides what is in the mailbox behind a tuple.
        self.fabric.send("A", "B", messages.deploy_message(
            "B", ["f"], {"f>snk": [downstream]}))
        for seq in range(tuples):
            message = messages.data_message(
                "f", encode_tuple(DataTuple(values={"x": seq}, seq=seq)),
                seq, time.monotonic())
            message.payload["edge"] = "src>f"
            self.fabric.send("A", "B", message)
        for message in then:
            self.fabric.send("A", "B", message)
        self.worker.start()

    def bursts(self, target="A"):
        return [kinds for _when, to, kinds in self.fabric.writes
                if to == target]

    def frames(self, target="A"):
        return [kind for burst in self.bursts(target) for kind in burst]

    def wait_for_frames(self, count, target="A"):
        wait_until(lambda: sum(map(len, self.bursts(target))) >= count,
                   message="%d frames written to %s" % (count, target))


def test_held_frames_go_out_when_the_mailbox_empties():
    swarm = _Swarm(tuples=3)
    try:
        swarm.wait_for_frames(6)
        # Nothing but the mailbox running empty writes these (no cap, no
        # slow unit): the backlog goes out coalesced — one write, unless
        # a scheduling stall made a call look slow — each tuple's result
        # ahead of its ACK, every frame still its own message at the peer.
        assert swarm.frames() == [messages.DATA, messages.ACK] * 3
        assert len(swarm.bursts()) < 3
        received = [swarm.peer.get(timeout=1.0)[1] for _ in range(6)]
        assert [m.payload["seq"] for m in received] == [0, 0, 1, 1, 2, 2]
        assert not swarm.worker.busy()
    finally:
        swarm.worker.stop()


def test_held_frames_go_out_at_the_cap():
    tuples = HOLD_MAX_FRAMES // 2 + 4
    swarm = _Swarm(tuples=tuples)
    try:
        swarm.wait_for_frames(2 * tuples)
        # 40 frames queued behind one another: never all in one write.
        # (Exactly [32, 8] unless a stalled call flushed early.)
        sizes = [len(burst) for burst in swarm.bursts()]
        assert sum(sizes) == 2 * tuples
        assert max(sizes) <= HOLD_MAX_FRAMES and len(sizes) >= 2
    finally:
        swarm.worker.stop()


def test_nothing_is_held_across_a_slow_unit_call():
    swarm = _Swarm(tuples=3, service=0.02)
    try:
        swarm.wait_for_frames(6)
        assert swarm.bursts() == [[messages.DATA, messages.ACK]] * 3
        writes = [when for when, to, _kinds in swarm.fabric.writes
                  if to == "A"]
        # The first call's duration was unknown, so its result and ACK
        # were held — but only until the unit was about to run again.
        assert writes[0] <= swarm.calls[1][0]
        assert writes[1] <= swarm.calls[2][0]
    finally:
        swarm.worker.stop()


def test_stop_message_leaves_nothing_held():
    swarm = _Swarm(tuples=2, then=[messages.stop_message()])
    try:
        # The loop exits on STOP with a non-empty hold; its last act is
        # to write it.
        swarm.wait_for_frames(4)
        assert swarm.frames() == [messages.DATA, messages.ACK] * 2
    finally:
        swarm.worker.stop()
    assert swarm.worker._held_count == 0 and not swarm.worker._held


def test_leave_leaves_nothing_held():
    swarm = _Swarm(tuples=3)
    swarm.worker.leave("A", quiet=0.02, timeout=5.0)
    kinds = []
    while len(swarm.peer):
        kinds.append(swarm.peer.get(timeout=1.0)[1].kind)
    assert sorted(kinds) == sorted([messages.LEAVING]
                                   + [messages.DATA, messages.ACK] * 3)
    assert swarm.worker._held_count == 0 and not swarm.worker._held
    assert swarm.registry.values_by_label(metrics_mod.DRAIN_TIMEOUTS_TOTAL,
                                          "device") == {}


def test_flush_to_a_dead_peer_is_counted_and_health_recorded():
    swarm = _Swarm(tuples=2, downstream="snk@ghost")
    try:
        swarm.wait_for_frames(2)  # the two ACKs still reach "A"
        wait_until(lambda: swarm.registry.value(
            metrics_mod.DROPPED_TOTAL, reason="send_failed",
            link="B>ghost") == 2, message="both lost results counted")
        assert swarm.bursts() == [[messages.ACK, messages.ACK]]
        assert swarm.worker.health.backoff_for("ghost") > 0
        assert swarm.registry.value(metrics_mod.DROPPED_TOTAL,
                                    reason="ack_unsent", link="B>A") == 0
    finally:
        swarm.worker.stop()


def test_failed_flushes_mark_the_peer_dead():
    # A held send proves nothing about the peer: only the burst that
    # leaves does.  Each tuple below is held, then its flush to the
    # vanished downstream fails; max_failures such flushes must add up
    # to a dead peer instead of each held send wiping the streak.
    swarm = _Swarm(tuples=0, downstream="snk@ghost")
    health = swarm.worker.health
    try:
        for seq in range(health.max_failures):
            wait_until(lambda: health.should_attempt("ghost"),
                       message="the backoff window to pass")
            message = messages.data_message(
                "f", encode_tuple(DataTuple(values={"x": seq}, seq=seq)),
                seq, time.monotonic())
            message.payload["edge"] = "src>f"
            swarm.fabric.send("A", "B", message)
            wait_until(lambda: swarm.registry.value(
                metrics_mod.DROPPED_TOTAL, reason="send_failed",
                link="B>ghost") == seq + 1,
                message="flush %d failing" % (seq + 1))
        assert health.snapshot()["ghost"].consecutive_failures \
            == health.max_failures
        assert health.is_dead("ghost")
    finally:
        swarm.worker.stop()
