"""Held writes: what a worker's loop thread emits goes out in bursts.

The result tuples of an unbatched edge are held, and so are the ACKs,
and both are written when the mailbox is empty, at ``HOLD_MAX_FRAMES``,
and before a unit known to be slow is called again — never across user
compute, never past ``stop()`` or ``leave()``, and never silently lost.
At the flush each held tuple is routed as unheld dispatch would route
it, and each chosen downstream gets one frame: a lone tuple the DATA
frame unheld dispatch sends, several one BATCH frame; then one
``Fabric.send_many`` per target carries the results ahead of the ACKs,
one per upstream edge: a lone frame's own ACK, or an echo of several.
"""

import threading
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.batching import BatchConfig
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import channels, messages
from repro.runtime import worker as worker_mod
from repro.runtime.chaos import ChaosFabric, LinkChaos
from repro.runtime.dispatcher import HOLD_MAX_BATCH_BYTES, UpstreamDispatcher
from repro.runtime.fabric import Fabric, InProcFabric, TcpFabric
from repro.runtime.serialization import encode_batch, encode_tuple
from repro.runtime.worker import HOLD_MAX_FRAMES, WorkerRuntime

from tests.integration.waiting import wait_until


class _Forward(FunctionUnit):
    """Forwards each tuple after *service* seconds, noting when it ran
    and what it sent; a tuple whose seq is *gate*'s first item waits in
    the unit for *gate*'s release event (after setting its entered one)."""

    def __init__(self, service: float, calls: list, sent: list,
                 gate=None) -> None:
        super().__init__()
        self._service = service
        self._calls = calls
        self._sent = sent
        self._gate = gate

    def process_data(self, data: DataTuple) -> None:
        started = time.monotonic()
        if self._gate is not None and data.seq == self._gate[0]:
            self._gate[1].set()
            self._gate[2].wait(5.0)
        if self._service:
            time.sleep(self._service)
        out = data.derive(dict(data.values))
        self._sent.append(out)
        self.send(out)
        self._calls.append((started, time.monotonic()))


class _RecordingFabric(Fabric):
    """A fabric (in-proc unless *inner* is given) that notes every write
    B makes, single or burst: ``(when, target, messages)``."""

    def __init__(self, inner=None) -> None:
        self._inner = inner if inner is not None else InProcFabric()
        self.writes = []

    def register(self, endpoint_id):
        return self._inner.register(endpoint_id)

    def _note(self, sender_id, target_id, burst):
        if sender_id == "B":
            self.writes.append((time.monotonic(), target_id, list(burst)))

    def send(self, sender_id, target_id, message):
        self._note(sender_id, target_id, [message])
        self._inner.send(sender_id, target_id, message)

    def send_many(self, sender_id, target_id, burst):
        self._note(sender_id, target_id, burst)
        self._inner.send_many(sender_id, target_id, burst)


def _graph(calls, sent, service=0.0, gate=None):
    return (GraphBuilder("held")
            .source("src", lambda: IterableSource([]))
            .unit("f", lambda: _Forward(service, calls, sent, gate))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


def _data_frame(seq, values=None, unit="f", edge="src>f"):
    message = messages.data_message(
        unit, encode_tuple(DataTuple(values=values or {"x": seq}, seq=seq)),
        seq, time.monotonic())
    message.payload["edge"] = edge
    return message


def _seqs(message):
    """The tuples a result frame carries."""
    if message.kind == messages.BATCH:
        return list(message.payload["seqs"])
    return [message.payload["seq"]]


def _acked(message):
    """The head seq of every unit an ACK acknowledges: one for a frame's
    own ACK, several for an echo."""
    if "heads" in message.payload:
        return list(message.payload["heads"])
    return [message.payload["seq"]]


class _Swarm:
    """Worker "B" hosting ``f``, fed by hand from "A", which also hosts
    the downstream ``snk`` (as a bare mailbox the test reads)."""

    def __init__(self, tuples: int, service: float = 0.0,
                 downstream="snk@A", then=(), policy: str = "RR",
                 seed=None, gate=None) -> None:
        self.calls = []
        self.sent = []
        graph = _graph(self.calls, self.sent, service, gate)
        self.registry = metrics_mod.MetricsRegistry()
        self.fabric = _RecordingFabric()
        self.peer = self.fabric.register("A")
        downstreams = ([downstream] if isinstance(downstream, str)
                       else list(downstream))
        for worker in {instance.partition("@")[2]
                       for instance in downstreams} - {"A", "ghost"}:
            self.fabric.register(worker)
        self.worker = WorkerRuntime("B", self.fabric, graph, policy=policy,
                                    seed=seed, registry=self.registry)
        # Everything is queued before the loop starts, so the test, not
        # the scheduler, decides what is in the mailbox behind a tuple.
        self.fabric.send("A", "B", messages.deploy_message(
            "B", ["f"], {"f>snk": downstreams}))
        for seq in range(tuples):
            self.fabric.send("A", "B", _data_frame(seq))
        for message in then:
            self.fabric.send("A", "B", message)
        self.worker.start()

    def bursts(self, target="A"):
        return [[message.kind for message in burst]
                for _when, to, burst in self.fabric.writes if to == target]

    def frames(self, target="A"):
        return [kind for burst in self.bursts(target) for kind in burst]

    def results(self, target="A"):
        """Result frames written to *target*, in write order."""
        return [message for _when, to, burst in self.fabric.writes
                if to == target for message in burst
                if message.kind != messages.ACK]

    def acks(self, target="A"):
        return [seq for _when, to, burst in self.fabric.writes if to == target
                for message in burst if message.kind == messages.ACK
                for seq in _acked(message)]

    def result_seqs(self, target="A"):
        return [seq for message in self.results(target)
                for seq in _seqs(message)]

    def wait_for_frames(self, count, target="A"):
        wait_until(lambda: sum(map(len, self.bursts(target))) >= count,
                   message="%d frames written to %s" % (count, target))

    def wait_for_tuples(self, count, target="A"):
        """Until *count* results and *count* ACKs were written."""
        wait_until(lambda: len(self.result_seqs(target)) >= count
                   and len(self.acks(target)) >= count,
                   message="%d results and ACKs written to %s"
                   % (count, target))

    def assert_nothing_held(self):
        worker = self.worker
        assert worker._held_count == 0 and not worker._held
        assert not worker._echoes
        assert not worker._holding
        assert all(not dispatcher._held
                   for dispatcher in worker._dispatchers.values())


def _in_order(swarm, tuples, target="A"):
    """Every tuple's result and ACK were written, once each, and no ACK
    left ahead of the result of the tuple it acknowledges."""
    order = {}
    for message in [m for _when, to, burst in swarm.fabric.writes
                    if to == target for m in burst]:
        if message.kind == messages.ACK:
            for seq in _acked(message):
                assert ("result", seq) in order, "ACK %d overtook" % seq
                order[("ack", seq)] = len(order)
        else:
            for seq in _seqs(message):
                order[("result", seq)] = len(order)
    assert sorted(order) == sorted([("result", seq) for seq in range(tuples)]
                                   + [("ack", seq) for seq in range(tuples)])


def test_held_frames_go_out_when_the_mailbox_empties():
    swarm = _Swarm(tuples=3)
    try:
        swarm.wait_for_tuples(3)
        # Nothing but the mailbox running empty writes these (no cap, no
        # slow unit): the backlog goes out coalesced — one write of one
        # BATCH and one echo of three units, unless a scheduling stall
        # made a call look slow — results ahead of their ACKs.
        _in_order(swarm, 3)
        assert len(swarm.bursts()) < 3
        assert len(swarm.results()) < 3
        received = [swarm.peer.get(timeout=1.0)[1]
                    for _ in range(len(swarm.frames()))]
        assert sorted(seq for m in received if m.kind != messages.ACK
                      for seq in _seqs(m)) == [0, 1, 2]
        assert [seq for m in received if m.kind == messages.ACK
                for seq in _acked(m)] == [0, 1, 2]
        assert not swarm.worker.busy()
    finally:
        swarm.worker.stop()


def test_held_frames_go_out_at_the_cap():
    tuples = HOLD_MAX_FRAMES // 2 + 4
    swarm = _Swarm(tuples=tuples)
    try:
        swarm.wait_for_tuples(tuples)
        # 20 results and 20 ACKs queued behind one another: never all in
        # one write, and no write carries more than HOLD_MAX_FRAMES of
        # them (a BATCH weighs its tuples, an echo its units).  Exactly
        # [BATCH(16) + an echo of 16, BATCH(4) + an echo of 4] unless a
        # stalled call flushed early.
        weights = [sum(len(_acked(m) if m.kind == messages.ACK
                           else _seqs(m)) for m in burst)
                   for _when, to, burst in swarm.fabric.writes if to == "A"]
        assert sum(weights) == 2 * tuples
        assert max(weights) <= HOLD_MAX_FRAMES and len(weights) >= 2
        assert max(len(_seqs(m)) for m in swarm.results()) > 1
        _in_order(swarm, tuples)
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
        # to place the held tuples and write everything.
        swarm.wait_for_tuples(2)
        _in_order(swarm, 2)
    finally:
        swarm.worker.stop()
    swarm.assert_nothing_held()


def test_stop_leaves_no_held_tuple():
    entered, release = threading.Event(), threading.Event()
    swarm = _Swarm(tuples=2, gate=(1, entered, release))
    try:
        # Tuple 0's result is held; tuple 1 is inside the unit when
        # stop() is called from another thread.
        assert entered.wait(5.0)
        stopper = threading.Thread(target=swarm.worker.stop)
        stopper.start()
        wait_until(lambda: not swarm.worker.alive(),
                   message="stop() to begin")
        release.set()
        stopper.join(5.0)
        assert not stopper.is_alive()
        assert sorted(swarm.result_seqs()) == [0, 1]
        _in_order(swarm, 2)
    finally:
        release.set()
        swarm.worker.stop()
    swarm.assert_nothing_held()


def test_leave_leaves_nothing_held():
    swarm = _Swarm(tuples=3)
    swarm.worker.leave("A", quiet=0.02, timeout=5.0)
    received = []
    while len(swarm.peer):
        received.append(swarm.peer.get(timeout=1.0)[1])
    assert [m.kind for m in received].count(messages.LEAVING) == 1
    assert sorted(seq for m in received
                  if m.kind in (messages.DATA, messages.BATCH)
                  for seq in _seqs(m)) == [0, 1, 2]
    assert sorted(seq for m in received if m.kind == messages.ACK
                  for seq in _acked(m)) == [0, 1, 2]
    swarm.assert_nothing_held()
    assert swarm.registry.values_by_label(metrics_mod.DRAIN_TIMEOUTS_TOTAL,
                                          "device") == {}


def test_flush_to_a_dead_peer_is_counted_and_health_recorded():
    swarm = _Swarm(tuples=2, downstream="snk@ghost")
    try:
        # The two tuples' ACKs still reach "A", in one echo.
        wait_until(lambda: len(swarm.acks()) == 2,
                   message="both ACKs written to A")
        wait_until(lambda: swarm.registry.value(
            metrics_mod.DROPPED_TOTAL, reason="send_failed",
            link="B>ghost") == 2, message="both lost results counted")
        assert swarm.bursts() == [[messages.ACK]]
        assert swarm.acks() == [0, 1]
        assert swarm.worker.health.backoff_for("ghost") > 0
        assert swarm.registry.value(metrics_mod.DROPPED_TOTAL,
                                    reason="ack_unsent", link="B>A") == 0
    finally:
        swarm.worker.stop()


def test_an_echo_to_a_gone_upstream_counts_each_unit():
    # Two DATA frames and a BATCH of two from an upstream that is not
    # on the fabric: served in one burst, they owe one echo of three
    # units, whose write fails — counted once per unit, as three ACKs
    # of their own would have been.
    registry = metrics_mod.MetricsRegistry()
    fabric = _RecordingFabric()
    fabric.register("A")
    worker = WorkerRuntime("B", fabric, _graph([], []), registry=registry)
    fabric.send("A", "B", messages.deploy_message(
        "B", ["f"], {"f>snk": ["snk@A"]}))
    for seq in (0, 1):
        fabric.send("ghost", "B", _data_frame(seq))
    batch = messages.batch_message(
        "f", encode_batch([encode_tuple(DataTuple(values={"x": seq}, seq=seq))
                           for seq in (2, 3)]), [2, 3], time.monotonic())
    batch.payload["edge"] = "src>f"
    fabric.send("ghost", "B", batch)
    worker.start()
    try:
        wait_until(lambda: registry.value(
            metrics_mod.DROPPED_TOTAL, reason="ack_unsent",
            link="B>ghost") == 3, message="the echo's three units counted")
        (burst,) = [burst for _when, to, burst in fabric.writes
                    if to == "ghost"]
        assert [(m.kind, m.payload["heads"], m.payload["counts"])
                for m in burst] == [(messages.ACK, [0, 1, 2], [1, 1, 2])]
    finally:
        worker.stop()


def test_failed_flushes_widen_the_backoff_window():
    # A held send proves nothing about the peer: only the burst that
    # leaves does.  Each tuple below is held, then its flush to the
    # vanished downstream fails; the failure streak must survive the
    # held sends, so after n failed flushes the window is
    # base x 2^(n-1) (capped), not a fresh base window each time.
    swarm = _Swarm(tuples=0, downstream="snk@ghost")
    health = swarm.worker.health
    flushes = 3
    try:
        for seq in range(flushes):
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
        nominal = min(health.max_backoff,
                      health.base_backoff * 2 ** (flushes - 1))
        assert nominal * (1 - health.jitter) \
            <= health.backoff_for("ghost") \
            <= nominal * (1 + health.jitter)
    finally:
        swarm.worker.stop()


def test_a_lone_held_tuple_is_the_unheld_data_frame():
    swarm = _Swarm(tuples=1)
    try:
        swarm.wait_for_tuples(1)
        [held] = swarm.results()
    finally:
        swarm.worker.stop()
    sent = []
    unheld = UpstreamDispatcher("f", send=lambda _to, m: sent.append(m),
                                config=PolicyConfig(policy="RR"),
                                edge="f>snk")
    unheld.set_downstreams(["snk@A"])
    unheld.dispatch(swarm.sent[0])
    [reference] = sent
    # Only the send stamp differs: it is taken when the frame leaves.
    held.payload["sent_at"] = reference.payload["sent_at"] = 0.0
    assert held.kind == messages.DATA
    assert held.encode() == reference.encode()


@pytest.mark.parametrize("policy", ["RR", "LRS"])
def test_held_tuples_are_routed_as_unheld_dispatch_would(policy):
    tuples = 12
    downstreams = ["snk@A", "snk@C"]
    swarm = _Swarm(tuples=tuples, downstream=downstreams, policy=policy,
                   seed=7)
    try:
        wait_until(lambda: len(swarm.result_seqs("A"))
                   + len(swarm.result_seqs("C")) >= tuples
                   and len(swarm.acks()) >= tuples,
                   message="every result written")
    finally:
        swarm.worker.stop()
    unheld = UpstreamDispatcher("f", send=lambda _to, _m: None,
                                config=PolicyConfig(policy=policy, seed=7),
                                edge="f>snk")
    unheld.set_downstreams(downstreams)
    expected = {data.seq: unheld.dispatch(data) for data in swarm.sent}
    placed = {seq: "snk@%s" % target for target in ("A", "C")
              for seq in swarm.result_seqs(target)}
    assert placed == expected
    # One frame per chosen downstream per flush: at most one result
    # frame in each write to A (the rest is the ACK), exactly one in each
    # write to C — and fewer frames than tuples.
    for _when, to, burst in swarm.fabric.writes:
        results = [m for m in burst if m.kind != messages.ACK]
        assert len(results) == 1 or (to == "A" and not results)
    assert len(swarm.results("A")) + len(swarm.results("C")) < tuples
    # Held frames are not configured batches: no batch-size histogram.
    assert not [h for h in swarm.registry.histograms()
                if h.name == metrics_mod.BATCH_SIZE]


def test_held_batches_stop_at_the_byte_cap():
    # Multi-MB tuples leave alone, as DATA frames; small ones are joined
    # up to HOLD_MAX_BATCH_BYTES, so no joined frame comes near the
    # largest frame TCP carries, however much one flush holds.
    assert 8 * HOLD_MAX_BATCH_BYTES <= channels.MAX_FRAME_BYTES
    sent = []
    dispatcher = UpstreamDispatcher("f", send=lambda _to, m: sent.append(m),
                                    config=PolicyConfig(policy="RR"),
                                    edge="f>snk",
                                    hold=lambda _dispatcher: True)
    dispatcher.set_downstreams(["snk@A"])
    sizes = [3 << 20, 100_000, 3 << 20] + [100_000] * 25
    blobs = [DataTuple(values={"blob": bytes(size)}, seq=seq)
             for seq, size in enumerate(sizes)]
    for data in blobs:
        assert dispatcher.dispatch(data) is None  # held
    dispatcher.flush_held()
    assert [seq for message in sent for seq in _seqs(message)] \
        == list(range(len(sizes)))
    assert [(m.kind, len(_seqs(m))) for m in sent] == [
        (messages.DATA, 1), (messages.DATA, 1), (messages.DATA, 1),
        (messages.BATCH, 10), (messages.BATCH, 10), (messages.BATCH, 5)]
    for message in sent[3:]:
        assert len(message.payload["batch"]) <= HOLD_MAX_BATCH_BYTES


def test_large_held_tuples_cross_tcp_and_the_loop_survives(monkeypatch):
    # Joined whole, a flush of these results would be one BATCH of
    # several MB, which TCP refuses past MAX_FRAME_BYTES (lowered here
    # to keep the test small; the byte cap stays far below either).
    monkeypatch.setattr(channels, "MAX_FRAME_BYTES", 2 << 20)
    sizes = ([3 << 19, 3 << 19] + [200_000] * 3) * 3
    calls, sent = [], []
    registry = metrics_mod.MetricsRegistry()
    fabric_a, fabric_b = TcpFabric("A"), TcpFabric("B")
    fabric_a.learn("B", fabric_b.address)
    fabric_b.learn("A", fabric_a.address)
    inbox = fabric_a.register("A")
    worker = WorkerRuntime("B", fabric_b, _graph(calls, sent), policy="RR",
                           registry=registry)
    try:
        fabric_a.send("A", "B", messages.deploy_message(
            "B", ["f"], {"f>snk": ["snk@A"]}))
        for seq, size in enumerate(sizes):
            fabric_a.send("A", "B", _data_frame(seq, {"blob": bytes(size)}))
        # Everything is queued before the loop starts: it serves under
        # load and holds what it emits.
        wait_until(lambda: len(worker.mailbox) == len(sizes) + 1,
                   message="every tuple queued at B")
        worker.start()
        results, seqs, acks = [], [], []

        def take(count):
            while len(seqs) < count or len(acks) < count:
                _sender, message = inbox.get(timeout=5.0)
                if message.kind == messages.ACK:
                    acks.extend(_acked(message))
                else:
                    results.append(message)
                    seqs.extend(_seqs(message))

        take(len(sizes))
        assert sorted(seqs) == sorted(acks) == list(range(len(sizes)))
        assert messages.BATCH in [m.kind for m in results]
        # The loop is still serving.
        late = len(sizes)
        fabric_a.send("A", "B", _data_frame(late, {"blob": b"late"}))
        take(late + 1)
        assert _seqs(results[-1]) == [late]
        assert registry.values_by_label(metrics_mod.DROPPED_TOTAL,
                                        "reason") == {}
    finally:
        worker.stop()
        fabric_a.close()
        fabric_b.close()


@pytest.mark.parametrize("batching, value_type", [
    (None, bytes), (BatchConfig(8, 0.005), memoryview)])
def test_units_see_the_same_value_types_whatever_the_load(batching,
                                                          value_type):
    # A held BATCH on an unbatched edge hands its unit ``bytes``, as a
    # DATA frame does; only configured batching opts into zero-copy.
    fabric = InProcFabric()
    fabric.register("A")
    worker = WorkerRuntime(
        "C", fabric, _graph([], []),
        policy_config=PolicyConfig(policy="RR", batching=batching))
    fabric.send("A", "C", messages.deploy_message("C", ["snk"], {}))
    fabric.send("A", "C", _data_frame(0, {"blob": b"zero"}, "snk", "f>snk"))
    payloads = [encode_tuple(DataTuple(values={"blob": b"m%d" % seq},
                                       seq=seq)) for seq in (1, 2)]
    batch = messages.batch_message("snk", encode_batch(payloads), [1, 2],
                                   time.monotonic())
    batch.payload["edge"] = "f>snk"
    fabric.send("A", "C", batch)
    worker.start()
    try:
        sink = worker.unit("snk")
        wait_until(lambda: len(sink.results) == 3, message="3 results")
        types = [type(data.values["blob"]) for data in sink.results]
        assert types == [bytes, value_type, value_type]
        assert [bytes(data.values["blob"]) for data in sink.results] \
            == [b"zero", b"m1", b"m2"]
    finally:
        worker.stop()


class _DropFirstWrites(_RecordingFabric):
    """Records like its base over a ChaosFabric, and drops exactly the
    first write on each link of *links*, one link after the other.  The
    link's chaos changes on the sending thread right after that write,
    so no timer can race it: the next link is armed only once the
    previous one has dropped its write."""

    def __init__(self, chaos: ChaosFabric, links) -> None:
        super().__init__(chaos)
        self._chaos = chaos
        self._links = list(links)
        self._lock = threading.Lock()
        chaos.set_link(*self._links[0], LinkChaos(drop=1.0))

    def _after(self, sender_id, target_id):
        with self._lock:
            if self._links and (sender_id, target_id) == self._links[0]:
                self._chaos.set_link(sender_id, target_id, LinkChaos())
                self._links.pop(0)
                if self._links:
                    self._chaos.set_link(*self._links[0],
                                         LinkChaos(drop=1.0))

    def send(self, sender_id, target_id, message):
        super().send(sender_id, target_id, message)
        self._after(sender_id, target_id)

    def send_many(self, sender_id, target_id, burst):
        super().send_many(sender_id, target_id, burst)
        self._after(sender_id, target_id)


def test_a_dropped_held_batch_is_redelivered_whole_and_deduped(monkeypatch):
    # The premise is that B's four results leave as ONE held BATCH.  Any
    # flush point between them splits it, both frames are dropped, and
    # the drop count passes 1 for good: a control round (the loop ticks
    # between messages), or a unit call that took > HOLD_MAX_UNIT_S,
    # which a GC pass or a GIL wait inside the call is enough for.  So
    # the tuples arrive in one BATCH, and no unit call counts as slow.
    monkeypatch.setattr(worker_mod, "HOLD_MAX_UNIT_S", float("inf"))
    tuples = 4
    calls, sent = [], []
    graph = _graph(calls, sent)
    registry = metrics_mod.MetricsRegistry()
    chaos = ChaosFabric(InProcFabric(), registry=registry)
    # The held BATCH is lost on its way to C; then the echo of its
    # first redelivery is lost on its way back, so the second
    # redelivery reaches a receiver that already has every member.
    fabric = _DropFirstWrites(chaos, [("B", "C"), ("C", "B")])
    fabric.register("A")
    delivery = DeliveryConfig(mode=AT_LEAST_ONCE, redelivery_timeout=0.2)
    workers = {worker_id: WorkerRuntime(worker_id, fabric, graph,
                                        policy="RR", control_interval=0.05,
                                        delivery=delivery, registry=registry)
               for worker_id in ("B", "C")}
    fabric.send("A", "C", messages.deploy_message("C", ["snk"], {}))
    fabric.send("A", "B", messages.deploy_message(
        "B", ["f"], {"f>snk": ["snk@C"]}))
    batch = messages.batch_message(
        "f", encode_batch([encode_tuple(DataTuple(values={"x": seq},
                                                  seq=seq))
                           for seq in range(tuples)]),
        list(range(tuples)), time.monotonic())
    batch.payload["edge"] = "src>f"
    fabric.send("A", "B", batch)

    def chaos_drops(link):
        return registry.value(metrics_mod.DROPPED_TOTAL,
                              reason="chaos_drop", link=link)

    for worker in workers.values():
        worker.start()
    # Each loop applies its DEPLOY asynchronously; ask for what it
    # creates only once it has.
    wait_until(lambda: all(w.deployed.is_set() for w in workers.values()),
               message="both workers deployed")
    sink = workers["C"].unit("snk")
    dispatcher = workers["B"].dispatcher("f", "snk")
    try:
        wait_until(lambda: len(sink.results) == tuples
                   and chaos_drops("C>B") == 1,
                   message="the redelivery served, its echo dropped")
        wait_until(lambda: dispatcher.controller.replay_depth() == 0,
                   message="the batch released")
        assert chaos_drops("B>C") == 1
        to_c = [m for _when, to, burst in fabric.writes if to == "C"
                for m in burst]
        assert [m.kind for m in to_c] == [messages.BATCH] * len(to_c)
        assert all(_seqs(m) == list(range(tuples)) for m in to_c)
        assert [m.payload.get("delivery_attempt", 1) for m in to_c] \
            == list(range(1, len(to_c) + 1))
        assert len(to_c) >= 3
        assert sorted(sink.sequences()) == list(range(tuples))
        deduped = registry.value(metrics_mod.DEDUPED_TOTAL, queue="worker:C")
        assert deduped == tuples * (len(to_c) - 2)
    finally:
        for worker in workers.values():
            worker.stop()
