"""Sim/real parity: one recorded trace, two substrates, identical policy.

The tentpole guarantee of the shared control plane: the discrete-event
simulator and the threaded runtime are *adapters* over the same
:class:`~repro.core.controller.LrsController`, so replaying one
tuple+ACK trace through both must yield byte-identical policy behavior —
the same per-tuple routing choices, the same update-round decisions
(selected set, routing weights, probe flags, bit-for-bit float equality),
the same loss accounting, dead-marks and resurrections.

The trace exercises the whole control loop: 25 fps arrivals over three
downstreams, one of which goes silent mid-run (its in-flight tuples
expire, it is marked dead after ``dead_after`` expiry rounds) and later
recovers (a probe's ACK resurrects it).  All event timestamps are
distinct by construction, so event order is deterministic on both
substrates.
"""

import heapq

from repro import metrics as metrics_mod
from repro.core import migration
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.keyed import (MOVE_DRAIN, KeyedConfig, KeyRangeTable,
                              hash_key)
from repro.core.state import InMemoryStateStore
from repro.core.tuples import DataTuple
from repro.runtime.dispatcher import UpstreamDispatcher
from repro.runtime.serialization import decode_tuple
from repro.simulation.control import engine_controller, spend
from repro.simulation.engine import Simulator

DOWNSTREAMS = ("det@B", "det@C", "det@D")
#: per-downstream ACK echo delay, chosen so no two trace events collide
ACK_DELAY = {"det@B": 0.071, "det@C": 0.173, "det@D": 0.059}
PROCESSING_DELAY = {"det@B": 0.031, "det@C": 0.083, "det@D": 0.027}
DURATION = 12.0
FRAME_GAP = 0.04  # 25 fps
ARRIVAL_OFFSET = 0.013
#: det@D answers nothing for tuples SENT inside this window
SILENT_FROM, SILENT_UNTIL = 4.2, 7.7

#: a tight ACK timeout + threshold so the silence is detected mid-trace
CONFIG = PolicyConfig(policy="LRS", seed=7, ack_timeout=0.5, dead_after=2,
                      control_interval=1e9)  # updates driven explicitly


def _arrival_times():
    return [FRAME_GAP * i + ARRIVAL_OFFSET
            for i in range(int(DURATION / FRAME_GAP))
            if FRAME_GAP * i + ARRIVAL_OFFSET < DURATION]


def _tick_times():
    return [float(tick) for tick in range(1, int(DURATION) + 1)]


def _silent(downstream_id, sent_at):
    return (downstream_id == "det@D"
            and SILENT_FROM <= sent_at < SILENT_UNTIL)


def _canonical_decisions(decisions):
    return [(when, tuple(sorted(decision.selected)),
             tuple(sorted(decision.weights.items())), decision.probing)
            for when, decision in decisions]


def _counter_views(registry):
    views = {}
    for name in (metrics_mod.SENT_TOTAL, metrics_mod.ACKED_TOTAL,
                 metrics_mod.LOST_TOTAL, metrics_mod.MARKED_DEAD_TOTAL,
                 metrics_mod.RESURRECTED_TOTAL):
        views[name] = registry.values_by_label(name, "downstream")
    views[metrics_mod.POLICY_UPDATES_TOTAL] = registry.values_by_label(
        metrics_mod.POLICY_UPDATES_TOTAL, "edge")
    return views


class _Trace:
    """One substrate's observable policy behavior on the shared trace."""

    def __init__(self, choices, decisions, counters, dead):
        self.choices = choices
        self.decisions = decisions
        self.counters = counters
        self.dead = dead


def _run_runtime_side():
    """Replay the trace through the real UpstreamDispatcher.

    A heapq mini event loop stands in for the threads: arrivals and
    policy ticks are seeded up front, ACK echoes are pushed as tuples
    are dispatched.  The fabric send always succeeds instantly.
    """

    class FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    registry = metrics_mod.MetricsRegistry()
    dispatcher = UpstreamDispatcher("det", send=lambda target, message: None,
                                    clock=clock, registry=registry,
                                    config=CONFIG)
    dispatcher.set_downstreams(DOWNSTREAMS)

    events = []
    order = 0
    for when in _arrival_times():
        heapq.heappush(events, (when, order, "tuple", None))
        order += 1
    for when in _tick_times():
        heapq.heappush(events, (when, order, "tick", None))
        order += 1

    choices = []
    seq = 0
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if now > DURATION:  # the engine side stops at run(DURATION) too
            break
        clock.now = now
        if kind == "tuple":
            data = DataTuple(values={"frame": seq}, seq=seq, created_at=now)
            seq += 1
            chosen = dispatcher.dispatch(data)
            choices.append(chosen)
            if chosen is not None and not _silent(chosen, now):
                heapq.heappush(events,
                               (now + ACK_DELAY[chosen], order, "ack",
                                (data.seq, PROCESSING_DELAY[chosen])))
                order += 1
        elif kind == "ack":
            ack_seq, processing_delay = payload
            dispatcher.on_ack(ack_seq, processing_delay)
        else:
            dispatcher.force_update()

    return _Trace(choices, _canonical_decisions(dispatcher.controller.decisions),
                  _counter_views(registry),
                  dispatcher.controller.dead_downstreams())


def _run_sim_side():
    """Replay the trace through the engine adapter on a bare Simulator."""
    sim = Simulator()
    registry = metrics_mod.MetricsRegistry()
    controller = engine_controller(sim, CONFIG, registry=registry,
                                   name="det")
    controller.set_downstreams(DOWNSTREAMS)

    choices = []
    state = {"seq": 0}

    def _arrive():
        seq = state["seq"]
        state["seq"] += 1
        now = sim.now
        controller.observe_arrival(now)
        chosen = controller.dispatch(seq)
        choices.append(chosen)
        if chosen is not None and not _silent(chosen, now):
            sim.schedule(ACK_DELAY[chosen],
                         lambda chosen=chosen, seq=seq:
                         controller.on_ack(
                             seq,
                             processing_delay=PROCESSING_DELAY[chosen],
                             now=sim.now))

    for when in _arrival_times():
        sim.schedule(when, _arrive)
    for when in _tick_times():
        sim.schedule(when, lambda: controller.update(sim.now))
    sim.run(DURATION)

    return _Trace(choices, _canonical_decisions(controller.decisions),
                  _counter_views(registry), controller.dead_downstreams())


class TestSimRuntimeParity:
    def test_trace_event_times_are_unique(self):
        # The parity contract leans on deterministic event ordering.
        times = list(_arrival_times()) + list(_tick_times())
        for arrival in _arrival_times():
            for delay in ACK_DELAY.values():
                times.append(arrival + delay)
        assert len(times) == len(set(times))

    def test_trace_exercises_failure_detection(self):
        # Guard against the trace silently degenerating: the silent
        # window must actually kill det@D and probing must revive it.
        trace = _run_sim_side()
        assert trace.counters[metrics_mod.MARKED_DEAD_TOTAL] == {"det@D": 1}
        assert trace.counters[metrics_mod.RESURRECTED_TOTAL] == {"det@D": 1}
        assert trace.counters[metrics_mod.LOST_TOTAL].get("det@D", 0) > 0
        assert trace.dead == []  # resurrected before the run ended

    def test_both_substrates_make_identical_policy_decisions(self):
        runtime = _run_runtime_side()
        sim = _run_sim_side()
        assert runtime.choices == sim.choices
        assert runtime.decisions == sim.decisions  # exact float equality
        assert runtime.counters == sim.counters
        assert runtime.dead == sim.dead


# -- keyed trace with one mid-trace migration ---------------------------
#
# The same two adapters, now with a key table and at-least-once
# delivery, replay one keyed stream while det@B hands its range to
# det@C through ``repro.core.migration.migrate_range``.  Each side
# spends the protocol's waits its own way (a heap event per step / an
# engine timeout per step); everything the migration decides must agree.

KEYED_CONFIG = PolicyConfig(
    policy="RR", seed=7, control_interval=1e9,
    keyed=KeyedConfig(split_enabled=False),
    delivery=DeliveryConfig(mode=AT_LEAST_ONCE))
KEYED_DURATION = 3.0
KEY_COUNT = 16
#: off every arrival/ACK/service instant, so step order is unambiguous
MIGRATE_AT = 1.0071
DRAIN_QUIET, DRAIN_POLL = 0.10, 0.05


def _key(seq):
    return "user-%d" % (seq % KEY_COUNT)


class _KeyedWorker(migration.MigrationHost):
    """One downstream instance: serves a tuple for PROCESSING_DELAY,
    counting it into per-key state — the same object on both sides."""

    def __init__(self):
        self.store = InMemoryStateStore()
        self.serving = {}  # seq -> key

    def alive(self):
        return True

    def busy(self, key_range=None):
        return any(key_range is None or key_range.contains(hash_key(key))
                   for key in self.serving.values())

    def state_store(self, unit, tenant=""):
        return self.store

    def finish(self, seq):
        key = self.serving.pop(seq)
        state = self.store.load(key) or {"count": 0, "seqs": []}
        self.store.store(key, {"count": state["count"] + 1,
                               "seqs": state["seqs"] + [seq]})


class _KeyedTrace:
    def __init__(self, controller, registry, workers, parked, redelivered,
                 moved):
        self.table = controller.key_table.snapshot()
        self.parked = parked
        self.redelivered = redelivered
        self.moved = moved
        self.moves = registry.values_by_label(
            metrics_mod.KEY_RANGE_MOVES_TOTAL, "reason")
        self.migrations = registry.histogram(
            metrics_mod.STATE_MIGRATION_SECONDS, edge="det").count
        self.states = {name: {key: worker.store.load(key)
                              for key in sorted(worker.store.keys())}
                       for name, worker in workers.items()}
        self.retained = controller.replay_depth()


def _migration_steps(controller, workers, registry):
    table = controller.key_table
    (b_range,) = table.ranges_owned_by("det@B")
    return migration.migrate_range(
        controller, b_range, workers["det@B"], workers["det@C"],
        "det@B", "det@C", "det", "", MOVE_DRAIN, quiet=DRAIN_QUIET,
        poll=DRAIN_POLL, registry=registry)


def _keyed_arrivals():
    # stop early enough for the last ACK to land inside the run
    return [when for when in _arrival_times() if when < KEYED_DURATION - 0.5]


def _run_keyed_runtime_side():
    clock_now = [0.0]
    registry = metrics_mod.MetricsRegistry()
    workers = {name: _KeyedWorker() for name in DOWNSTREAMS}
    events, order = [], [0]
    parked, redelivered, moved = [], [], []

    def push(when, kind, payload=None):
        heapq.heappush(events, (when, order[0], kind, payload))
        order[0] += 1

    def send(worker_id, message):
        # What the fabric would carry: the real DATA envelope.
        instance = "det@%s" % worker_id
        data = decode_tuple(message.payload["tuple"])
        if message.payload.get("delivery_attempt", 1) > 1:
            redelivered.append((data.seq, instance))
        workers[instance].serving[data.seq] = data.key
        now = clock_now[0]
        push(now + PROCESSING_DELAY[instance], "served",
             (instance, data.seq))
        push(now + ACK_DELAY[instance], "ack",
             (data.seq, PROCESSING_DELAY[instance]))

    dispatcher = UpstreamDispatcher("det", send=send,
                                    clock=lambda: clock_now[0],
                                    registry=registry, config=KEYED_CONFIG)
    dispatcher.set_downstreams(DOWNSTREAMS)
    dispatcher.controller.set_key_table(KeyRangeTable.bootstrap(DOWNSTREAMS))
    for seq, when in enumerate(_keyed_arrivals()):
        push(when, "tuple", seq)
    for when in _tick_times():
        push(when, "tick")
    push(MIGRATE_AT, "migrate")

    steps = None
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if now > KEYED_DURATION:
            break
        clock_now[0] = now
        if kind == "tuple":
            data = DataTuple(values={"frame": payload}, seq=payload,
                             created_at=now, key=_key(payload))
            if dispatcher.dispatch(data) is None:
                parked.append(payload)
        elif kind == "served":
            workers[payload[0]].finish(payload[1])
        elif kind == "ack":
            dispatcher.on_ack(*payload)
        elif kind == "tick":
            dispatcher.force_update()
        else:
            if kind == "migrate":
                steps = _migration_steps(dispatcher.controller, workers,
                                         registry)
            try:
                push(now + next(steps), "step")
            except StopIteration as done:
                moved.append(done.value)
    return _KeyedTrace(dispatcher.controller, registry, workers, parked,
                       redelivered, moved)


def _run_keyed_sim_side():
    sim = Simulator()
    registry = metrics_mod.MetricsRegistry()
    workers = {name: _KeyedWorker() for name in DOWNSTREAMS}
    parked, redelivered, moved = [], [], []

    def deliver(seq, instance):
        workers[instance].serving[seq] = _key(seq)
        sim.schedule(PROCESSING_DELAY[instance],
                     lambda: workers[instance].finish(seq))
        sim.schedule(ACK_DELAY[instance],
                     lambda: controller.on_ack(
                         seq, processing_delay=PROCESSING_DELAY[instance],
                         now=sim.now))

    def on_redeliver(seq, instance, _context, _attempt):
        redelivered.append((seq, instance))
        deliver(seq, instance)

    controller = engine_controller(sim, KEYED_CONFIG, registry=registry,
                                   name="det", redelivery=on_redeliver)
    controller.set_downstreams(DOWNSTREAMS)
    controller.set_key_table(KeyRangeTable.bootstrap(DOWNSTREAMS))

    def _arrive(seq):
        controller.observe_arrival(sim.now)
        chosen = controller.dispatch(seq, context=("frame", seq),
                                     key_hash=hash_key(_key(seq)))
        if chosen is None:
            parked.append(seq)
        else:
            deliver(seq, chosen)

    def _migrate():
        moved.append((yield from spend(
            sim, _migration_steps(controller, workers, registry))))

    for seq, when in enumerate(_keyed_arrivals()):
        sim.schedule(when, lambda seq=seq: _arrive(seq))
    for when in _tick_times():
        sim.schedule(when, lambda: controller.update(sim.now))
    sim.schedule(MIGRATE_AT, lambda: sim.process(_migrate()))
    sim.run(KEYED_DURATION)
    return _KeyedTrace(controller, registry, workers, parked, redelivered,
                       moved)


class TestMigrationParity:
    def test_trace_exercises_the_hand_off(self):
        # Guard against degenerating: the range must drain while busy,
        # park tuples, move state, and redeliver what it parked.
        trace = _run_keyed_sim_side()
        assert trace.moves == {MOVE_DRAIN: 1}
        assert trace.migrations == 1
        assert trace.moved and trace.moved[0] > 0
        assert trace.parked
        assert [seq for seq, _ in trace.redelivered] == trace.parked
        assert {owner for _, owner in trace.redelivered} == {"det@C"}
        assert "det@B" not in {owner for _lo, _hi, owner in trace.table}
        assert not trace.states["det@B"]
        assert trace.retained == 0

    def test_both_substrates_migrate_identically(self):
        runtime = _run_keyed_runtime_side()
        sim = _run_keyed_sim_side()
        assert runtime.table == sim.table
        assert runtime.parked == sim.parked
        assert runtime.redelivered == sim.redelivered
        assert runtime.moved == sim.moved
        assert runtime.moves == sim.moves
        assert runtime.migrations == sim.migrations
        assert runtime.states == sim.states
        assert runtime.retained == sim.retained
