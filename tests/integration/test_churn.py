"""Churn resilience: at-least-once replay, dedup, drain, and parity.

The delivery-semantics guarantee matrix under membership churn:

- **at-least-once × crash**: every tuple created well before the end of
  the run reaches the sink exactly once (replay redelivers, the sink
  dedup window absorbs duplicates) — zero end-to-end loss, zero counted
  drops.
- **best-effort × crash**: the same seeded churn trace loses tuples,
  and every loss is *counted* (a drop reason), exactly as the seed
  behaved — the new machinery stays out of the way.
- **graceful leave**: the LEAVING drain protocol loses nothing even
  with redelivery disabled, and the drain duration is observable.
- **bounds**: the replay buffer never exceeds its cap and every
  eviction is counted — no silent loss channel.

Plus the substrate-parity contract: a seeded churn trace replayed at
the controller level through the threaded runtime's dispatcher and the
engine adapter produces identical redelivery decisions and counters.
"""

import heapq
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.faults import LEAVE, REJOIN, FaultEvent, FaultSchedule
from repro.core.function_unit import CollectingSink, IterableSource, LambdaUnit
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
from repro.runtime.chaos import ChurnHarness
from repro.runtime.dispatcher import UpstreamDispatcher
from repro.simulation import scenarios
from repro.simulation.control import EngineEgress, engine_controller
from repro.simulation.engine import Simulator
from repro.simulation.swarm import run_swarm

from tests.integration.waiting import wait_quiescent, wait_until

SEED = 7
DURATION = 40.0
SETTLE = 10.0
#: judge loss only for frames old enough that redelivery had time to land
HORIZON = DURATION - SETTLE / 2.0


@pytest.fixture(scope="module")
def at_least_once():
    return run_swarm(scenarios.churn(seed=SEED, duration=DURATION,
                                     settle=SETTLE))


@pytest.fixture(scope="module")
def best_effort():
    return run_swarm(scenarios.churn(seed=SEED, duration=DURATION,
                                     settle=SETTLE, at_least_once=False))


class TestAtLeastOnceSoak:
    """scenarios.churn seed 7: one graceful leave, one kill, two rejoins."""

    def test_schedule_mixes_kill_and_leave(self, at_least_once):
        actions = [event.action for event in at_least_once.config.schedule]
        assert "kill" in actions and "leave" in actions

    def test_zero_tuple_loss(self, at_least_once):
        assert at_least_once.frames_lost == 0
        assert at_least_once.end_to_end_losses(HORIZON) == []

    def test_crash_recovered_by_redelivery(self, at_least_once):
        # The killed worker held un-ACKed frames; they were replayed to
        # survivors rather than lost.
        assert at_least_once.redelivered > 0

    def test_sink_never_double_counts(self, at_least_once):
        # Dedup absorbed whatever duplicates redelivery produced; the
        # throughput the sink reports counts each seq at most once.
        frames = at_least_once.metrics.frames
        arrived = [seq for seq, record in frames.items()
                   if record.sink_arrived_at is not None]
        assert len(arrived) == len(set(arrived))
        assert at_least_once.deduped >= 0  # counted, not silently eaten

    def test_graceful_drain_observed(self, at_least_once):
        leavers = {event.target for event in at_least_once.config.schedule
                   if event.action == "leave"}
        assert leavers  # schedule degenerating would void this test
        for device_id in leavers:
            assert device_id in at_least_once.drain_seconds
            assert at_least_once.drain_seconds[device_id] >= 0.0

    def test_replay_buffer_within_cap(self, at_least_once):
        capacity = at_least_once.config.policy_config.delivery.replay_capacity
        assert at_least_once.replay_depth_end <= capacity


class TestBestEffortUnchanged:
    """Same seeded trace without the tentpole: seed loss accounting."""

    def test_churn_loses_tuples_and_counts_them(self, best_effort):
        assert best_effort.frames_lost > 0
        # Every loss carries a drop reason; nothing vanished silently.
        assert best_effort.end_to_end_losses(HORIZON) == []

    def test_delivery_machinery_stays_cold(self, best_effort):
        assert best_effort.redelivered == 0
        assert best_effort.deduped == 0
        assert best_effort.replay_depth_end == 0
        assert best_effort.replay_evicted_by_reason == {}

    def test_at_least_once_recovers_what_best_effort_loses(
            self, at_least_once, best_effort):
        # The whole point of the guarantee matrix in one assertion: the
        # identical churn trace flips from lossy to lossless.
        assert best_effort.frames_lost > 0
        assert at_least_once.frames_lost == 0


class TestGracefulDrainOnly:
    def test_drain_alone_loses_nothing_without_redelivery(self):
        # Satellite: graceful leave must be lossless even in best-effort
        # mode — the drain protocol, not replay, carries the guarantee.
        config = scenarios.churn(seed=SEED, duration=DURATION, settle=SETTLE,
                                 at_least_once=False)
        config.schedule = FaultSchedule(events=(
            FaultEvent(12.0, LEAVE, "G"),
            FaultEvent(20.0, REJOIN, "G"),
        ))
        result = run_swarm(config)
        assert result.frames_lost == 0
        assert result.end_to_end_losses(HORIZON) == []
        assert result.drain_seconds.get("G", -1.0) >= 0.0
        assert result.registry.histogram(metrics_mod.DRAIN_SECONDS,
                                         device="G").count >= 1


class TestReplayBounded:
    def test_tiny_buffer_evicts_loudly_never_silently(self):
        config = scenarios.churn(seed=SEED, duration=DURATION, settle=SETTLE,
                                 replay_capacity=4)
        result = run_swarm(config)
        assert result.replay_depth_end <= 4
        evicted = sum(result.replay_evicted_by_reason.values())
        # A frame can only go missing end-to-end by being evicted from
        # the replay buffer (counted) or still being retained at cutoff.
        losses = result.end_to_end_losses(HORIZON)
        assert len(losses) <= evicted + result.replay_depth_end


# ---------------------------------------------------------------------------
# Substrate parity: one churn trace, controller-level, both adapters.
# ---------------------------------------------------------------------------

DOWNSTREAMS = ("det@B", "det@C", "det@D")
ACK_DELAY = {"det@B": 0.071, "det@C": 0.173, "det@D": 0.059}
PROCESSING_DELAY = {"det@B": 0.031, "det@C": 0.083, "det@D": 0.027}
PARITY_DURATION = 12.0
FRAME_GAP = 0.04
ARRIVAL_OFFSET = 0.013
#: det@D stops ACKing here, so un-ACKed tuples are retained for it...
SILENT_FROM = 4.0
#: ...until it is removed (crash observed) and replay redelivers them
KILL_AT = 4.5
REJOIN_AT = 8.25

PARITY_DELIVERY = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=512,
                                 dedup_window=256, max_delivery_attempts=4)
PARITY_CONFIG = PolicyConfig(policy="LRS", seed=7, ack_timeout=0.5,
                             dead_after=2, control_interval=1e9,
                             delivery=PARITY_DELIVERY)


def _arrival_times():
    return [FRAME_GAP * i + ARRIVAL_OFFSET
            for i in range(int(PARITY_DURATION / FRAME_GAP))
            if FRAME_GAP * i + ARRIVAL_OFFSET < PARITY_DURATION]


def _tick_times():
    return [float(tick) for tick in range(1, int(PARITY_DURATION) + 1)]


def _silent(downstream_id, sent_at):
    return (downstream_id == "det@D" and sent_at >= SILENT_FROM)


def _counter_views(registry):
    views = {}
    for name in (metrics_mod.SENT_TOTAL, metrics_mod.ACKED_TOTAL,
                 metrics_mod.LOST_TOTAL, metrics_mod.MARKED_DEAD_TOTAL,
                 metrics_mod.REDELIVERED_TOTAL):
        views[name] = registry.values_by_label(name, "downstream")
    views[metrics_mod.REPLAY_EVICTED_TOTAL] = registry.values_by_label(
        metrics_mod.REPLAY_EVICTED_TOTAL, "reason")
    return views


def _run_runtime_side():
    """The real UpstreamDispatcher under a heapq mini event loop."""

    class FakeClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    clock = FakeClock()
    registry = metrics_mod.MetricsRegistry()
    events = []
    order = [0]

    def push(when, kind, payload=None):
        heapq.heappush(events, (when, order[0], kind, payload))
        order[0] += 1

    def fabric_send(worker_id, message):
        # Redeliveries are visible here (initial sends schedule their
        # ACK from the dispatch return value, mirroring the sim side).
        if message.payload.get("delivery_attempt", 1) > 1:
            instance = "det@%s" % worker_id
            push(clock.now + ACK_DELAY[instance], "ack",
                 (message.payload["seq"], PROCESSING_DELAY[instance]))

    dispatcher = UpstreamDispatcher("det", send=fabric_send, clock=clock,
                                    registry=registry, config=PARITY_CONFIG)
    dispatcher.set_downstreams(DOWNSTREAMS)

    for when in _arrival_times():
        push(when, "tuple")
    for when in _tick_times():
        push(when, "tick")
    push(KILL_AT, "kill")
    push(REJOIN_AT, "rejoin")

    choices = []
    seq = 0
    while events:
        now, _, kind, payload = heapq.heappop(events)
        if now > PARITY_DURATION:
            break
        clock.now = now
        if kind == "tuple":
            data = DataTuple(values={"frame": seq}, seq=seq, created_at=now)
            seq += 1
            chosen = dispatcher.dispatch(data)
            choices.append(chosen)
            if chosen is not None and not _silent(chosen, now):
                push(now + ACK_DELAY[chosen], "ack",
                     (data.seq, PROCESSING_DELAY[chosen]))
        elif kind == "ack":
            ack_seq, processing_delay = payload
            dispatcher.on_ack(ack_seq, processing_delay)
        elif kind == "kill":
            dispatcher.remove_downstream("det@D")
        elif kind == "rejoin":
            dispatcher.add_downstream("det@D")
        else:
            dispatcher.force_update()

    return (choices, _counter_views(registry),
            dispatcher.controller.replay_depth())


def _run_sim_side():
    """The engine adapter on a bare Simulator, same trace."""
    sim = Simulator()
    registry = metrics_mod.MetricsRegistry()
    controller = engine_controller(
        sim, PARITY_CONFIG, registry=registry, name="det",
        egress=EngineEgress(sim, lambda chosen, seq, context: sim.schedule(
            ACK_DELAY[chosen],
            lambda: controller.on_ack(
                seq, processing_delay=PROCESSING_DELAY[chosen],
                now=sim.now))))
    controller.set_downstreams(DOWNSTREAMS)

    choices = []
    state = {"seq": 0}

    def _arrive():
        seq = state["seq"]
        state["seq"] += 1
        now = sim.now
        controller.observe_arrival(now)
        chosen = controller.dispatch(seq, context=b"frame")
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
    sim.schedule(KILL_AT, lambda: controller.remove_downstream("det@D"))
    sim.schedule(REJOIN_AT, lambda: controller.add_downstream("det@D"))
    sim.run(PARITY_DURATION)

    return choices, _counter_views(registry), controller.replay_depth()


class TestChurnParity:
    def test_trace_event_times_are_unique(self):
        times = list(_arrival_times()) + list(_tick_times())
        times += [KILL_AT, REJOIN_AT]
        for arrival in _arrival_times():
            for delay in ACK_DELAY.values():
                times.append(round(arrival + delay, 6))
        assert len(times) == len(set(times))

    def test_trace_exercises_redelivery(self):
        _, counters, depth = _run_sim_side()
        redelivered = counters[metrics_mod.REDELIVERED_TOTAL]
        assert sum(redelivered.values()) > 0
        # Only the in-flight tail (sent < one ACK delay before cutoff)
        # may still be retained; everything older was ACKed or replayed.
        assert depth <= 8

    def test_both_substrates_redeliver_identically(self):
        runtime_choices, runtime_counters, runtime_depth = _run_runtime_side()
        sim_choices, sim_counters, sim_depth = _run_sim_side()
        assert runtime_choices == sim_choices
        assert runtime_counters == sim_counters
        assert runtime_depth == sim_depth


# ---------------------------------------------------------------------------
# Threaded runtime under the chaos harness (wall-clock, bounded stream).
# ---------------------------------------------------------------------------

RUNTIME_TUPLES = 120


def _runtime(delivery=None, sleep_per_tuple=0.01):
    def work(value):
        time.sleep(sleep_per_tuple)  # real service time → a real backlog
        return {"y": value["x"] * 2}

    graph = (GraphBuilder("churn-app")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(RUNTIME_TUPLES)]))
             .unit("double", lambda: LambdaUnit(work))
             .sink("snk", CollectingSink)
             .chain("src", "double", "snk")
             .build())
    registry = metrics_mod.MetricsRegistry()
    runtime = SwingRuntime(graph, worker_ids=["B", "C"], source_rate=100.0,
                           config=PolicyConfig(
                               policy="RR", seed=3,
                               control_interval=CONTROL_INTERVAL,
                               delivery=delivery),
                           registry=registry, heartbeat_interval=0.1,
                           heartbeat_timeout=0.6)
    return runtime, registry


def _await_sink(sink, expected, timeout=40.0):
    wait_until(
        lambda: len({data.seq for data in sink.results}) >= expected,
        timeout=timeout, poll=0.05,
        message="%d distinct seqs at the sink" % expected)
    # Stragglers (duplicate redeliveries) may still be in flight; wait
    # for the sink to go quiet instead of a fixed grace sleep.
    wait_quiescent(lambda: len(sink.results))
    return [data.seq for data in sink.results]


class TestRuntimeChurn:
    def test_crash_and_rejoin_lose_nothing_at_least_once(self):
        delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=512,
                                  dedup_window=2048, redelivery_timeout=0.4)
        runtime, registry = _runtime(delivery=delivery, sleep_per_tuple=0.02)
        runtime.start()
        try:
            sink = runtime.sink_unit()
            # Mid-stream: B holds un-ACKed in-flight tuples when it dies.
            wait_until(lambda: len(sink.results) >= 10,
                       message="an in-flight backlog before the crash")
            runtime.crash_worker("B")
            # Keep B down until the master has noticed the silence —
            # the scenario is crash-detect-redeliver, not a blip.
            wait_until(lambda: "B" not in runtime.master.pool.worker_ids,
                       message="the master detecting B's crash")
            runtime.spawn_worker("B")
            got = _await_sink(sink, RUNTIME_TUPLES)
        finally:
            runtime.stop()
        missing = sorted(set(range(RUNTIME_TUPLES)) - set(got))
        assert missing == []
        # The dedup window (2048 >> stream length) sees every duplicate
        # redelivery produces, so none reach the sink.
        assert len(got) == len(set(got)) == RUNTIME_TUPLES

    def test_drain_and_rejoin_lose_nothing_best_effort(self):
        # Redelivery disabled: the LEAVING protocol alone carries it.
        runtime, registry = _runtime(delivery=None, sleep_per_tuple=0.01)
        runtime.start()
        try:
            sink = runtime.sink_unit()
            schedule = FaultSchedule(events=(
                FaultEvent(0.5, LEAVE, "B"),
                FaultEvent(1.6, REJOIN, "B")))
            harness = ChurnHarness(runtime, schedule)
            harness.run()
            got = _await_sink(sink, RUNTIME_TUPLES)
        finally:
            runtime.stop()
        assert sorted(set(got)) == list(range(RUNTIME_TUPLES))
        assert harness.drain_seconds["B"] > 0.0
        assert [event.action for event, _ in harness.applied] == [
            "leave", "rejoin"]
        assert registry.histogram(metrics_mod.DRAIN_SECONDS,
                                  device="B").count >= 1
