"""Replay-buffer byte-bound evictions during a long partition must be
loud (counted under ``swing_replay_evicted_total{reason=bytes}``) and
the invariant checker must classify them as *accounted* loss — never
silent, never double-booked."""

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, EVICT_BYTES, DeliveryConfig
from repro.core.faults import HEAL, PARTITION, FaultEvent
from repro.simulation import scenarios
from repro.simulation.swarm import SwarmSimulation
from repro.verify import adapters
from repro.verify.invariants import InvariantChecker
from repro.verify.schedule import FaultSchedule, ScheduleSpec

#: one captured frame's weight against the replay byte bound
FRAME_BYTES = scenarios.workload_for_app(adapters.FACE_APP).frame_bytes


def partition_schedule() -> FaultSchedule:
    """Cut every source link for 12 simulated seconds, then heal."""
    spec = ScheduleSpec()
    events = []
    for atom, worker in enumerate(spec.workers):
        link = "%s>%s" % (spec.source_id, worker)
        events.append(FaultEvent(time=8.0 + 0.1 * atom,
                                 action=PARTITION, target=link,
                                 atom=atom))
        events.append(FaultEvent(time=20.0 + 0.1 * atom,
                                 action=HEAL, target=link,
                                 atom=atom))
    schedule = FaultSchedule(events=tuple(events), spec=spec)
    schedule.validate()
    return schedule


def run_partitioned(replay_bytes):
    delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=4096,
                              replay_bytes=replay_bytes,
                              max_delivery_attempts=99,
                              redelivery_timeout=8.0,
                              dedup_window=8192)
    schedule = partition_schedule()
    sim = SwarmSimulation(adapters.build_sim_config(schedule,
                                                    delivery=delivery))
    result = sim.run()
    return result, adapters.history_from_sim(schedule, sim, result)


class TestByteBoundEvictions:
    def test_byte_bound_evictions_are_loud(self):
        result, _history = run_partitioned(replay_bytes=FRAME_BYTES * 4)
        by_reason = dict(result.replay_evicted_by_reason)
        assert by_reason.get(EVICT_BYTES, 0) > 0, \
            "12s partition under a 4-frame replay bound evicted nothing: %r" \
            % by_reason
        # The counter carries an edge label too — loss is attributable.
        by_edge = result.registry.values_by_label(
            metrics_mod.REPLAY_EVICTED_TOTAL, "edge")
        assert sum(by_edge.values()) >= by_reason[EVICT_BYTES]

    def test_checker_classifies_evictions_as_accounted_loss(self):
        result, history = run_partitioned(replay_bytes=FRAME_BYTES * 4)
        assert dict(result.replay_evicted_by_reason).get(EVICT_BYTES, 0) > 0
        violations = InvariantChecker().check(history)
        assert violations == [], \
            [violation.message for violation in violations]

    def test_unbounded_buffer_never_evicts_by_bytes(self):
        result, history = run_partitioned(replay_bytes=None)
        assert EVICT_BYTES not in dict(result.replay_evicted_by_reason)
        assert InvariantChecker().check(history) == []

    def test_silencing_the_counter_trips_conservation(self):
        # Teeth: if the evictions were NOT counted, the same run would
        # be a conservation violation — the budget is exactly the loud
        # eviction count, nothing slacker.
        _result, history = run_partitioned(replay_bytes=FRAME_BYTES * 4)
        for ledger in history.tenants.values():
            ledger.evictions = 0
        history.evict_reasons = {}
        fired = {violation.invariant
                 for violation in InvariantChecker().check(history)}
        assert "tuple_conservation" in fired \
            or "at_least_once_completeness" in fired


class TestRuntimeRetention:
    def test_worker_held_retained_seq_is_counted(self):
        # A worker's ``work>snk`` dispatcher retains results the sink has
        # not ACKed; the runtime history must count them as retained,
        # not leave them with no disposition.
        from repro.core.function_unit import (CollectingSink,
                                              IterableSource, LambdaUnit)
        from repro.core.graph import GraphBuilder
        from repro.core.recovery import RetainedEntry
        from repro.core.tuples import DataTuple
        from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
        from repro.runtime.serialization import encode_tuple

        graph = (GraphBuilder("held")
                 .source("src", lambda: IterableSource(
                     [{"x": i} for i in range(3)]))
                 .unit("work", lambda: LambdaUnit(lambda v: {"y": v["x"]}))
                 .sink("snk", CollectingSink)
                 .chain("src", "work", "snk")
                 .build())
        runtime = SwingRuntime(graph, ["B"], source_rate=100.0,
                               config=PolicyConfig(
                                   control_interval=CONTROL_INTERVAL,
                                   delivery=DeliveryConfig(
                                       mode=AT_LEAST_ONCE)))
        runtime.start()
        runtime.stop()
        frame = encode_tuple(DataTuple(values={"y": 1}, seq=777))
        assert runtime.workers["B"].import_retention("work>snk", [
            RetainedEntry(seq=777, attempt=1, deadline=None,
                          frame=frame)]) == 1
        assert 777 in adapters.runtime_retained(runtime)
