"""Chaos/soak tests for the overload-protection layer.

Drives the swarm into sustained overload (Lambda > sum of mu_i) with a
mid-run silent kill/revive, and requires graceful degradation instead of
collapse: bounded queue depths, no stale deliveries, monotone shed
counters, conservation of tuples, and latency/throughput recovery once
the background load lifts.  A parity harness replays one admission trace
through the runtime's Mailbox and the simulator's ingress path and
requires identical shedding decisions — both sides consult the same
:func:`repro.core.overload.admission` function.
"""

import statistics

import pytest

from repro import metrics as metrics_mod
from repro import profiles
from repro.core.faults import KILL, FaultEvent, FaultSchedule
from repro.core.overload import (DROP_NEWEST, DROP_OLDEST, OverloadConfig,
                                 REASON_BACKPRESSURE, REASON_EXPIRED,
                                 REASON_QUEUE_FULL)
from repro.runtime import messages
from repro.runtime.fabric import Mailbox
from repro.simulation import scenarios
from repro.simulation.swarm import (SwarmConfig, SwarmSimulation, _Frame,
                                    run_swarm)
from repro.simulation.workload import face_workload

OVERLOAD_UNTIL = 14.0
TTL = 2.0
QUEUE_CAPACITY = 8


@pytest.fixture(scope="module")
def soak():
    """One full chaos/soak run shared by the invariant assertions."""
    return run_swarm(scenarios.overload(seed=3, overload_until=OVERLOAD_UNTIL,
                                        ttl=TTL,
                                        queue_capacity=QUEUE_CAPACITY))


@pytest.mark.slow
class TestOverloadSoak:
    def test_queue_depths_stay_bounded(self, soak):
        ingress_depths = {name: depth
                          for name, depth in soak.max_queue_depths.items()
                          if name.startswith("ingress:")}
        assert len(ingress_depths) == 3  # every worker reported
        for name, depth in ingress_depths.items():
            assert depth <= QUEUE_CAPACITY, name
        egress = soak.max_queue_depths["egress:A"]
        capacity = soak.config.resolved_source_queue()
        assert egress <= capacity

    def test_tuple_conservation(self, soak):
        records = soak.metrics.frames.values()
        completed = sum(1 for record in records if record.completed)
        dropped = sum(1 for record in records if record.dropped is not None)
        in_flight = sum(1 for record in records
                        if record.sink_arrived_at is None
                        and record.dropped is None)
        assert completed + dropped + in_flight == soak.metrics.generated
        # Bounded memory: whatever was still in flight at the horizon
        # fits in the bounded queues plus the socket windows.
        assert in_flight <= 4 * QUEUE_CAPACITY
        assert completed > 0 and dropped > 0

    def test_no_delivered_tuple_exceeds_its_deadline(self, soak):
        delays = [record.total_delay
                  for record in soak.metrics.completed_frames()]
        assert delays
        assert max(delays) <= TTL + 1e-9

    def test_shed_counters_cover_the_overload(self, soak):
        # Sustained Lambda > sum(mu) with a 2 s TTL must shed stale work.
        assert soak.shed_by_reason.get(REASON_EXPIRED, 0) > 0
        # Every shed carries a known reason label.
        assert set(soak.shed_by_reason) <= {REASON_EXPIRED,
                                            REASON_QUEUE_FULL,
                                            REASON_BACKPRESSURE}

    def test_latency_recovers_after_the_load_drops(self, soak):
        completed = soak.metrics.completed_frames()
        early = [record.total_delay for record in completed
                 if 2.0 <= record.created_at < OVERLOAD_UNTIL]
        late = [record.total_delay for record in completed
                if record.created_at >= OVERLOAD_UNTIL + 2.0]
        assert early and late
        assert statistics.median(early) > 1.0  # deep in overload
        assert statistics.median(late) < 0.5   # recovered

    def test_throughput_recovers_after_the_load_drops(self, soak):
        window_start = OVERLOAD_UNTIL + 2.0
        window = soak.config.duration - window_start
        late = sum(1 for record in soak.metrics.completed_frames()
                   if record.created_at >= window_start)
        input_rate = soak.config.workload.input_rate
        assert late / window >= 0.9 * input_rate

    def test_mid_overload_kill_is_charged_to_the_killed_device(self, soak):
        assert soak.lost_by_downstream.get("G", 0) > 0
        # ...and the revive brought it back before the end of the run.
        assert "G" not in soak.dead_downstreams

    def test_queue_depth_gauges_exported(self, soak):
        depths = {gauge.labels.get("queue"): gauge.value
                  for gauge in soak.registry.gauges()
                  if gauge.name == metrics_mod.QUEUE_DEPTH}
        assert "egress:A" in depths
        assert any(name.startswith("ingress:") for name in depths)


@pytest.mark.slow
class TestShedBehaviors:
    def test_shed_counters_are_monotone(self):
        config = scenarios.overload(seed=3, duration=20.0, kill_id=None)
        swarm = SwarmSimulation(config)
        totals = []
        for tick in range(1, 21):
            swarm.sim.run(float(tick))
            by_reason = swarm.registry.values_by_label(
                metrics_mod.SHED_TOTAL, "reason")
            totals.append(sum(by_reason.values()))
        assert totals == sorted(totals)
        assert totals[-1] > 0

    def test_tiny_ingress_queues_shed_queue_full(self):
        result = run_swarm(scenarios.overload(seed=1, duration=12.0,
                                              overload_until=10.0,
                                              kill_id=None,
                                              queue_capacity=2))
        assert result.shed_by_reason.get(REASON_QUEUE_FULL, 0) > 0
        for name, depth in result.max_queue_depths.items():
            if name.startswith("ingress:"):
                assert depth <= 2, name

    def test_backpressure_depth_sheds_at_the_source(self):
        config = scenarios.overload(seed=1, duration=12.0,
                                    overload_until=10.0, kill_id=None)
        config.overload = OverloadConfig(ttl=TTL,
                                         queue_capacity=QUEUE_CAPACITY,
                                         backpressure_depth=4)
        result = run_swarm(config)
        assert result.shed_by_reason.get(REASON_BACKPRESSURE, 0) > 0

    def test_all_downstreams_dead_sheds_at_the_source(self):
        # Kill the only worker with no revive: once the tracker marks it
        # dead, dispatching would only manufacture guaranteed losses, so
        # the source must shed instead of generating doomed tuples.
        config = SwarmConfig(
            workload=face_workload(),
            workers=profiles.worker_profiles(["B"]),
            source=profiles.device_profile(profiles.SOURCE_ID),
            policy="LRS",
            duration=12.0,
            seed=0,
            ack_timeout=1.0,
            dead_after=2,
            schedule=FaultSchedule(events=(FaultEvent(4.0, KILL, "B"),)),
            overload=OverloadConfig(ttl=TTL, queue_capacity=QUEUE_CAPACITY),
        )
        result = run_swarm(config)
        assert "B" in result.dead_downstreams
        assert result.shed_by_reason.get(REASON_BACKPRESSURE, 0) > 0
        # Once shedding at source, no further losses pile up: sheds keep
        # the loss count bounded by what was in flight around the kill.
        shed = result.shed_by_reason[REASON_BACKPRESSURE]
        assert shed > result.lost_by_downstream.get("B", 0)


class TestSubstrateSheddingParity:
    """The runtime Mailbox and the simulator ingress must shed identically.

    Both consult :func:`repro.core.overload.admission`; replaying one
    put/get trace through each side must keep the same survivors in the
    same order — the property that makes simulator results transfer to
    the runtime under overload.
    """

    TRACE = ([("put", seq) for seq in range(4)]
             + [("get",), ("put", 4), ("put", 5), ("get",), ("get",),
                ("put", 6), ("put", 7), ("put", 8), ("get",), ("put", 9)])

    def _runtime_survivors(self, overload):
        mailbox = Mailbox("W", overload=overload,
                          registry=metrics_mod.MetricsRegistry())
        out = []
        for op in self.TRACE:
            if op[0] == "put":
                mailbox.put("A", messages.data_message("u", b"x", op[1], 0.0))
            else:
                out.append(mailbox.get(timeout=0.1)[1].payload["seq"])
        while len(mailbox):
            out.append(mailbox.get(timeout=0.1)[1].payload["seq"])
        return out

    def _sim_survivors(self, overload):
        config = scenarios.overload(worker_ids=("B",), kill_id=None,
                                    ttl=overload.ttl,
                                    queue_capacity=overload.queue_capacity,
                                    drop_policy=overload.drop_policy)
        swarm = SwarmSimulation(config)  # built, never run
        node = swarm.nodes["B"]
        out = []
        for op in self.TRACE:
            if op[0] == "put":
                swarm._ingress_put(node, _Frame(seq=op[1], created_at=0.0))
            else:
                out.append(node.ingress.try_get().seq)
        while True:
            frame = node.ingress.try_get()
            if frame is None:
                break
            out.append(frame.seq)
        return out

    @pytest.mark.parametrize("policy", [DROP_OLDEST, DROP_NEWEST])
    def test_identical_survivors_across_substrates(self, policy):
        overload = OverloadConfig(queue_capacity=3, drop_policy=policy)
        assert (self._runtime_survivors(overload)
                == self._sim_survivors(overload))

    def test_drop_oldest_keeps_the_newest_frames(self):
        overload = OverloadConfig(queue_capacity=3, drop_policy=DROP_OLDEST)
        survivors = self._runtime_survivors(overload)
        # Capacity 3: seq 0 is evicted by seq 3's arrival, and so on —
        # the exact survivor set is fully determined by the trace.
        assert survivors == self._sim_survivors(overload)
        assert survivors[0] != 0  # the oldest frame was shed
        assert 9 in survivors     # the newest frame always survives
