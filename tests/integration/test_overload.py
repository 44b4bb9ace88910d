"""Chaos/soak tests for the overload-protection layer.

Drives the swarm into sustained overload (Lambda > sum of mu_i) with a
mid-run silent kill/revive, and requires graceful degradation instead of
collapse: bounded queue depths, no stale deliveries, monotone shed
counters, conservation of tuples, and latency/throughput recovery once
the background load lifts.  A parity harness replays one admission trace
through the runtime's Mailbox and the simulator's ingress path and
requires identical shedding decisions — both sides sit on the same
:class:`repro.core.admission.AdmissionQueue`.
"""

import statistics
from dataclasses import replace

import pytest

from repro import metrics as metrics_mod
from repro import profiles
from repro.core.controller import PolicyConfig
from repro.core.faults import KILL, FaultEvent, FaultSchedule
from repro.core.multitenant import TenantSpec, tenant_budgets
from repro.core.overload import (DROP_NEWEST, DROP_OLDEST, OverloadConfig,
                                 REASON_BACKPRESSURE, REASON_EXPIRED,
                                 REASON_QUEUE_FULL)
from repro.runtime import messages
from repro.runtime.fabric import Mailbox
from repro.simulation import scenarios
from repro.simulation.swarm import (SwarmConfig, SwarmSimulation, _Frame,
                                    run_swarm)
from repro.simulation.workload import face_workload
from repro.trace import SHED

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
        config.policy_config = replace(
            config.policy_config,
            overload=OverloadConfig(ttl=TTL, queue_capacity=QUEUE_CAPACITY,
                                    backpressure_depth=4))
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
            policy_config=PolicyConfig(
                ack_timeout=1.0, dead_after=2,
                overload=OverloadConfig(ttl=TTL,
                                        queue_capacity=QUEUE_CAPACITY)),
            duration=12.0,
            seed=0,
            schedule=FaultSchedule(events=(FaultEvent(4.0, KILL, "B"),)),
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

    Both sit on one :class:`repro.core.admission.AdmissionQueue`;
    replaying one put/get trace through each side must keep the same
    survivors in the same order AND shed the same ``(seq, tenant)``
    victims in the same order — the property that makes simulator
    results transfer to the runtime under overload.
    """

    CAPACITY = 4
    #: weights 3:1 -> budgets {"t0": 3, "t1": 1} of the 4 slots
    SPECS = (TenantSpec("t0", weight=3.0), TenantSpec("t1", weight=1.0))
    #: t0 floods, t1 trickles
    TRACE = ([("put", seq, "t0") for seq in range(4)]
             + [("put", 4, "t1"), ("put", 5, "t1"), ("put", 6, "t0"),
                ("get",), ("put", 7, "t0"), ("put", 8, "t0"),
                ("put", 9, "t1"), ("get",), ("get",), ("put", 10, "t1"),
                ("put", 11, "t0"), ("put", 12, "t0")])
    MODES = [DROP_OLDEST, DROP_NEWEST, "fair_share"]

    def _overload(self, mode):
        return OverloadConfig(
            queue_capacity=self.CAPACITY,
            drop_policy=DROP_OLDEST if mode == "fair_share" else mode)

    def _runtime(self, mode):
        """(survivors, shed) of the trace through a runtime Mailbox."""
        mailbox = Mailbox("W", overload=self._overload(mode),
                          registry=metrics_mod.MetricsRegistry())
        if mode == "fair_share":
            mailbox.set_tenant_budgets(
                tenant_budgets(self.SPECS, self.CAPACITY))

        def queued():
            return [(message.payload["seq"], message.payload["tenant"])
                    for _sender, message in mailbox.items()]

        survivors, shed = [], []
        for op in self.TRACE:
            if op[0] == "put":
                candidates = queued() + [(op[1], op[2])]
                mailbox.put("A", messages.data_message(
                    "u", b"x", op[1], 0.0, tenant=op[2]))
                kept = queued()
                shed.extend(entry for entry in candidates
                            if entry not in kept)
            else:
                survivors.append(mailbox.get(timeout=0.1)[1].payload["seq"])
        while len(mailbox):
            survivors.append(mailbox.get(timeout=0.1)[1].payload["seq"])
        assert mailbox.shed_count == len(shed)
        return survivors, shed

    def _sim(self, mode):
        """(survivors, shed) of the trace through a simulated ingress."""
        overload = self._overload(mode)
        config = replace(
            scenarios.overload(worker_ids=("B",), kill_id=None,
                               ttl=overload.ttl,
                               queue_capacity=overload.queue_capacity,
                               drop_policy=overload.drop_policy),
            tenants=self.SPECS if mode == "fair_share" else (),
            trace_sample_rate=1.0)  # SHED spans are the ordered shed list
        swarm = SwarmSimulation(config)  # built, never run
        node = swarm.nodes["B"]
        survivors = []
        for op in self.TRACE:
            if op[0] == "put":
                swarm._ingress_put(node, _Frame(seq=op[1], created_at=0.0,
                                                tenant=op[2]))
            else:
                survivors.append(node.ingress.try_get().seq)
        while len(node.ingress):
            survivors.append(node.ingress.try_get().seq)
        shed = [(span.seq, span.tenant) for span in swarm.tracer.spans()
                if span.kind == SHED]
        return survivors, shed

    @pytest.mark.parametrize("mode", MODES)
    def test_identical_survivors_across_substrates(self, mode):
        survivors, shed = self._runtime(mode)
        assert (survivors, shed) == self._sim(mode)
        assert shed, "the trace must overflow the queue"
        # Conservation: every seq either survived or was shed, once.
        puts = [op[1] for op in self.TRACE if op[0] == "put"]
        assert sorted(survivors + [seq for seq, _tenant in shed]) == puts

    def test_the_three_modes_shed_differently(self):
        # Guard the trace: if it cannot tell the modes apart, the parity
        # above proves nothing about which rule ran.
        shed = {mode: self._runtime(mode)[1] for mode in self.MODES}
        assert shed[DROP_OLDEST] == [(0, "t0"), (1, "t0"), (2, "t0"),
                                     (4, "t1"), (5, "t1"), (8, "t0")]
        assert shed[DROP_NEWEST] == [(4, "t1"), (5, "t1"), (6, "t0"),
                                     (8, "t0"), (9, "t1"), (12, "t0")]
        # Under-budget t1 evicts flooding t0's oldest (0); each tenant at
        # its budget sheds its own arrivals; at the end t1 holds 2 of its
        # 1 and under-budget t0 evicts t1's oldest (4).
        assert shed["fair_share"] == [(0, "t0"), (5, "t1"), (6, "t0"),
                                      (8, "t0"), (9, "t1"), (4, "t1")]

    def test_drop_oldest_keeps_the_newest_frames(self):
        survivors, _shed = self._runtime(DROP_OLDEST)
        # The exact survivor set is fully determined by the trace.
        assert survivors == self._sim(DROP_OLDEST)[0]
        assert survivors[0] != 0  # the oldest frame was shed
        assert 12 in survivors    # the newest frame always survives
