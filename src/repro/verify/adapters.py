"""One adapter per substrate: FaultSchedule in, RunHistory out.

Both adapters hand the schedule *object* straight to their substrate —
``SwarmConfig.schedule`` for the discrete-event engine, a
:class:`ChurnHarness` for the threaded runtime — and each substrate
applies it through its own action → handler table.  Whatever a table
does not cover (codec-level ``chaos_duplicate`` / ``chaos_corrupt`` on
the engine, which has no byte wire; CPU-model ``load_burst`` and
``disconnect`` on the runtime) is computed from the table
(:meth:`FaultSchedule.unapplied`) and recorded as a note rather than
silently claimed as coverage.

The simulator adapter maps the schedule's profile onto the keyed or
multi-tenant ``SwarmConfig`` shape.  The runtime adapter builds a real
threaded :class:`SwingRuntime` behind a seeded :class:`ChaosFabric`,
replays the schedule time-compressed, and normalises the sink
collections, metrics registry and control-plane epochs into the same
:class:`RunHistory` shape.

Both adapters run the *same* schedule bytes; the invariant checker
never needs to know which substrate produced the history.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro import metrics as metrics_mod
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.exceptions import RuntimeStateError
from repro.core.faults import LOAD_BURST, RESTART_MASTER
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.keyed import KeyedConfig
from repro.core.multitenant import TenantSpec
from repro.core.overload import DROP_OLDEST, OverloadConfig
from repro.core.recovery import InMemoryCheckpointStore, RecoveryConfig
from repro import profiles
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.chaos import ChaosFabric, ChurnHarness
from repro.simulation import scenarios
from repro.simulation.swarm import SwarmConfig, SwarmResult, SwarmSimulation
from repro.simulation.workload import FACE_APP
from repro.verify.invariants import RunHistory, TenantHistory
from repro.verify.schedule import FaultSchedule

SIM = "sim"
RUNTIME = "runtime"
SUBSTRATES = (SIM, RUNTIME)

#: sizing for the threaded substrate: the whole scenario timeline is
#: compressed by TIME_SCALE and the source emits TUPLES tuples across
#: the fault window, so faults interleave live traffic.
TIME_SCALE = 0.1
TUPLES = 120
_COLLECT_TIMEOUT = 30.0


# -- simulator ------------------------------------------------------------
def build_sim_config(schedule: FaultSchedule,
                     delivery: Optional[DeliveryConfig] = None
                     ) -> SwarmConfig:
    """The engine experiment *schedule*'s spec and profile describe."""
    spec, profile = schedule.spec, schedule.profile
    workload = scenarios.workload_for_app(FACE_APP)
    bursting = any(event.action == LOAD_BURST for event in schedule)
    if delivery is None:
        delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=4096,
                                  dedup_window=8192,
                                  max_delivery_attempts=8)
    keyed = None
    ack_timeout, dead_after = 2.0, 2
    if profile.keyed:
        # Generous ACK budget, as in the skew scenario: migration
        # parking, not redelivery storms, is the mechanism under test.
        keyed = KeyedConfig(key_count=64, zipf_alpha=1.2,
                            split_enabled=True, hot_ratio=1.5,
                            min_split_interval=2.0, max_splits=8)
        ack_timeout, dead_after = 6.0, 4
    overload = None
    if profile.tenant_count > 1 or bursting:
        overload = OverloadConfig(ttl=2.0, queue_capacity=12,
                                  drop_policy=DROP_OLDEST)
    tenants: Tuple[TenantSpec, ...] = ()
    if profile.tenant_count > 1:
        rate = workload.input_rate / profile.tenant_count
        tenants = tuple(
            TenantSpec(tenant_id="t%d" % index, weight=1.0, priority=0,
                       input_rate=(rate * 3.0
                                   if profile.hot_tenant == "t%d" % index
                                   else rate))
            for index in range(profile.tenant_count))
    return SwarmConfig(
        workload=workload,
        workers=profiles.worker_profiles(list(spec.workers)),
        source=profiles.device_profile(spec.source_id),
        policy="LRS",
        duration=spec.duration,
        seed=schedule.seed or 0,
        ack_timeout=ack_timeout,
        dead_after=dead_after,
        detection_delay=0.25,
        delivery=delivery,
        schedule=schedule,
        overload=overload,
        keyed=keyed,
        tenants=tenants,
    )


def history_from_sim(schedule: FaultSchedule, sim: SwarmSimulation,
                     result: SwarmResult) -> RunHistory:
    """Normalise one engine run into the checker's RunHistory shape.

    The finished *sim* supplies the conservation equation's in-flight
    term: its end-of-run source-egress occupancy and the seqs its
    replay buffers still hold, per tenant.
    """
    spec = schedule.spec
    horizon = spec.duration - spec.settle / 2.0
    tenants: Dict[str, TenantHistory] = {}

    def ledger(tenant: str) -> TenantHistory:
        if tenant not in tenants:
            tenants[tenant] = TenantHistory()
        return tenants[tenant]

    for tenant, seqs in sim.pending_source_frames().items():
        ledger(tenant).queued_end.update(seqs)
    for tenant, items in sim.export_retention().items():
        ledger(tenant).retained.update(_retained_seqs(items))

    drop_reasons: Dict[str, int] = {}
    for seq, record in result.metrics.frames.items():
        entry = ledger(record.tenant or "")
        entry.emitted.add(seq)
        if record.created_at < horizon:
            entry.judged.add(seq)
        if record.sink_arrived_at is not None:
            entry.delivered.append(seq)
        if record.dropped is not None:
            entry.accounted.add(seq)
            drop_reasons[record.dropped] = \
                drop_reasons.get(record.dropped, 0) + 1
    registry = result.registry
    fenced = 0
    if registry is not None:
        # Per-tenant eviction budgets: the replay buffer's edge label is
        # the controller name — "A" single-tenant, "A@tX" multi-tenant.
        by_edge = registry.values_by_label(
            metrics_mod.REPLAY_EVICTED_TOTAL, "edge")
        for edge, count in by_edge.items():
            tenant = edge.partition("@")[2]
            ledger(tenant).evictions += count
        fenced = sum(registry.values_by_label(
            metrics_mod.FENCED_TOTAL, "device").values())
    expected = sum(1 for event in schedule
                   if event.action == RESTART_MASTER)
    config = result.config
    capacity = (config.overload.queue_capacity
                if config.overload is not None else None)
    at_least_once = (config.delivery is not None
                     and config.delivery.at_least_once)
    notes = ["%s window on %s has no discrete-event mirror"
             % (event.action, event.target)
             for event in schedule.unapplied(SwarmSimulation.FAULT_HANDLERS)]
    return RunHistory(
        substrate=SIM,
        at_least_once=at_least_once,
        tenants=tenants,
        hot_tenant=schedule.profile.hot_tenant,
        drop_reasons=drop_reasons,
        evict_reasons=dict(result.replay_evicted_by_reason),
        redelivered=result.redelivered,
        deduped=result.deduped,
        retained_end=result.replay_depth_end,
        queue_depths={name: depth
                      for name, depth in result.max_queue_depths.items()
                      if name.startswith("ingress:")},
        queue_capacity=capacity,
        expected_recoveries=expected,
        recoveries=result.master_recoveries,
        epochs=(),
        fenced=fenced,
        keyed_audit=result.keyed_audit,
        notes=notes,
    )


def _retained_seqs(items) -> Set[int]:
    """Seqs covered by one controller's export_retention() snapshot."""
    seqs: Set[int] = set()
    for seq, _attempt, _deadline, _context, members in items:
        seqs.add(seq)
        seqs.update(members)
    return seqs


def runtime_retained(runtime: SwingRuntime) -> Set[int]:
    """Un-ACKed seqs every dispatcher of *runtime* still holds: the
    master's and each worker's (a worker's ``work>snk`` edge retains its
    results while the sink is unreachable)."""
    retained: Set[int] = set()
    for host in [runtime.master.runtime] + list(runtime.workers.values()):
        for items in host.export_retention().values():
            retained |= _retained_seqs(items)
    return retained


def run_sim(schedule: FaultSchedule) -> RunHistory:
    """Run *schedule* on the discrete-event engine and normalise it."""
    schedule.validate()
    sim = SwarmSimulation(build_sim_config(schedule))
    return history_from_sim(schedule, sim, sim.run())


# -- threaded runtime -----------------------------------------------------
class _RecordingHarness(ChurnHarness):
    """ChurnHarness that captures sinks and epochs around restarts."""

    def __init__(self, runtime: SwingRuntime, schedule, time_scale: float,
                 sinks: List[CollectingSink],
                 epochs: List[int]) -> None:
        super().__init__(runtime, schedule, time_scale=time_scale)
        self._sinks = sinks
        self._epochs = epochs

    def _apply(self, event) -> None:
        super()._apply(event)
        if event.action == RESTART_MASTER:
            self._sinks.append(self.runtime.sink_unit())
            self._epochs.append(self.runtime.master.pool.epoch)


def run_runtime(schedule: FaultSchedule,
                time_scale: float = TIME_SCALE,
                tuples: int = TUPLES) -> RunHistory:
    """Run *schedule* on the threaded runtime and normalise it.

    The runtime consumes the plain single-tenant pipeline regardless of
    the schedule's workload profile: keyed and multi-tenant mirrors are
    simulator-side (their threaded soaks live in the keyed /
    multi-tenant integration suites), which the history records as a
    note rather than silently claiming coverage.
    """
    schedule.validate()
    spec = schedule.spec
    graph = (GraphBuilder("verify-app")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(tuples)]))
             .unit("work", lambda: LambdaUnit(
                 lambda value: {"y": value["x"] * 2}))
             .sink("snk", CollectingSink)
             .chain("src", "work", "snk")
             .build())
    registry = metrics_mod.MetricsRegistry()
    seed = schedule.seed or 0
    source_rate = tuples / max(0.5, spec.window_end * time_scale)
    delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=4096,
                              dedup_window=8192, max_delivery_attempts=8,
                              redelivery_timeout=0.4)
    runtime = SwingRuntime(
        graph, worker_ids=sorted(spec.workers), policy="RR",
        source_rate=source_rate, seed=seed, registry=registry,
        delivery=delivery,
        fabric_wrapper=lambda inner: ChaosFabric(inner, seed=seed,
                                                 registry=registry),
        heartbeat_interval=0.1, heartbeat_timeout=0.6,
        recovery=RecoveryConfig(checkpoint_interval=0.2),
        checkpoint_store=InMemoryCheckpointStore())
    sinks: List[CollectingSink] = []
    epochs: List[int] = []
    harness = _RecordingHarness(runtime, schedule, time_scale, sinks,
                                epochs)
    expected = set(range(tuples))
    runtime.start()
    try:
        sinks.append(runtime.sink_unit())
        epochs.append(runtime.master.pool.epoch)
        harness.run()
        deadline = time.monotonic() + _COLLECT_TIMEOUT
        while time.monotonic() < deadline:
            union = {data.seq for sink in sinks for data in sink.results}
            if expected <= union:
                break
            time.sleep(0.05)
        time.sleep(0.4)  # let straggling duplicates land
        retained = runtime_retained(runtime)
        recoveries = int(registry.value(
            metrics_mod.MASTER_RECOVERIES_TOTAL,
            device=runtime.master.master_id))
        delivered = [data.seq for sink in sinks for data in sink.results]
    finally:
        runtime.stop()
    evict_reasons = registry.values_by_label(
        metrics_mod.REPLAY_EVICTED_TOTAL, "reason")
    ledger = TenantHistory(emitted=set(expected), judged=set(expected),
                           delivered=delivered, accounted=set(),
                           retained=set(retained),
                           evictions=sum(evict_reasons.values()))
    fenced = sum(registry.values_by_label(
        metrics_mod.FENCED_TOTAL, "device").values())
    notes = ["runtime substrate runs the plain pipeline; %s is a "
             "simulator-side nemesis" % note
             for note in (["keyed migration"] if schedule.profile.keyed
                          else [])
             + (["tenant overload"]
                if schedule.profile.tenant_count > 1 else [])]
    notes.extend("%s on %s has no threaded mirror"
                 % (event.action, event.target)
                 for event in schedule.unapplied(ChurnHarness.FAULT_HANDLERS))
    return RunHistory(
        substrate=RUNTIME,
        at_least_once=True,
        tenants={"": ledger},
        hot_tenant=None,
        drop_reasons=registry.values_by_label(
            metrics_mod.DROPPED_TOTAL, "reason"),
        evict_reasons=evict_reasons,
        redelivered=sum(registry.values_by_label(
            metrics_mod.REDELIVERED_TOTAL, "downstream").values()),
        deduped=sum(registry.values_by_label(
            metrics_mod.DEDUPED_TOTAL, "queue").values()),
        retained_end=len(retained),
        queue_depths={},
        queue_capacity=None,
        expected_recoveries=sum(
            1 for event in schedule
            if event.action == RESTART_MASTER),
        recoveries=recoveries,
        epochs=tuple(epochs),
        fenced=fenced,
        keyed_audit=None,
        notes=notes,
    )


def run_schedule(schedule: FaultSchedule, substrate: str) -> RunHistory:
    """Dispatch one schedule onto one substrate."""
    if substrate == SIM:
        return run_sim(schedule)
    if substrate == RUNTIME:
        return run_runtime(schedule)
    raise RuntimeStateError("unknown substrate %r (want one of %s)"
                            % (substrate, list(SUBSTRATES)))
