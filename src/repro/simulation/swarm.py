"""Swarm experiment harness.

Wires the full system together on the discrete-event engine: a source
device generating sensed frames, a dispatcher applying a routing policy
with ACK-driven latency estimation, heterogeneous worker devices behind
wireless links of varying quality, a sink with a reorder buffer, and the
control loop updating the policy every second — plus runtime dynamics
(devices joining, leaving abruptly, and moving between signal regions).

This reproduces the paper's testbed workflow (Fig. 3, step 4 onward) with
the Android devices and 802.11n WLAN replaced by the calibrated models in
:mod:`repro.simulation.device` and :mod:`repro.simulation.network`.

Transport semantics mirror SEEP over TCP: one dispatcher thread performs
blocking socket writes, each connection buffers up to a socket window's
worth of bytes, and a write to a connection whose window is full blocks
— head-of-line blocking every tuple behind it.  A straggling or
weak-signal downstream therefore throttles the whole dispatch loop,
which is exactly the effect the paper's Worker Selection and
latency-based routing exist to avoid.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import metrics as metrics_mod
from repro.core import faults
from repro.core import migration
from repro.core import multitenant as multitenant_mod
from repro.core import overload as overload_mod
from repro.core.controller import LrsController, PolicyConfig
from repro.core.delivery import DedupWindow, EVICT_SHED
from repro.core.exceptions import MigrationAborted, SimulationError
from repro.core.faults import FaultEvent, FaultSchedule
from repro.core.keyed import (KeyRange, KeyRangeTable, MOVE_CRASH,
                              MOVE_DRAIN, MOVE_HOT_SPLIT, hash_key,
                              zipf_weights)
from repro.core.policies import PolicyDecision
from repro.core.reorder import ReorderBuffer
from repro.core.state import InMemoryStateStore, WindowAggregator
from repro.simulation.control import (EngineEgress, collect_batch,
                                      engine_controller, spend)
from repro.simulation.device import (SERVICE_JITTER_SIGMA, CpuModel,
                                     DeviceProfile, ThermalThrottle)
from repro.simulation.energy import EnergyReport, PowerEstimator
from repro.simulation.engine import Simulator, Store
from repro.simulation.metrics import (DROP_BACKPRESSURE, DROP_DEVICE_LEFT,
                                      DROP_EXPIRED, DROP_LINK_DOWN,
                                      DROP_QUEUE_FULL, DROP_SOURCE_QUEUE,
                                      DROP_STALE, LatencyStats,
                                      MetricsCollector)
from repro.simulation.mobility import MobilityPlan
from repro.simulation.network import Network, RSSI_GOOD
from repro.simulation.rng import RngRegistry
from repro.simulation.workload import ACK_BYTES, Workload
from repro.trace import (NULL_TRACER, PROCESS, QUEUE_WAIT, SHED, Span,
                         TRANSMIT, Tracer)

#: sentinel for an unbounded source egress queue (Fig. 1 style experiments)
UNBOUNDED_QUEUE = 0

#: seconds between a drain's looks at the device it is waiting on, and
#: the one keyed stateful unit every simulated worker hosts
_DRAIN_POLL = 0.05
_KEYED_UNIT = "agg"


@dataclass
class SwarmConfig:
    """Everything that defines one swarm experiment."""

    workload: Workload
    workers: Mapping[str, DeviceProfile]
    source: DeviceProfile
    #: the control-plane settings (policy, round, probing, estimator,
    #: failure detection, overload, delivery, batching, keyed routing),
    #: the same object the threaded runtime takes; its ``seed`` stays
    #: unset, because the policy seed derives from :attr:`seed`
    policy_config: PolicyConfig = field(default_factory=PolicyConfig)
    duration: float = 60.0
    #: the experiment's one RNG root (arrivals, jitter, keys, policy)
    seed: int = 0
    #: initial RSSI per worker; absent workers default to a good signal
    rssi: Mapping[str, float] = field(default_factory=dict)
    #: background CPU load per worker in [0, 1]
    background_load: Mapping[str, float] = field(default_factory=dict)
    #: source egress queue length in frames; ``None`` = 2 s of the input
    #: rate (a real-time source drops stale frames); ``UNBOUNDED_QUEUE``
    #: disables dropping (used for the Fig. 1 delay build-up experiment)
    source_queue_frames: Optional[int] = None
    #: per-connection in-flight window in bytes (send+receive socket
    #: buffers); at least one frame always fits
    socket_window_bytes: int = 32768
    #: time for an upstream to detect a broken link and re-route
    detection_delay: float = 0.5
    #: sustained-load thermal throttling (set False to disable, e.g. for
    #: the short single-device characterization runs)
    thermal_throttling: bool = True
    #: every injected event of the run — joins, departures, master
    #: outages, partitions, message chaos, load bursts — in the one
    #: vocabulary of :mod:`repro.core.faults`; the runtime chaos harness
    #: replays the same object
    schedule: FaultSchedule = field(default_factory=FaultSchedule)
    mobility: Optional[MobilityPlan] = None
    reorder_timespan: float = 1.0
    #: fraction of tuples traced through ``repro.trace`` (0.0 = tracing
    #: off); sampling is deterministic in (seed, seq), so a seeded run
    #: reproduces its trace exactly
    trace_sample_rate: float = 0.0
    #: tenant pipelines sharing this swarm
    #: (:class:`repro.core.multitenant.TenantSpec` instances).  Empty =
    #: the historical single-tenant experiment, byte-identical output.
    #: With tenants, each spec gets its own source / egress / controller
    #: / sink over the SAME device pool, and bounded worker ingress
    #: queues run cross-tenant fair-share admission.
    tenants: Sequence[multitenant_mod.TenantSpec] = ()

    def resolved_source_queue(self, workload: Optional[Workload] = None
                              ) -> Optional[int]:
        """Source queue capacity for the engine (None = unbounded).

        *workload* is one tenant's (rate-adjusted) workload; the
        experiment's own by default.
        """
        if self.source_queue_frames is None:
            rate = (workload or self.workload).input_rate
            return max(1, int(round(2.0 * rate)))
        if self.source_queue_frames == UNBOUNDED_QUEUE:
            return None
        if self.source_queue_frames < 0:
            raise SimulationError("source queue length must be >= 0")
        return self.source_queue_frames

    def window_frames(self) -> int:
        """Per-connection in-flight window in whole frames.

        At least two frames always fit (TCP keeps a window's worth of
        data in flight even for segments larger than the buffer), so
        transfers pipeline rather than turning fully synchronous.
        """
        return max(2, self.socket_window_bytes // self.workload.frame_bytes)

    def validate(self) -> None:
        if self.duration <= 0:
            raise SimulationError("duration must be positive")
        if self.socket_window_bytes < 1:
            raise SimulationError("socket window must be >= 1 byte")
        if self.detection_delay < 0:
            raise SimulationError("detection delay must be non-negative")
        if self.policy_config.seed is not None:
            raise SimulationError(
                "the policy seed derives from SwarmConfig.seed; leave"
                " policy_config.seed unset")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise SimulationError("trace sample rate must be in [0, 1]")
        if not isinstance(self.schedule, FaultSchedule):
            raise SimulationError("schedule must be a FaultSchedule, got %r"
                                  % (self.schedule,))
        if not self.workers and not any(event.action == faults.JOIN
                                        for event in self.schedule):
            raise SimulationError("a swarm needs at least one worker")
        self.schedule.validate(set(self.workers))
        keyed = self.policy_config.keyed
        if keyed is not None:
            keyed.validate()
            if keyed.key_count > 0 \
                    and self.policy_config.batching_config().enabled:
                # Keyed tuples route by range ownership per tuple; a
                # batch spanning ranges has no single owner.
                raise SimulationError(
                    "keyed routing runs per-tuple; disable batching")
        seen_tenants = set()
        for spec in self.tenants:
            if not isinstance(spec, multitenant_mod.TenantSpec):
                raise SimulationError("tenants must be TenantSpec instances,"
                                      " got %r" % (spec,))
            if spec.tenant_id in seen_tenants:
                raise SimulationError("duplicate tenant id %r"
                                      % (spec.tenant_id,))
            seen_tenants.add(spec.tenant_id)


@dataclass
class _Frame:
    seq: int
    created_at: float
    #: absolute deadline stamped at the source (``created_at + ttl``)
    deadline: Optional[float] = None
    #: owning tenant pipeline ("" = the single-tenant namespace)
    tenant: str = ""
    #: partitioning key for keyed stateful operators (None = stateless)
    key: Optional[str] = None
    #: ``hash_key(key)``, stamped once at the source so routing and the
    #: drain-watch never re-hash per hop
    key_hash: Optional[int] = None
    #: payload size charged against the replay buffer's byte bound
    #: (``workload.frame_bytes``, stamped at capture) — without it every
    #: retention weighed 0 bytes and ``replay_bytes`` never evicted
    nbytes: int = 0

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class _TenantState:
    """One tenant pipeline's private half of the shared swarm: its
    source workload, egress queue, control plane and sink machinery.
    The worker pool, network, clock and registry stay shared."""

    tenant_id: str
    workload: Workload
    controller: LrsController
    egress: Store
    egress_name: str
    edge_name: str
    reorder: ReorderBuffer
    dedup: Optional[DedupWindow]
    #: RNG stream name for this tenant's arrival process
    arrivals_stream: str
    #: RNG stream name for this tenant's key draws (keyed runs only)
    keys_stream: str = "keys"


class _WorkerNode:
    """One worker device: windowed connection + processing loop."""

    def __init__(self, swarm: "SwarmSimulation", profile: DeviceProfile,
                 background_load: float) -> None:
        self.swarm = swarm
        self.profile = profile
        self.device_id = profile.device_id
        self.cpu = CpuModel(profile, swarm.config.workload.app,
                            background_load=background_load)
        sim = swarm.sim
        self.ingress = Store(sim, capacity=swarm.overload.queue_capacity,
                             name="ingress:%s" % self.device_id,
                             drop_policy=swarm.overload.drop_policy)
        # Cross-tenant fair share at a bounded ingress (no-op at N=1).
        self.ingress.queue.set_tenant_budgets(swarm._budgets,
                                              swarm._priorities)
        # Socket-window tokens: the dispatcher takes one per in-flight
        # frame; the worker returns it when it reads the frame to process.
        window = swarm.config.window_frames()
        self.credits = Store(sim, capacity=window,
                             name="credits:%s" % self.device_id)
        for _ in range(window):
            self.credits.try_put(True)
        #: graceful-drain flag: still processing its backlog, but the
        #: upstream no longer routes new tuples here
        self.draining = False
        #: results handed to the radio but not yet delivered to the sink
        self.results_in_flight = 0
        self.joined_at = sim.now
        #: set once, by ``_detach``: the device is off the air
        self.left_at: Optional[float] = None
        #: the frame being processed right now
        self.current_frame: Optional[_Frame] = None
        #: per-tenant keyed operator state, in the same StateStore the
        #: threaded runtime's workers host
        self.key_stores: Dict[str, InMemoryStateStore] = {}
        self.thermal: Optional[ThermalThrottle] = (
            ThermalThrottle()
            if swarm.config.thermal_throttling and profile.throttles
            else None)
        self.process = sim.process(self._run(),
                                   name="worker:%s" % self.device_id)

    def _run(self):
        swarm = self.swarm
        sim = swarm.sim
        counters = swarm.metrics.device(self.device_id)
        while self.alive():
            frame = yield self.ingress.get()
            self.credits.try_put(True)  # socket slot freed by the read
            if frame.expired(sim.now):
                # Past its deadline while queued: shed instead of burning
                # CPU on a result nobody can use any more.  Still ACK the
                # tracker (mirroring the runtime worker): a shed is a
                # policy decision, not a fault, and must not feed loss
                # accounting or dead-marking.
                swarm._shed(frame.seq, DROP_EXPIRED,
                            overload_mod.REASON_EXPIRED,
                            queue="ingress:%s" % self.device_id)
                swarm._controller_for(frame.tenant).on_ack(
                    frame.seq, processing_delay=0.0, now=sim.now)
                continue
            record = swarm.metrics.frame(frame.seq, frame.created_at)
            record.proc_started_at = sim.now
            if swarm.tracer.enabled:
                # Receiver-side queue wait: delivery to processing start
                # (the analytic decomposition's "queuing" component).
                swarm.tracer.emit(Span(QUEUE_WAIT, frame.seq,
                                       record.tx_finished_at, sim.now,
                                       device_id=self.device_id,
                                       hop="ingress:%s" % self.device_id,
                                       tenant=frame.tenant))
            self.current_frame = frame
            jitter = swarm.rngs.lognormal_jitter(
                "service:%s" % self.device_id, SERVICE_JITTER_SIGMA)
            service = self.cpu.service_time(jitter)
            if self.thermal is not None:
                self.thermal.update(sim.now)
                service /= self.thermal.speed_factor()
                self.thermal.record_busy(service)
            counters.busy_time += service
            yield sim.timeout(service)
            record.proc_finished_at = sim.now
            if swarm.tracer.enabled:
                swarm.tracer.emit(Span(PROCESS, frame.seq,
                                       record.proc_started_at, sim.now,
                                       device_id=self.device_id,
                                       hop="worker:%s" % self.device_id,
                                       tenant=frame.tenant))
            counters.frames_completed += 1
            if frame.key is not None:
                self._observe_key(frame)
            self.current_frame = None
            self._send_result(frame, service)

    # -- migration host (repro.core.migration.MigrationHost) -------------
    def alive(self) -> bool:
        return self.left_at is None

    def busy(self, key_range: Optional[KeyRange] = None) -> bool:
        """Holding a frame of *key_range*, queued or in service.  ``None``
        asks about the whole device, wire included: a frame in flight
        holds a socket credit until the worker reads it, a result is in
        flight until the sink has it."""
        frames = self.ingress.items()
        if self.current_frame is not None:
            frames += (self.current_frame,)
        if key_range is None:
            return (bool(frames) or not self.credits.is_full
                    or self.results_in_flight > 0)
        return any(frame.key_hash is not None
                   and key_range.contains(frame.key_hash)
                   for frame in frames)

    def state_store(self, unit: str, tenant: str = "") -> InMemoryStateStore:
        """This device's keyed state for one tenant (created on demand;
        every simulated worker hosts the one keyed unit)."""
        return self.key_stores.setdefault(tenant, InMemoryStateStore())

    def _observe_key(self, frame: _Frame) -> None:
        """Fold one processed frame into its key's windowed aggregate."""
        WindowAggregator(self.state_store(_KEYED_UNIT, frame.tenant),
                         window=1.0).observe(frame.key, 1.0,
                                             self.swarm.sim.now)

    def _send_result(self, frame: _Frame, processing_delay: float) -> None:
        """Queue the result (which doubles as the ACK) back to the sink."""
        swarm = self.swarm
        link = swarm.network.link(self.device_id)
        if not link.up:
            return
        radio = swarm.network.radio(self.device_id)
        result_bytes = swarm.config.workload.result_bytes + ACK_BYTES
        self.results_in_flight += 1
        delivered = radio.connection(link).send(result_bytes)

        def _on_delivered(_event) -> None:
            self.results_in_flight -= 1
            # A draining worker's results must still land: its link stays
            # up until the drain watcher sees the last one delivered.
            if (self.alive() or self.draining) \
                    and swarm.network.link(self.device_id).up:
                swarm._deliver_result(frame, processing_delay)

        delivered.add_callback(_on_delivered)


class SwarmSimulation:
    """Builds and runs one swarm experiment from a :class:`SwarmConfig`."""

    def __init__(self, config: SwarmConfig) -> None:
        config.validate()
        self.config = config
        self.overload = config.policy_config.overload_config()
        self.delivery = config.policy_config.delivery_config()
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        #: every tenant's control plane: the experiment's settings under
        #: the policy seed its RNG root derives
        self._policy_config = replace(config.policy_config,
                                      seed=self.rngs.root_seed)
        self.network = Network(self.sim)
        # Private counter registry so concurrent/sequential runs never
        # bleed sent/acked/lost counts into each other.
        self.registry = metrics_mod.MetricsRegistry()
        self.metrics = MetricsCollector(registry=self.registry)
        #: TraceSink: every engine process emits the same span
        #: vocabulary as the threaded runtime when sampling is on
        self.tracer = (Tracer(sample_rate=config.trace_sample_rate,
                              seed=config.seed, registry=self.registry)
                       if config.trace_sample_rate > 0.0 else NULL_TRACER)
        # One _TenantState per tenant pipeline; the single-tenant run is
        # exactly one state under the default ("") tenant, producing
        # byte-identical queue names, RNG streams and metric labels.
        self._states: Dict[str, _TenantState] = {}
        if config.tenants:
            for spec in config.tenants:
                self._states[spec.tenant_id] = self._make_tenant_state(spec)
        else:
            self._states[""] = self._make_tenant_state(None)
        default_state = next(iter(self._states.values()))
        #: compat aliases: the first tenant's control plane and sink
        #: machinery, which at N=1 IS the whole system
        self.controller: LrsController = default_state.controller
        self.reorder = default_state.reorder
        self._dedup = default_state.dedup
        #: cross-tenant fair-share budgets for bounded worker ingress
        #: queues (None = single tenant, historical admission path)
        self._budgets: Optional[Dict[str, int]] = None
        self._priorities: Dict[str, int] = {}
        capacity = self.overload.queue_capacity
        if config.tenants and capacity is not None:
            self._budgets = multitenant_mod.tenant_budgets(
                list(config.tenants), capacity)
            self._priorities = {spec.tenant_id: spec.priority
                                for spec in config.tenants}
        self.nodes: Dict[str, _WorkerNode] = {}
        self._departed: Dict[str, _WorkerNode] = {}
        #: measured graceful-drain duration per departed device
        self.drain_durations: Dict[str, float] = {}
        # -- master-outage mirror (churn kill_master / restart_master):
        # while the master is down its source, dispatcher, control loop
        # and sink are all frozen; workers keep draining their ingress
        # and their finished results are buffered here, to be flushed
        # (ACKs included) when the successor master comes up — the
        # engine twin of workers processing autonomously and re-sending
        # into the recovered master's dedup window.
        self._master_down = False
        self._outage_results: List[Tuple[_Frame, float]] = []
        self.master_recoveries = 0
        #: devices whose link is administratively severed
        #: (``partition`` events); every message involving them drops
        self._partitioned: set = set()
        #: opened ``chaos_drop`` / ``chaos_delay`` windows with the
        #: devices each covers (None = every device), in opening order
        self._message_windows: List[
            Tuple[FaultEvent, Optional[List[str]]]] = []
        #: every device that ever computed here, initial pool first
        self._all_profiles: Dict[str, DeviceProfile] = dict(
            sorted(config.workers.items()))
        #: one sequence space for the whole swarm: FrameRecords are keyed
        #: by seq, so tenants must never collide
        self._next_seq = 0
        #: cumulative Zipf weights over the key universe; empty when the
        #: run is stateless (keyed off or key_count == 0)
        self._key_cum: List[float] = []
        keyed = config.policy_config.keyed
        if keyed is not None and keyed.key_count > 0:
            total = 0.0
            for weight in zipf_weights(keyed.key_count, keyed.zipf_alpha):
                total += weight
                self._key_cum.append(total)
        self._build()

    def _make_tenant_state(self, spec) -> _TenantState:
        """Build one tenant's source/egress/controller/sink machinery.

        ``spec=None`` is the default single-tenant namespace: every
        name, stream and label matches the historical layout exactly.
        """
        config = self.config
        tenant_id = spec.tenant_id if spec is not None else ""
        workload = config.workload
        if spec is not None and spec.input_rate is not None:
            workload = replace(workload, input_rate=spec.input_rate)
        source_id = config.source.device_id
        if tenant_id:
            egress_name = "egress:%s@%s" % (source_id, tenant_id)
            edge_name = "edge:%s@%s" % (source_id, tenant_id)
            controller_name = "%s@%s" % (source_id, tenant_id)
            arrivals_stream = "arrivals:%s" % tenant_id
            keys_stream = "keys:%s" % tenant_id
        else:
            egress_name = "egress:%s" % source_id
            edge_name = "edge:%s" % source_id
            controller_name = source_id
            arrivals_stream = "arrivals"
            keys_stream = "keys"
        controller = engine_controller(
            self.sim, self._policy_config,
            registry=self.registry, name=controller_name,
            trace=self.tracer,
            egress=EngineEgress(self.sim, on_air=self._redeliver_frame),
            tenant=tenant_id)
        # A real-time sensor cannot block on its own queue: it evicts
        # under drop_oldest and sheds the newest frame otherwise.
        evicts = (self.overload.enabled
                  and self.overload.drop_policy == overload_mod.DROP_OLDEST)
        egress = Store(self.sim,
                       capacity=config.resolved_source_queue(workload),
                       name=egress_name,
                       drop_policy=(overload_mod.DROP_OLDEST if evicts
                                    else overload_mod.DROP_NEWEST))
        reorder = ReorderBuffer.for_rate(workload.input_rate,
                                         timespan=config.reorder_timespan)
        # Sink-side duplicate suppression: at-least-once replay may hand
        # the sink the same seq twice; only the first counts.
        dedup = (DedupWindow(self.delivery.dedup_window)
                 if self.delivery.at_least_once else None)
        return _TenantState(tenant_id=tenant_id, workload=workload,
                            controller=controller, egress=egress,
                            egress_name=egress_name, edge_name=edge_name,
                            reorder=reorder, dedup=dedup,
                            arrivals_stream=arrivals_stream,
                            keys_stream=keys_stream)

    # -- tenant routing ---------------------------------------------------
    def _controller_for(self, tenant: str) -> LrsController:
        state = self._states.get(tenant)
        return state.controller if state is not None else self.controller

    def _tenant_of(self, seq: int) -> str:
        record = self.metrics.frames.get(seq)
        return record.tenant if record is not None else ""

    # -- controller views (kept for tests/tools poking internals) --------
    @property
    def policy(self):
        return self.controller.policy

    @property
    def tracker(self):
        return self.controller.tracker

    @property
    def rate_meter(self):
        return self.controller.rate_meter

    @property
    def decisions(self) -> List[Tuple[float, PolicyDecision]]:
        return self.controller.decisions

    # -- construction ----------------------------------------------------
    def _build(self) -> None:
        config = self.config
        self.network.attach(config.source.device_id, rssi=RSSI_GOOD)
        for device_id in sorted(config.workers):
            rssi = config.rssi.get(device_id, RSSI_GOOD)
            if config.mobility is not None:
                rssi = config.mobility.initial_rssi(device_id, rssi)
            self._attach(device_id, rssi)
        # Keyed routing: every tenant's control plane starts from the
        # same even partition of the key space over the initial pool
        # (later joiners take ownership only through migration).
        if config.policy_config.keyed is not None and self.nodes:
            for state in self._states.values():
                state.controller.set_key_table(
                    KeyRangeTable.bootstrap(sorted(self.nodes)))
        # One source + dispatcher pair per tenant pipeline; the default
        # tenant keeps the historical bare process names.
        for tenant_id, state in self._states.items():
            suffix = ":%s" % tenant_id if tenant_id else ""
            self.sim.process(self._source(state), name="source" + suffix)
            self.sim.process(self._dispatch(state),
                             name="dispatcher" + suffix)
        self.sim.process(self._control(), name="control")
        if config.mobility is not None:
            for when, device_id, rssi in config.mobility.events():
                self.sim.schedule(
                    when, lambda device_id=device_id, rssi=rssi:
                    self._set_rssi(device_id, rssi))
        # The same schedule the runtime chaos harness replays.  Actions
        # missing from the handler table are the caller's to report
        # (``schedule.unapplied(SwarmSimulation.FAULT_HANDLERS)``).
        for event in config.schedule:
            handler = self.FAULT_HANDLERS.get(event.action)
            if handler is not None:
                self.sim.schedule(event.time,
                                  lambda handler=handler, event=event:
                                  handler(self, event))

    def _profile_for(self, device_id: str) -> DeviceProfile:
        if device_id in self._all_profiles:
            return self._all_profiles[device_id]
        # Joining devices come from the paper's catalogue.
        from repro.profiles import device_profile
        return device_profile(device_id)

    def _attach(self, device_id: str, rssi: float = RSSI_GOOD) -> None:
        """Bring a device into the swarm: initial pool, join or rejoin.

        A dead-marked member that comes back stays dead in the tracker
        until a probe's ACK resurrects it.
        """
        if device_id in self.nodes:
            return  # e.g. a rejoin racing a still-running drain
        profile = self._profile_for(device_id)
        self._all_profiles[device_id] = profile
        if device_id in self.network.device_ids():
            self.network.reattach(device_id, rssi=rssi)
        else:
            self.network.attach(device_id, rssi=rssi)
        background = self.config.background_load.get(device_id, 0.0)
        node = _WorkerNode(self, profile, background)
        self.nodes[device_id] = node
        self._departed.pop(device_id, None)
        self.metrics.device(device_id)
        # Pool-level membership: every tenant's control plane sees the
        # same worker set (one swarm, N pipelines).
        for state in self._states.values():
            state.controller.add_downstream(device_id)

    def _detach(self, device_id: str) -> Optional[_WorkerNode]:
        """Take a device off the air; every departure ends here."""
        node = self.nodes.pop(device_id, None)
        if node is None:
            return None
        node.left_at = self.sim.now
        self._departed[device_id] = node
        node.process.kill()
        self.network.detach(device_id)
        return node

    def _crash(self, device_id: str, notify: bool) -> None:
        """Abrupt departure, with whatever the device held charged lost.

        ``notify=False`` is the silent ``kill``: the upstream gets no
        notification of any kind, tuples keep flowing into the void and
        only loss accounting (expired in-flight entries) marks the
        device dead — the failure-detection path end to end.
        ``notify=True`` is the ``disconnect`` of Sec. VI-C: the upstream
        notices the broken connection, but only after
        ``detection_delay``, and routes into the void until then.
        """
        node = self._detach(device_id)
        if node is None:
            return
        if node.current_frame is not None:
            self._drop_unless_retained(node.current_frame.seq,
                                       DROP_DEVICE_LEFT)
        for frame in node.ingress.drain():
            self._drop_unless_retained(frame.seq, DROP_DEVICE_LEFT)
        # Unblock a dispatcher head-of-line-blocked on this connection.
        for _ in range(self.config.window_frames()):
            node.credits.try_put(True)
        if notify:
            self.sim.schedule(self.config.detection_delay,
                              lambda: self._on_link_break(device_id))

    def _on_link_break(self, device_id: str) -> None:
        for state in self._states.values():
            state.controller.remove_downstream(device_id)

    # -- graceful drain (LEAVING protocol) -------------------------------
    def _begin_drain(self, device_id: str) -> None:
        """A device announces LEAVING: finish its backlog, lose nothing.

        The upstream stops routing new tuples there immediately
        (``redeliver=False``: queued work is *not* replayed elsewhere —
        the whole point of draining is that the leaver finishes it), the
        connection stays up, and a watcher detaches the device only once
        its queue, its in-flight window and its pending results are all
        empty.
        """
        node = self.nodes.get(device_id)
        if node is None or node.draining:
            return
        node.draining = True
        for state in self._states.values():
            state.controller.remove_downstream(device_id, redeliver=False)
        self.sim.process(self._drain_watch(node), name="drain:%s" % device_id)

    def _drain_watch(self, node: _WorkerNode):
        started = self.sim.now
        yield from spend(self.sim, migration.quiesce(node.busy, quiet=0.0,
                                                     poll=_DRAIN_POLL))
        elapsed = self.sim.now - started
        self.registry.observe_histogram(metrics_mod.DRAIN_SECONDS, elapsed,
                                        device=node.device_id)
        self.drain_durations[node.device_id] = elapsed
        device_id = node.device_id
        # Keyed ranges leave WITH their state before the device detaches:
        # the drain-triggered move runs the same protocol as a hot-split,
        # so churn- and load-driven migration never diverge.
        for state in self._states.values():
            for key_range in state.controller.keyed_ranges_of(device_id):
                target = self._keyed_target(exclude=device_id)
                if target is None:
                    break
                yield from self._migrate_range(state, key_range, node,
                                               self.nodes[target], MOVE_DRAIN)
        if self.nodes.get(device_id) is not node:
            return  # superseded (e.g. rejoined under the same id)
        # No drops and no link-break notification: a graceful leave has
        # nothing left to lose by construction.
        self._detach(device_id)

    # -- master failover -------------------------------------------------
    def _kill_master(self) -> None:
        """Master device crash: source, dispatch, control and sink freeze.

        Workers are autonomous: they keep draining their ingress queues
        and finishing work.  Their results are buffered (the runtime
        twin: results sent to a dead endpoint are retained upstream and
        redelivered later) and land when the successor comes up.
        """
        self._master_down = True

    def _restart_master(self) -> None:
        """Successor master up: flush buffered results, sweep, redeliver.

        The flushed results carry their ACKs into the controller and
        their seqs into the sink dedup window, exactly like the threaded
        runtime's re-imported retention being absorbed on redelivery;
        the forced control round then sweeps whatever is still pending
        so at-least-once replay resumes immediately.
        """
        if not self._master_down:
            return
        self._master_down = False
        self.master_recoveries += 1
        self.registry.increment(metrics_mod.MASTER_RECOVERIES_TOTAL,
                                device=self.config.source.device_id)
        pending, self._outage_results = self._outage_results, []
        for frame, processing_delay in pending:
            self._finish_result_delivery(frame, processing_delay)
        for state in self._states.values():
            state.controller.update(self.sim.now)

    def _link_devices(self, link_id: str) -> List[str]:
        """The devices a fault on link ``sender>target`` isolates.

        The engine's network is hub-and-spoke through the source radio,
        so a link fault applies to every message involving the link's
        non-source endpoint(s).
        """
        source_id = self.config.source.device_id
        return [device_id for device_id in faults.split_link(link_id)
                if device_id != source_id]

    # -- at-least-once redelivery ----------------------------------------
    def _redeliver_frame(self, destination: str, seq: int,
                         frame: _Frame) -> None:
        """The source egress's ``on_air``: put a replayed frame on the air.

        The controller already re-booked the send (pending entry, replay
        retention with the bumped attempt); this models the physical
        re-transmission.  If the target is unusable the entry simply
        stays retained and the next stale sweep tries again — returning
        here is never a loss.

        A batched retention's context is a tuple of frames (one replay
        entry covers the whole batch): re-transmit every member; the
        sink's dedup window suppresses any that already landed.
        """
        if isinstance(frame, tuple):
            for member in frame:
                self._redeliver_frame(destination, member.seq, member)
            return
        node = self.nodes.get(destination)
        if node is None or not node.alive() or node.draining:
            return
        link = self.network.link(destination)
        if not link.up:
            return
        record = self.metrics.frame(frame.seq, frame.created_at)
        record.device_id = destination
        record.tx_started_at = self.sim.now
        # Redeliveries bypass the socket-window credits: the replay path
        # is a fresh control-plane-initiated send, and ``try_put``
        # saturates at the window size, so the eventual credit return
        # cannot overfill the store.
        source_radio = self.network.radio(self.config.source.device_id)
        delivered = source_radio.connection(link).send(
            self.config.workload.frame_bytes)
        delivered.add_callback(
            lambda _event, frame=frame, destination=destination:
            self._on_frame_delivered(frame, destination))

    def _drop_unless_retained(self, seq: int, reason: str) -> None:
        """Charge a drop only when the replay buffer cannot recover it.

        In at-least-once mode a tuple that is still retained upstream is
        recoverable — redelivery will run it somewhere else — so marking
        it dropped would double-book the failure.
        """
        if self._controller_for(self._tenant_of(seq)).replay_holds(seq):
            return
        self.metrics.drop(seq, reason)

    # -- overload protection ---------------------------------------------
    def _shed(self, seq: int, drop_reason: str, shed_reason: str,
              queue: str, tenant: Optional[str] = None) -> None:
        """Record one overload shed in both accounting systems.

        The frame trace gets a drop record (*drop_reason*, the
        simulator's vocabulary) and the shared counter registry gets a
        ``swing_tuples_shed_total{reason=...}`` increment (*shed_reason*,
        the runtime's vocabulary) — so both substrates report sheds
        through the same counter family.  *tenant* routes the replay
        release to the owning tenant's controller and labels the shed
        counter (``None`` = resolve from the frame record; the default
        tenant stays label-free).

        Overload protection wins over delivery guarantees: a shed tuple
        is released from the replay buffer (counted as an eviction) so
        at-least-once never resurrects work the system chose to drop.
        """
        if tenant is None:
            tenant = self._tenant_of(seq)
        self._controller_for(tenant).release_replay(seq, EVICT_SHED)
        self.metrics.drop(seq, drop_reason)
        self.registry.increment(
            metrics_mod.SHED_TOTAL,
            **metrics_mod.tenant_labels(tenant, reason=shed_reason,
                                        queue=queue))
        if self.tracer.enabled:
            now = self.sim.now
            device = queue.split(":", 1)[-1]
            self.tracer.emit(Span(SHED, seq, now, now, device_id=device,
                                  hop=queue, detail=shed_reason,
                                  tenant=tenant))

    def _message_fault(self, device_id: str) -> Tuple[bool, float]:
        """(drop?, extra delay) for a message involving *device_id* now."""
        if device_id in self._partitioned:
            return True, 0.0
        now = self.sim.now
        extra_delay = 0.0
        for window, devices in self._message_windows:
            if now >= window.end \
                    or (devices is not None and device_id not in devices):
                continue
            if window.action == faults.CHAOS_DELAY:
                extra_delay += window.value
            elif self.rngs.stream("faults").random() < window.value:
                return True, 0.0
        return False, extra_delay

    def _open_message_window(self, event: FaultEvent) -> None:
        """``chaos_drop`` / ``chaos_delay``: consulted per message until
        the window's end (:meth:`_message_fault`)."""
        devices = (None if event.target == faults.EVERY_LINK
                   else self._link_devices(event.target))
        self._message_windows.append((event, devices))

    def _load_burst(self, event: FaultEvent) -> None:
        """Another app runs on the device for the window (paper Sec. III:
        dynamism from 'changes in applications running in the devices');
        its configured background load returns when the window ends."""
        device_id = event.target
        self._set_background_load(device_id, event.value)
        self.sim.schedule(
            event.duration, lambda: self._set_background_load(
                device_id, self.config.background_load.get(device_id, 0.0)))

    def _set_rssi(self, device_id: str, rssi: float) -> None:
        self.network.link(device_id).set_rssi(rssi)

    def _set_background_load(self, device_id: str, load: float) -> None:
        node = self.nodes.get(device_id)
        if node is not None:
            node.cpu.set_background_load(load)

    #: action → handler: the single statement of what this substrate
    #: applies.  A schedule's remaining actions (the codec-level
    #: ``chaos_duplicate`` / ``chaos_corrupt`` — the engine has no byte
    #: wire) are reported by ``FaultSchedule.unapplied``, never skipped
    #: silently.
    FAULT_HANDLERS = {
        faults.JOIN: lambda self, event: self._attach(event.target),
        faults.REJOIN: lambda self, event: self._attach(event.target),
        faults.KILL: lambda self, event: self._crash(event.target,
                                                     notify=False),
        faults.DISCONNECT: lambda self, event: self._crash(event.target,
                                                           notify=True),
        faults.LEAVE: lambda self, event: self._begin_drain(event.target),
        faults.KILL_MASTER: lambda self, event: self._kill_master(),
        faults.RESTART_MASTER: lambda self, event: self._restart_master(),
        faults.PARTITION: lambda self, event: self._partitioned.update(
            self._link_devices(event.target)),
        faults.HEAL: lambda self, event: self._partitioned.difference_update(
            self._link_devices(event.target)),
        faults.CHAOS_DROP: _open_message_window,
        faults.CHAOS_DELAY: _open_message_window,
        faults.LOAD_BURST: _load_burst,
    }

    # -- keyed state & migration -----------------------------------------
    def _draw_key(self, state: _TenantState) -> Optional[str]:
        """One seeded Zipf draw from this tenant's key universe."""
        if not self._key_cum:
            return None
        draw = self.rngs.stream(state.keys_stream).random() \
            * self._key_cum[-1]
        index = min(bisect_left(self._key_cum, draw),
                    len(self._key_cum) - 1)
        return "user-%d" % index

    def _keyed_target(self, exclude: str) -> Optional[str]:
        """Least-loaded live worker to receive a migrating range."""
        candidates = [(len(node.ingress), device_id)
                      for device_id, node in sorted(self.nodes.items())
                      if device_id != exclude and node.alive()
                      and not node.draining]
        if not candidates:
            return None
        return min(candidates)[1]

    def _migrate_range(self, state: _TenantState, key_range: KeyRange,
                       source: _WorkerNode, target: _WorkerNode,
                       reason: str):
        """Engine driver for :func:`repro.core.migration.migrate_range`
        (``drain`` and ``hot_split`` moves alike).  An aborted move left
        the range with its owner; the next control round decides again."""
        def retarget():
            fallback = self._keyed_target(exclude=source.device_id)
            return None if fallback is None \
                else (self.nodes[fallback], fallback)

        try:
            yield from spend(self.sim, migration.migrate_range(
                state.controller, key_range, source, target,
                source.device_id, target.device_id, _KEYED_UNIT,
                state.tenant_id, reason, quiet=2 * _DRAIN_POLL,
                poll=_DRAIN_POLL, retarget=retarget,
                registry=self.registry))
        except MigrationAborted:
            pass

    def _keyed_round(self, state: _TenantState) -> None:
        """One keyed control round: crash reconciliation, then hot-split.

        A range owned by a device no longer in the swarm is re-owned by
        a survivor WITHOUT a snapshot — a crash loses per-key state by
        definition (the guarantee matrix's ``crash`` row); the parked
        and expiring tuples then redeliver to the new owner.  A hot
        range is split in place and its upper half migrated to the
        least-loaded worker; if the heat was in the lower half the
        detector re-fires next round and halves it again — geometric
        convergence toward isolating the hot keys.
        """
        controller = state.controller
        table = controller.key_table
        if table is None:
            return
        for key_range, owner in table.ranges():
            if owner in self.nodes or table.is_paused(key_range):
                continue
            target = self._keyed_target(exclude=owner)
            if target is not None:
                controller.move_range(key_range, target, reason=MOVE_CRASH)
        found = controller.hot_range(self.sim.now)
        if found is None:
            return
        hot, _rate = found
        owner = table.owner(hot)
        if owner is None or owner not in self.nodes:
            return
        target = self._keyed_target(exclude=owner)
        if target is None:
            return
        _lower, upper = controller.split_range(hot)
        self.sim.process(
            self._migrate_range(state, upper, self.nodes[owner],
                                self.nodes[target], MOVE_HOT_SPLIT),
            name="migrate:%s" % (state.tenant_id or "-"))

    # -- processes -------------------------------------------------------
    def _source(self, state: _TenantState):
        gaps = state.workload.interarrival_times(
            self.rngs.stream(state.arrivals_stream))
        overload = self.overload
        tenant = state.tenant_id
        controller = state.controller
        egress = state.egress
        egress_name = state.egress_name
        while True:
            if self._master_down:
                # The source lives on the master: a crashed master's
                # pipeline captures nothing until the successor is up.
                yield self.sim.timeout(0.05)
                continue
            seq = self._next_seq
            self._next_seq += 1
            now = self.sim.now
            self.metrics.frame(seq, now, tenant=tenant)
            if overload.enabled:
                # Source admission control: refuse doomed work before
                # spending capture/encode/transmit effort on it.
                reason = overload_mod.source_admission(
                    len(egress), controller.unsatisfiable(),
                    overload)
                if reason is not None:
                    self._shed(seq, DROP_BACKPRESSURE, reason,
                               queue=egress_name, tenant=tenant)
                    yield self.sim.timeout(next(gaps))
                    continue
            # Lambda is observed at frame creation: a real-time source
            # measures its own capture rate, not the dispatch rate.
            controller.observe_arrival(now)
            key = self._draw_key(state)
            frame = _Frame(seq=seq, created_at=now,
                           deadline=overload.deadline_for(now),
                           tenant=tenant, key=key,
                           key_hash=hash_key(key)
                           if key is not None else None,
                           nbytes=self.config.workload.frame_bytes)
            for victim, _tenant, _tuples in egress.offer(frame, tenant):
                if overload.enabled:
                    self._shed(victim.seq, DROP_SOURCE_QUEUE,
                               overload_mod.REASON_QUEUE_FULL,
                               queue=egress_name, tenant=tenant)
                else:
                    self.metrics.drop(victim.seq, DROP_SOURCE_QUEUE)
            yield self.sim.timeout(next(gaps))

    def _dispatch(self, state: _TenantState):
        config = self.config
        source_radio = self.network.radio(config.source.device_id)
        tenant = state.tenant_id
        controller = state.controller
        egress = state.egress
        edge_name = state.edge_name
        batching = config.policy_config.batching_config()
        while True:
            if self._master_down:
                yield self.sim.timeout(0.05)
                continue
            # At max_tuples=1 this is ``[first]`` with no flush wait.
            frames = yield from collect_batch(self.sim, egress, batching)
            live = []
            for frame in frames:
                if frame.expired(self.sim.now):
                    # Shed at egress, before any transmission cost is
                    # paid (mirrors the runtime dispatcher's
                    # expired-shed).
                    self._shed(frame.seq, DROP_EXPIRED,
                               overload_mod.REASON_EXPIRED, queue=edge_name,
                               tenant=tenant)
                    continue
                record = self.metrics.frame(frame.seq, frame.created_at)
                record.dispatched_at = self.sim.now
                live.append(frame)
            if not live:
                continue
            # The controller routes and records the send (the paper's
            # timestamp is attached when the tuple leaves the upstream
            # unit) BEFORE the liveness check in _transmit: the upstream
            # cannot know the device is gone, and the resulting expiry is
            # exactly how a silent departure shows up in loss accounting.
            if not batching.enabled:
                destination = controller.dispatch(
                    live[0].seq, context=live[0], deadline=live[0].deadline,
                    key_hash=live[0].key_hash)
            else:
                # One decision per closed batch; the replay context is
                # the member tuple(s) so redelivery can re-send each
                # frame.  A flush of one degenerates to plain dispatch
                # inside the controller (decision parity with unbatched).
                deadlines = [f.deadline for f in live
                             if f.deadline is not None]
                destination = controller.dispatch_batch(
                    [f.seq for f in live],
                    context=live[0] if len(live) == 1 else tuple(live),
                    deadline=min(deadlines) if deadlines else None)
            if destination is None:
                for frame in live:
                    self._drop_unless_retained(frame.seq, DROP_LINK_DOWN)
                continue
            for frame in live:
                yield from self._transmit(frame, destination, source_radio,
                                          edge_name)

    def _transmit(self, frame: _Frame, destination: str, source_radio,
                  edge_name: str):
        """Push one routed frame onto *destination*'s connection.

        The windowed-socket transmit path shared by per-tuple and
        batched dispatch: batching amortizes the control plane (one
        decision, one pending entry), while the air link still carries
        the same frames back to back.
        """
        config = self.config
        record = self.metrics.frame(frame.seq, frame.created_at)
        record.device_id = destination
        node = self.nodes.get(destination)
        if node is None or not node.alive():
            # Routed to a device that already left: the tuple is lost
            # (unless the replay buffer still retains it).
            self._drop_unless_retained(frame.seq, DROP_LINK_DOWN)
            return
        # Blocking socket write: wait for a window slot on this
        # connection, head-of-line blocking every frame behind us.
        yield node.credits.get()
        if not node.alive():
            self._drop_unless_retained(frame.seq, DROP_DEVICE_LEFT)
            return
        record.tx_started_at = self.sim.now
        if self.tracer.enabled:
            # Sender-side wait, frame creation to first byte on the
            # wire (the "edge:" hop prefix files it under the
            # transmission component, exactly the analytic
            # decomposition's source-queue charge).
            self.tracer.emit(Span(
                QUEUE_WAIT, frame.seq, frame.created_at, self.sim.now,
                device_id=config.source.device_id, hop=edge_name,
                tenant=frame.tenant))
        link = self.network.link(destination)
        delivered = source_radio.connection(link).send(
            config.workload.frame_bytes)
        delivered.add_callback(
            lambda _event, frame=frame, destination=destination:
            self._on_frame_delivered(frame, destination))

    def _return_credit(self, destination: str) -> None:
        """Hand back the socket-window slot of a frame that died in flight.

        The worker normally frees the slot when it reads the frame off its
        ingress; a frame dropped between send and read would otherwise
        shrink the connection's window permanently — a long enough fault
        window used to leak every credit and wedge the dispatcher for the
        rest of the run.  ``try_put`` saturates at the window size, so
        connections already refilled by a kill are unaffected.
        """
        node = self.nodes.get(destination) or self._departed.get(destination)
        if node is not None:
            node.credits.try_put(True)

    def _on_frame_delivered(self, frame: _Frame, destination: str) -> None:
        dropped, extra_delay = self._message_fault(destination)
        if dropped:
            # Faulted away in flight; the tracker's pending entry will
            # expire and charge the loss to this destination.
            self._drop_unless_retained(frame.seq, DROP_LINK_DOWN)
            self._return_credit(destination)
            return
        if extra_delay > 0.0:
            self.sim.schedule(extra_delay,
                              lambda: self._finish_frame_delivery(
                                  frame, destination))
            return
        self._finish_frame_delivery(frame, destination)

    def _finish_frame_delivery(self, frame: _Frame, destination: str) -> None:
        record = self.metrics.frame(frame.seq, frame.created_at)
        node = self.nodes.get(destination)
        link = self.network.link(destination)
        if node is None or not node.alive() or not link.up:
            # Delivered into the void: the device left mid-flight.
            self._drop_unless_retained(frame.seq, DROP_DEVICE_LEFT)
            self._return_credit(destination)
            return
        record.tx_finished_at = self.sim.now
        if self.tracer.enabled:
            self.tracer.emit(Span(TRANSMIT, frame.seq,
                                  record.tx_started_at, self.sim.now,
                                  device_id=destination,
                                  hop="link:%s" % destination))
        counters = self.metrics.device(destination)
        counters.frames_received += 1
        counters.bytes_received += self.config.workload.frame_bytes
        self._ingress_put(node, frame)

    def _ingress_put(self, node: _WorkerNode, frame: _Frame) -> None:
        """Offer one delivered frame to a worker's (bounded) ingress.

        A shed frame — the newcomer or the one evicted for it — must
        hand its socket-window credit back or the connection's in-flight
        window would shrink permanently.  Under ``block`` the store
        parks the frame; the producer side is already bounded by socket
        credits, so the parked frames can never exceed the window.
        """
        for victim, tenant, _tuples in node.ingress.offer(frame,
                                                          frame.tenant):
            self._shed(victim.seq, DROP_QUEUE_FULL,
                       overload_mod.REASON_QUEUE_FULL,
                       queue="ingress:%s" % node.device_id, tenant=tenant)
            node.credits.try_put(True)

    def _control(self):
        # Timer trigger: the policy round runs on schedule even through
        # idle stretches, as on the threaded runtime, whose worker loop
        # ticks every edge at its next round.  The round itself — expiry
        # sweep, stats snapshot, policy update, decision log — is the
        # controller's.
        while True:
            yield self.sim.timeout(self._policy_config.control_interval)
            if self._master_down:
                continue  # no control plane while the master is down
            for state in self._states.values():
                state.controller.update(self.sim.now)
                self._keyed_round(state)
            self._export_queue_depths()

    def _export_queue_depths(self) -> None:
        """Refresh the ``swing_queue_depth`` gauges (one per queue)."""
        for state in self._states.values():
            self.registry.set_gauge(metrics_mod.QUEUE_DEPTH,
                                    len(state.egress),
                                    queue=state.egress_name)
        for device_id, node in self.nodes.items():
            self.registry.set_gauge(metrics_mod.QUEUE_DEPTH,
                                    len(node.ingress),
                                    queue="ingress:%s" % device_id)

    # -- sink --------------------------------------------------------------
    def _deliver_result(self, frame: _Frame, processing_delay: float) -> None:
        if self._master_down:
            # The sink lives on the master: results finished during the
            # outage are buffered (the work is NOT lost) and flushed into
            # the successor's dedup window at restart.
            self._outage_results.append((frame, processing_delay))
            return
        record = self.metrics.frame(frame.seq, frame.created_at)
        if record.device_id:
            dropped, extra_delay = self._message_fault(record.device_id)
            if dropped:
                # The result (and its piggybacked ACK) never arrives: the
                # upstream will count the tuple as lost when it expires
                # (and, in at-least-once mode, redeliver the tuple).
                self._drop_unless_retained(frame.seq, DROP_LINK_DOWN)
                return
            if extra_delay > 0.0:
                self.sim.schedule(
                    extra_delay,
                    lambda: self._finish_result_delivery(frame,
                                                         processing_delay))
                return
        self._finish_result_delivery(frame, processing_delay)

    def _finish_result_delivery(self, frame: _Frame,
                                processing_delay: float) -> None:
        now = self.sim.now
        record = self.metrics.frame(frame.seq, frame.created_at)
        state = self._states.get(frame.tenant)
        if state is None:
            state = next(iter(self._states.values()))
        state.controller.on_ack(frame.seq, processing_delay=processing_delay,
                                now=now)
        sink_name = "sink:%s" % self.config.source.device_id
        if state.dedup is not None and state.dedup.seen(frame.seq):
            # At-least-once replay delivered this seq more than once; the
            # ACK above still counts (the worker did the work) but the
            # sink must not double-deliver it.
            self.registry.increment(
                metrics_mod.DEDUPED_TOTAL,
                **metrics_mod.tenant_labels(frame.tenant, queue=sink_name))
            return
        if frame.expired(now):
            # Computed, transmitted back — and still too late.  The sink
            # refuses to deliver a stale result (the ACK above already
            # credited the worker: it did the work).
            self._shed(frame.seq, DROP_STALE, overload_mod.REASON_EXPIRED,
                       queue=sink_name, tenant=frame.tenant)
            return
        record.sink_arrived_at = now
        for playback in state.reorder.offer(frame.seq, now):
            played = self.metrics.frames.get(playback.seq)
            if played is not None:
                played.played_at = playback.played_at

    # -- running -----------------------------------------------------------
    def run(self) -> "SwarmResult":
        self.sim.run(self.config.duration)
        for state in self._states.values():
            for playback in state.reorder.flush(self.config.duration):
                record = self.metrics.frames.get(playback.seq)
                if record is not None:
                    record.played_at = playback.played_at
        self._finalize_counters()
        return SwarmResult.from_simulation(self)

    def pending_source_frames(self) -> Dict[str, List[int]]:
        """Seqs still queued at each tenant's source egress, per tenant.

        Everything past the egress queue is retained by the replay
        buffer until its ACK, so this is the one in-flight population a
        conservation audit cannot see through ``replay_depth_end`` —
        the verify adapter charges these to the in-flight term of
        ``delivered + dropped + evicted + retained + queued == emitted``.
        """
        return {tenant: sorted(frame.seq
                               for frame in state.egress.items())
                for tenant, state in self._states.items()
                if len(state.egress.items())}

    def export_retention(self) -> Dict[str, list]:
        """Each tenant controller's replay-retention export — what the
        upstreams still hold un-ACKed (``WorkerRuntime.export_retention``'s
        twin, keyed by tenant instead of edge)."""
        return {tenant: state.controller.export_retention()
                for tenant, state in self._states.items()}

    def _finalize_counters(self) -> None:
        end = self.config.duration
        for device_id in self._all_profiles:
            counters = self.metrics.device(device_id)
            node = self.nodes.get(device_id) or self._departed.get(device_id)
            if node is None:
                continue
            left = node.left_at if node.left_at is not None else end
            counters.participating_time = max(0.0, left - node.joined_at)

    def worker_profiles(self) -> Dict[str, DeviceProfile]:
        return dict(self._all_profiles)


@dataclass
class SwarmResult:
    """Everything the paper's figures need from one experiment run."""

    config: SwarmConfig
    metrics: MetricsCollector
    energy: EnergyReport
    throughput: float
    latency: Optional[LatencyStats]
    decisions: List[Tuple[float, PolicyDecision]]
    reorder: ReorderBuffer
    frames_lost: int
    #: the run's private counter registry (sent/acked/lost/marked-dead…)
    registry: Optional[metrics_mod.MetricsRegistry] = None
    #: per-downstream lost-tuple counts from the upstream's ACK tracker
    lost_by_downstream: Dict[str, int] = field(default_factory=dict)
    #: downstreams the tracker had marked dead when the run ended
    dead_downstreams: List[str] = field(default_factory=list)
    #: overload sheds by reason (expired / queue_full / backpressure)
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    #: high-water queue depth per named queue over the whole run
    max_queue_depths: Dict[str, int] = field(default_factory=dict)
    #: sampled spans recorded during the run (empty when tracing is off)
    trace: List[Span] = field(default_factory=list)
    #: at-least-once replay: total redeliveries attempted by the upstream
    redelivered: int = 0
    #: sink-side duplicate deliveries suppressed by the dedup window
    deduped: int = 0
    #: replay-buffer evictions by reason (capacity/bytes/attempts/…)
    replay_evicted_by_reason: Dict[str, int] = field(default_factory=dict)
    #: tuples still retained (un-ACKed) when the run ended
    replay_depth_end: int = 0
    #: measured graceful-drain duration per device that left via LEAVING
    drain_seconds: Dict[str, float] = field(default_factory=dict)
    #: overload sheds per tenant label (empty at N=1: the default tenant
    #: emits no ``tenant=`` label)
    shed_by_tenant: Dict[str, int] = field(default_factory=dict)
    #: master crash→recovery cycles completed during the run
    master_recoveries: int = 0
    #: key-range ownership moves by reason (hot_split / drain / crash)
    key_moves_by_reason: Dict[str, int] = field(default_factory=dict)
    #: hot ranges the detector flagged over the run
    hot_ranges_detected: int = 0
    #: range splits performed across every tenant's table
    key_splits: int = 0
    #: end-of-run keyed-state audit for the verification subsystem:
    #: final routing tables plus every live store's keys, so the
    #: invariant checker can prove no key is duplicated or orphaned
    #: across migrations (None when the run is not keyed)
    keyed_audit: Optional[Dict[str, object]] = None

    @classmethod
    def from_simulation(cls, swarm: SwarmSimulation) -> "SwarmResult":
        config = swarm.config
        duration = config.duration
        metrics = swarm.metrics
        profiles = swarm.worker_profiles()
        overheads = {device_id: profile.framework_overhead
                     for device_id, profile in profiles.items()}
        cpu = metrics.per_device_cpu_utilization(duration, overheads=overheads)
        transferred = {}
        for device_id in profiles:
            counters = metrics.device(device_id)
            transferred[device_id] = (
                counters.bytes_received
                + counters.frames_completed
                * (config.workload.result_bytes + ACK_BYTES))
        estimator = PowerEstimator(profiles)
        energy = estimator.estimate(cpu, transferred, duration)
        max_depths = {state.egress_name: state.egress.max_len
                      for state in swarm._states.values()}
        for device_id in profiles:
            node = (swarm.nodes.get(device_id)
                    or swarm._departed.get(device_id))
            if node is not None:
                max_depths["ingress:%s" % device_id] = node.ingress.max_len
        # Pool-wide rollups across every tenant's control plane (at N=1
        # these are exactly the single controller's numbers).
        lost_by_downstream: Dict[str, int] = {}
        dead: set = set()
        replay_depth = 0
        for state in swarm._states.values():
            for device_id, lost in \
                    state.controller.tracker.lost_by_downstream().items():
                lost_by_downstream[device_id] = (
                    lost_by_downstream.get(device_id, 0) + lost)
            for device_id, stat in state.controller.tracker.stats().items():
                if not stat.alive:
                    dead.add(device_id)
            replay_depth += state.controller.replay_depth()
        keyed_audit: Optional[Dict[str, object]] = None
        if config.policy_config.keyed is not None:
            tables = {tenant_key: [list(entry) for entry in
                                   state.controller.key_table.snapshot()]
                      for tenant_key, state in swarm._states.items()
                      if state.controller.key_table is not None}
            stores: Dict[str, Dict[str, List[str]]] = {}
            for device_id, node in swarm.nodes.items():
                per_tenant = {tenant: sorted(store.keys())
                              for tenant, store in node.key_stores.items()
                              if store.keys()}
                if per_tenant:
                    stores[device_id] = per_tenant
            keyed_audit = {"tables": tables, "stores": stores}
        return cls(
            config=config,
            metrics=metrics,
            energy=energy,
            throughput=metrics.throughput(duration),
            latency=metrics.latency_stats(),
            decisions=list(swarm.decisions),
            reorder=swarm.reorder,
            frames_lost=metrics.loss_count(),
            registry=swarm.registry,
            lost_by_downstream=lost_by_downstream,
            dead_downstreams=sorted(dead),
            shed_by_reason=swarm.registry.values_by_label(
                metrics_mod.SHED_TOTAL, "reason"),
            max_queue_depths=max_depths,
            trace=swarm.tracer.spans(),
            redelivered=sum(swarm.registry.values_by_label(
                metrics_mod.REDELIVERED_TOTAL, "downstream").values()),
            deduped=sum(swarm.registry.values_by_label(
                metrics_mod.DEDUPED_TOTAL, "queue").values()),
            replay_evicted_by_reason=swarm.registry.values_by_label(
                metrics_mod.REPLAY_EVICTED_TOTAL, "reason"),
            replay_depth_end=replay_depth,
            drain_seconds=dict(swarm.drain_durations),
            shed_by_tenant=swarm.registry.values_by_label(
                metrics_mod.SHED_TOTAL, "tenant"),
            master_recoveries=swarm.master_recoveries,
            key_moves_by_reason=swarm.registry.values_by_label(
                metrics_mod.KEY_RANGE_MOVES_TOTAL, "reason"),
            hot_ranges_detected=sum(swarm.registry.values_by_label(
                metrics_mod.HOT_KEYS_DETECTED_TOTAL, "edge").values()),
            key_splits=sum(
                state.controller.key_table.splits
                for state in swarm._states.values()
                if state.controller.key_table is not None),
            keyed_audit=keyed_audit,
        )

    # -- convenience views used by the benchmark harness -------------------
    @property
    def duration(self) -> float:
        return self.config.duration

    def cpu_utilization(self) -> Dict[str, float]:
        return self.metrics.per_device_cpu_utilization(self.duration)

    def input_rates(self) -> Dict[str, float]:
        return self.metrics.per_device_input_rate(self.duration)

    def fps_per_watt(self) -> float:
        return self.energy.fps_per_watt(self.throughput)

    def throughput_series(self, bin_width: float = 1.0) -> List[float]:
        return self.metrics.throughput_series(self.duration, bin_width)

    def meets_input_rate(self, tolerance: float = 0.10) -> bool:
        return self.throughput >= self.config.workload.input_rate * (1.0 - tolerance)

    def steady_state_latency(self, warmup: float = 5.0) -> Optional[LatencyStats]:
        """Latency stats excluding frames created during the warm-up."""
        return self.metrics.latency_stats(after=warmup)

    def end_to_end_losses(self, horizon: Optional[float] = None) -> List[int]:
        """Seqs created before *horizon* that never reached the sink.

        A frame counts as an end-to-end loss only when it neither arrived
        at the sink nor was deliberately dropped/shed (policy decisions
        record a drop reason).  In at-least-once mode this is the
        guarantee being tested: the list must be empty for frames old
        enough that every redelivery had time to land — pass a *horizon*
        a few seconds before the end of the run to exclude tuples still
        legitimately in flight at cutoff.
        """
        cutoff = self.duration if horizon is None else horizon
        return sorted(seq for seq, record in self.metrics.frames.items()
                      if record.created_at < cutoff
                      and record.sink_arrived_at is None
                      and record.dropped is None)

    def bounded_throughput(self, bound: float, warmup: float = 5.0) -> float:
        """Completions per second within a latency *bound* after warm-up.

        The skew experiment's figure of merit: a statically-overloaded
        hot worker still completes frames eventually, but past the bound
        they no longer count — SLO throughput, not raw throughput.
        """
        horizon = self.duration - warmup
        if horizon <= 0:
            return 0.0
        completed = sum(1 for record in self.metrics.completed_frames()
                        if record.sink_arrived_at >= warmup
                        and record.total_delay is not None
                        and record.total_delay <= bound)
        return completed / horizon

    # -- per-tenant views (multi-tenant isolation checks) -------------------
    def tenant_latency(self, tenant: str,
                       after: float = 0.0) -> Optional[LatencyStats]:
        """One tenant's end-to-end latency summary ("" = default tenant)."""
        return LatencyStats.from_samples(
            self.tenant_latency_samples(tenant, after=after))

    def tenant_latency_samples(self, tenant: str,
                               after: float = 0.0) -> List[float]:
        """One tenant's raw end-to-end delays (for percentile checks)."""
        return [record.total_delay
                for record in self.metrics.completed_frames()
                if record.tenant == tenant and record.created_at >= after]

    def tenant_losses(self, tenant: str,
                      horizon: Optional[float] = None) -> List[int]:
        """One tenant's end-to-end losses (see :meth:`end_to_end_losses`)."""
        cutoff = self.duration if horizon is None else horizon
        return sorted(seq for seq, record in self.metrics.frames.items()
                      if record.tenant == tenant
                      and record.created_at < cutoff
                      and record.sink_arrived_at is None
                      and record.dropped is None)

    def tenant_throughput(self, tenant: str) -> float:
        """One tenant's completions per second over the whole run."""
        if self.duration <= 0:
            return 0.0
        completed = sum(1 for record in self.metrics.completed_frames()
                        if record.tenant == tenant)
        return completed / self.duration


def run_swarm(config: SwarmConfig) -> SwarmResult:
    """Build and run one experiment; the main simulation entry point."""
    return SwarmSimulation(config).run()
