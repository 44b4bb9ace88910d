"""Master: deploys app graphs and coordinates the shared swarm.

"The master deploys the app dataflow graph by assigning function units
and connecting devices ... The master thread is responsible only for
control, bootstrapping connections and sending start/stop commands.  It
can co-locate on the same device with worker threads." (paper Sec. IV-B)

The control plane is split in two layers:

* :class:`SwarmPool` — pool-level membership and health.  One pool
  tracks the worker set (JOIN / LEAVE / LEAVING / heartbeats, failure
  detection) for *every* pipeline sharing the swarm, and notifies each
  attached session when membership changes.
* :class:`DeploymentSession` — per-tenant deployment.  One session owns
  one pipeline's graph, placement and lifecycle (deploy / start / stop)
  and tags every control message with its tenant id, so a shared worker
  can host units from many tenants concurrently.

:class:`Master` composes one pool with one session per pipeline, keyed
by tenant id: the constructor graph is the default tenant ``""`` and
``add_pipeline`` attaches further tenants.  The master owns its own
:class:`~repro.runtime.worker.WorkerRuntime` (so sources and sinks can
live on the master device, like phone A in the evaluation).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import metrics as metrics_mod
from repro.core import delivery as delivery_mod
from repro.core import multitenant as multitenant_mod
from repro.core import overload as overload_mod
from repro.core.controller import PolicyConfig
from repro.core.exceptions import DeploymentError, SerializationError
from repro.core.graph import AppGraph
from repro.core.recovery import (CheckpointManager, CheckpointStore,
                                 ControlPlaneCheckpoint, RecoveryConfig,
                                 SessionState, retention_entries)
from repro.runtime import messages
from repro.runtime.dispatcher import instance_id
from repro.runtime.fabric import SEND_ERRORS, Fabric
from repro.runtime.health import HealthMonitor
from repro.runtime.worker import WorkerRuntime
from repro.trace import NULL_TRACER, RECOVERY, Span, TraceSink


@dataclass
class Placement:
    """Which workers host each logical function unit.

    The default (:meth:`Placement.default`) puts sources and sinks on the
    master device and replicates every compute unit on all workers —
    matching the paper's deployments (phone A sources and displays; the
    rest compute).
    """

    assignments: Dict[str, List[str]] = field(default_factory=dict)

    @classmethod
    def default(cls, graph: AppGraph, master_id: str,
                worker_ids: Sequence[str]) -> "Placement":
        assignments: Dict[str, List[str]] = {}
        for spec in graph.sources() + graph.sinks():
            assignments[spec.name] = [master_id]
        compute_hosts = sorted(worker_ids) or [master_id]
        for spec in graph.compute_units():
            assignments[spec.name] = list(compute_hosts)
        return cls(assignments)

    def workers_for(self, unit_name: str) -> List[str]:
        try:
            return list(self.assignments[unit_name])
        except KeyError:
            raise DeploymentError("no placement for unit %r" % unit_name) from None

    def add_worker(self, graph: AppGraph, worker_id: str) -> None:
        """Activate all compute units on a newly joined worker."""
        for spec in graph.compute_units():
            hosts = self.assignments.setdefault(spec.name, [])
            if worker_id not in hosts:
                hosts.append(worker_id)
                hosts.sort()

    def remove_worker(self, worker_id: str) -> None:
        for hosts in self.assignments.values():
            if worker_id in hosts:
                hosts.remove(worker_id)

    def units_on(self, worker_id: str) -> List[str]:
        return sorted(name for name, hosts in self.assignments.items()
                      if worker_id in hosts)

    def instances_of(self, unit_name: str) -> List[str]:
        return [instance_id(unit_name, worker)
                for worker in self.workers_for(unit_name)]


class SwarmPool:
    """Pool-level membership and health for a shared swarm.

    Tracks the worker set once for every tenant pipeline attached to
    it: JOIN admits a device into the pool, LEAVE / LEAVING / heartbeat
    timeout evicts it, and every attached :class:`DeploymentSession` is
    notified so its routing tables follow the shared membership.
    """

    def __init__(self, master_id: str, fabric: Fabric,
                 heartbeat_timeout: float = 0.0,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 epoch: int = 0,
                 detector_interval: Optional[float] = None
                 ) -> None:
        if heartbeat_timeout < 0:
            raise DeploymentError("heartbeat timeout must be >= 0")
        if epoch < 0:
            raise DeploymentError("epoch must be >= 0")
        self.master_id = master_id
        self.fabric = fabric
        self.heartbeat_timeout = heartbeat_timeout
        #: this master incarnation's fencing epoch; 0 = never recovered,
        #: where every control frame stays byte-identical to history
        self.epoch = epoch
        self._detector_interval = detector_interval
        #: per-worker hosted-unit inventory from re-registration JOINs
        self.inventory: Dict[str, List[str]] = {}
        #: called (outside the pool lock) after any membership change;
        #: the master hangs its on-mutation checkpoint write here
        self.on_mutation: Optional[Callable[[], None]] = None
        #: reentrant: a membership event holds the lock while it calls
        #: back into every session, and sessions call pool helpers
        self.lock = threading.RLock()
        self._workers: List[str] = []
        self._sessions: List["DeploymentSession"] = []
        self.registry = (registry if registry is not None
                         else metrics_mod.MetricsRegistry())
        self.health = HealthMonitor(timeout=heartbeat_timeout,
                                    registry=self.registry)
        self._detector: Optional[threading.Thread] = None
        self._detector_running = threading.Event()
        self._stopped = False
        if heartbeat_timeout > 0:
            self._detector_running.set()
            self._detector = threading.Thread(
                target=self._detect_failures,
                name="failure-detector:%s" % master_id, daemon=True)
            self._detector.start()

    # -- sessions ----------------------------------------------------------
    def attach(self, session: "DeploymentSession") -> None:
        with self.lock:
            self._sessions.append(session)

    def sessions(self) -> List["DeploymentSession"]:
        with self.lock:
            return list(self._sessions)

    # -- membership --------------------------------------------------------
    def handle_control(self, sender_id: str,
                       message: messages.Message) -> None:
        epoch = message.payload.get("epoch", 0)
        if isinstance(epoch, int) and epoch > self.epoch:
            # Zombie step-aside: this worker already follows a NEWER
            # master incarnation, so a stale survivor of an old epoch
            # must not record (or act on) its control traffic.
            self.registry.increment(metrics_mod.FENCED_TOTAL,
                                    device=self.master_id,
                                    kind=message.kind)
            return
        if message.kind == messages.JOIN:
            self.health.record_heartbeat(message.payload["worker_id"])
            self.handle_join(message.payload["worker_id"],
                             units=message.payload.get("units"))
        elif message.kind == messages.LEAVE:
            self.handle_leave(message.payload["worker_id"])
        elif message.kind == messages.LEAVING:
            # Graceful drain: drop the worker from every routing table
            # NOW, while it keeps running until its queue is empty.
            self.handle_leave(message.payload["worker_id"])
        elif message.kind == messages.HEARTBEAT:
            worker_id = message.payload["worker_id"]
            self.health.record_heartbeat(worker_id)
            if self.epoch > 0 and worker_id not in self.worker_ids:
                # A recovered master hears a survivor it has not
                # re-admitted yet: announce the new epoch so the worker
                # re-registers with its inventory.  Absent at epoch 0,
                # so the steady-state heartbeat path sends no replies.
                self.send_control(worker_id, messages.welcome_message(
                    worker_id, epoch=self.epoch))

    def send_control(self, worker_id: str,
                     message: messages.Message) -> bool:
        """Send a control frame the caller can afford to lose — the peer
        may have vanished (churn is the normal case) and a later
        membership change, heartbeat or teardown covers for it.  Returns
        whether the frame left; one that did not is counted as
        ``swing_frames_dropped_total{reason="control_unsent"}``."""
        try:
            self.fabric.send(self.master_id, worker_id, message)
        except SEND_ERRORS:
            self.registry.increment(
                metrics_mod.DROPPED_TOTAL, reason="control_unsent",
                link="%s>%s" % (self.master_id, worker_id))
            return False
        return True

    def _detect_failures(self) -> None:
        """Evict workers whose heartbeats stopped (broken link / crash)."""
        interval = (self._detector_interval
                    if self._detector_interval is not None
                    else self.heartbeat_timeout / 2.0)
        while self._detector_running.is_set():
            time.sleep(interval)
            members = set(self.worker_ids)
            for worker_id in self.health.check_timeouts():
                if worker_id in members:
                    self.handle_leave(worker_id)

    def handle_join(self, worker_id: str,
                    units: Optional[Sequence[str]] = None) -> None:
        """Involve a new device as soon as it connects (Sec. IV-C).

        A re-registration after a master recovery carries the worker's
        hosted-unit inventory in *units*; it is recorded either way so
        the recovered master can reconcile checkpoint state against
        what survivors actually still host.
        """
        with self.lock:
            if units is not None:
                self.inventory[worker_id] = list(units)
            if self._stopped or worker_id in self._workers:
                return
            # A rejoin starts from a clean slate: stale failure history
            # from a previous incarnation must not shadow the new one.
            # The JOIN itself is a positive signal, so the heartbeat
            # clock starts now — a joiner that then goes silent still
            # ages out.
            self.health.reset_peer(worker_id)
            self.health.record_heartbeat(worker_id)
            self._workers.append(worker_id)
            for session in self._sessions:
                session.on_join(worker_id)
        self._notify_mutation()

    def handle_leave(self, worker_id: str) -> None:
        """Remove a departed device's instances from all routing tables.

        A no-op once the pool is stopped: the failure detector (or a
        straggling LEAVE/LEAVING message) may race ``stop()``, and a
        late call must neither raise nor resurrect control traffic.
        """
        if self._stopped:
            return
        self.health.forget(worker_id)
        with self.lock:
            if self._stopped:
                return
            if worker_id in self._workers:
                self._workers.remove(worker_id)
            self.inventory.pop(worker_id, None)
            for session in self._sessions:
                session.on_leave(worker_id)
        self._notify_mutation()

    def _notify_mutation(self) -> None:
        if self.on_mutation is not None:
            try:
                self.on_mutation()
            except (OSError, SerializationError):
                # A failed checkpoint write must not break control; it
                # shows as a growing swing_checkpoint_age_seconds.
                pass

    def admit(self, worker_ids: Sequence[str]) -> None:
        """Add workers to the pool without the JOIN protocol (an
        explicit ``deploy(worker_ids=...)`` names its devices)."""
        with self.lock:
            for worker_id in worker_ids:
                if worker_id not in self._workers:
                    self._workers.append(worker_id)

    @property
    def worker_ids(self) -> List[str]:
        with self.lock:
            return list(self._workers)

    def members(self) -> List[str]:
        """Every control-plane endpoint: the master device + workers."""
        with self.lock:
            return [self.master_id] + self._workers

    @property
    def stopped(self) -> bool:
        return self._stopped

    # -- lifecycle ---------------------------------------------------------
    def stop(self) -> None:
        """Stop membership tracking; idempotent."""
        with self.lock:
            self._stopped = True
        self._detector_running.clear()
        if self._detector is not None:
            self._detector.join(timeout=2.0)
            self._detector = None


class DeploymentSession:
    """One tenant pipeline deployed over the shared pool.

    Owns the tenant's graph, placement and lifecycle.  Every control
    message it emits is tagged with the tenant id, so workers scope
    deploys/starts/stops to this pipeline's units; the default tenant
    (``""``) emits untagged messages, byte-identical to the historical
    single-app control plane.
    """

    def __init__(self, pool: SwarmPool, graph: AppGraph,
                 tenant_id: str = "") -> None:
        graph.validate()
        self.pool = pool
        self.graph = graph
        self.tenant_id = tenant_id
        self.placement: Optional[Placement] = None
        self.started = False
        pool.attach(self)

    # -- membership callbacks (called under the pool lock) ----------------
    def on_join(self, worker_id: str) -> None:
        if self.placement is None:
            return  # not deployed yet; the worker waits for deploy()
        self.placement.add_worker(self.graph, worker_id)
        self._send_deploy(worker_id)
        self._refresh_upstreams()
        if self.started:
            self.pool.fabric.send(
                self.pool.master_id, worker_id,
                messages.start_message(tenant=self.tenant_id,
                                       epoch=self.pool.epoch))

    def on_leave(self, worker_id: str) -> None:
        if self.placement is None:
            return
        self.placement.remove_worker(worker_id)
        self._refresh_upstreams()

    # -- deployment --------------------------------------------------------
    def deploy(self, worker_ids: Optional[Sequence[str]] = None) -> None:
        """Compute the placement and push DEPLOY to every device."""
        with self.pool.lock:
            if worker_ids is not None:
                self.pool.admit(worker_ids)
            self.placement = Placement.default(self.graph,
                                               self.pool.master_id,
                                               self.pool.worker_ids)
            for worker_id in self.pool.members():
                self._send_deploy(worker_id)

    def _send_deploy(self, worker_id: str) -> None:
        self.pool.fabric.send(self.pool.master_id, worker_id,
                              self._deploy_message(worker_id))

    def _deploy_message(self, worker_id: str) -> messages.Message:
        assert self.placement is not None
        unit_names = self.placement.units_on(worker_id)
        downstream_map = {}
        for unit_name in unit_names:
            for downstream_unit in self.graph.downstreams(unit_name):
                edge = WorkerRuntime.edge_key(unit_name, downstream_unit,
                                              self.tenant_id)
                downstream_map[edge] = self.placement.instances_of(
                    downstream_unit)
        return messages.deploy_message(worker_id, unit_names, downstream_map,
                                       tenant=self.tenant_id,
                                       epoch=self.pool.epoch)

    def _refresh_upstreams(self) -> None:
        """Re-send DEPLOY everywhere so routing tables reflect membership.

        A device may vanish between membership snapshot and send (churn
        is the normal case); its refresh is skipped, not fatal — the
        next membership change re-sends anyway.
        """
        for worker_id in self.pool.members():
            self.pool.send_control(worker_id,
                                   self._deploy_message(worker_id))

    # -- execution ---------------------------------------------------------
    def start(self) -> None:
        """Instruct this tenant's source devices to begin sensing."""
        with self.pool.lock:
            if self.placement is None:
                raise DeploymentError("deploy() must run before start()")
            self.started = True
            for worker_id in self.pool.members():
                self.pool.fabric.send(
                    self.pool.master_id, worker_id,
                    messages.start_message(tenant=self.tenant_id,
                                           epoch=self.pool.epoch))

    def stop(self) -> None:
        """Halt this tenant's sources; other tenants keep running.

        Only meaningful for non-default tenants — workers treat an
        untagged STOP as a global shutdown, so the default session's
        teardown goes through :meth:`Master.stop` instead.
        """
        with self.pool.lock:
            self.started = False
            if self.tenant_id == "":
                return
            for worker_id in self.pool.members():
                self.pool.send_control(worker_id, messages.stop_message(
                    tenant=self.tenant_id, epoch=self.pool.epoch))


class Master:
    """Coordinates deployment, membership and execution of the swarm's
    pipelines.

    One :class:`SwarmPool` plus one :class:`DeploymentSession` per
    pipeline in :attr:`sessions`, keyed by tenant id: the constructor
    graph is the default tenant ``""`` (``graph=None`` hosts none), and
    :meth:`add_pipeline` attaches further tenants to the same pool.
    """

    def __init__(self, master_id: str, fabric: Fabric,
                 graph: Optional[AppGraph],
                 policy: str = "LRS", source_rate: float = 24.0,
                 seed: Optional[int] = None,
                 control_interval: float = 1.0,
                 heartbeat_timeout: float = 0.0,
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 trace: Optional[TraceSink] = None,
                 delivery: Optional[delivery_mod.DeliveryConfig] = None,
                 recovery: Optional[RecoveryConfig] = None,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 epoch: int = 0,
                 policy_config: Optional[PolicyConfig] = None
                 ) -> None:
        if graph is not None:
            graph.validate()
        self.master_id = master_id
        self.fabric = fabric
        self.graph = graph
        self.policy = policy
        self.heartbeat_timeout = heartbeat_timeout
        self.trace = trace if trace is not None else NULL_TRACER
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        # Top-level entry point: when the caller injects no registry,
        # create ONE private registry here and thread it through the
        # pool, the health monitor and the co-located worker runtime, so
        # their metrics aggregate without touching the process default.
        self.registry = (registry if registry is not None
                         else metrics_mod.MetricsRegistry())
        self.pool = SwarmPool(master_id, fabric,
                              heartbeat_timeout=heartbeat_timeout,
                              registry=self.registry, epoch=epoch,
                              detector_interval=self.recovery
                              .detector_interval)
        self.health = self.pool.health
        #: optional crash-recovery checkpointing; None = historical
        #: unrecoverable master (nothing written, nothing to restore)
        self.checkpoints = (CheckpointManager(self._capture_checkpoint,
                                              checkpoint_store,
                                              config=self.recovery,
                                              registry=self.registry)
                            if checkpoint_store is not None else None)
        if self.checkpoints is not None:
            self.pool.on_mutation = self.checkpoints.mutation
        self.runtime = WorkerRuntime(
            master_id, fabric, graph, policy=policy, source_rate=source_rate,
            seed=seed, control_interval=control_interval,
            control_handler=self._handle_control,
            policy_config=policy_config,
            overload=overload, registry=self.registry, trace=trace,
            delivery=delivery, recovery=self.recovery)
        #: one deployment session per pipeline, keyed by tenant id
        self.sessions: Dict[str, DeploymentSession] = {}
        if graph is not None:
            self.sessions[""] = DeploymentSession(self.pool, graph)
        #: tenants the restored checkpoint recorded as stopped; the
        #: successor's start() leaves them stopped
        self._staged_stopped: Tuple[str, ...] = ()
        #: checkpointed retention staged by restore(), imported into the
        #: runtime's dispatchers once the new deployment exists
        self._staged_retention: Tuple = ()
        #: checkpointed key-range tables staged alongside it
        self._staged_key_ranges: Tuple = ()
        self._crashed = False

    @property
    def epoch(self) -> int:
        return self.pool.epoch

    def _handle_control(self, sender_id: str,
                        message: messages.Message) -> None:
        """Pool control handling plus piggybacked periodic checkpoints.

        Heartbeats arrive every interval from every worker, so hanging
        ``maybe_checkpoint`` here gives the periodic path a clock
        without a dedicated timer thread.
        """
        self.pool.handle_control(sender_id, message)
        if self.checkpoints is not None:
            self.checkpoints.maybe_checkpoint()

    # -- multi-tenancy -----------------------------------------------------
    def add_pipeline(self, spec: multitenant_mod.TenantSpec,
                     graph: AppGraph) -> DeploymentSession:
        """Attach one tenant's pipeline to the shared pool.

        Registers the graph (and the spec's source rate, if any) on the
        master's own runtime — callers must register them on every
        remote worker too, which hosts units from this graph once the
        session deploys — and returns the tenant's
        :class:`DeploymentSession`.
        """
        tenant_id = spec.tenant_id
        if tenant_id in self.sessions:
            raise DeploymentError("tenant %r already deployed" % tenant_id)
        self.runtime.register_pipeline(tenant_id, graph)
        if spec.input_rate is not None:
            self.runtime.set_tenant_rate(tenant_id, spec.input_rate)
        session = DeploymentSession(self.pool, graph, tenant_id=tenant_id)
        self.sessions[tenant_id] = session
        return session

    # -- membership (delegated to the pool) --------------------------------
    def handle_join(self, worker_id: str) -> None:
        self.pool.handle_join(worker_id)

    def handle_leave(self, worker_id: str) -> None:
        self.pool.handle_leave(worker_id)

    @property
    def worker_ids(self) -> List[str]:
        return self.pool.worker_ids

    @property
    def _detector(self) -> Optional[threading.Thread]:
        return self.pool._detector

    # -- deployment / execution (every session, in tenant order) -----------
    def deploy(self, worker_ids: Optional[Sequence[str]] = None) -> None:
        """Compute each pipeline's placement and push DEPLOY to every
        device."""
        for _tenant, session in sorted(self.sessions.items()):
            session.deploy(worker_ids)

    def start(self) -> None:
        """Instruct source devices to begin sensing (Fig. 3 step 4) —
        except for tenants a restored checkpoint recorded as stopped."""
        for tenant, session in sorted(self.sessions.items()):
            if tenant not in self._staged_stopped:
                session.start()

    def stop(self) -> None:
        """Shut down control; idempotent, and late membership events
        arriving after this point are ignored rather than raised."""
        self.pool.stop()
        with self.pool.lock:
            for session in self.sessions.values():
                session.started = False
            for worker_id in self.pool.worker_ids:
                self.pool.send_control(worker_id, messages.stop_message(
                    epoch=self.pool.epoch))

    # -- crash recovery ----------------------------------------------------
    def _capture_checkpoint(self) -> ControlPlaneCheckpoint:
        """Snapshot everything a successor needs (checkpoint writer)."""
        with self.pool.lock:
            workers = tuple(self.pool.worker_ids)
            sessions = []
            for _tenant, session in sorted(self.sessions.items()):
                if session.placement is None:
                    continue
                assignments = tuple(sorted(
                    (unit, tuple(hosts))
                    for unit, hosts in session.placement.assignments.items()))
                sessions.append(SessionState(tenant=session.tenant_id,
                                             started=session.started,
                                             assignments=assignments))
        retention = tuple(
            (edge, retention_entries(items))
            for edge, items in sorted(self.runtime.export_retention()
                                      .items()))
        key_ranges = tuple(
            (edge, tuple((lo, hi, owner) for lo, hi, owner in ranges))
            for edge, ranges in sorted(self.runtime.export_key_ranges()
                                       .items()))
        return ControlPlaneCheckpoint(
            epoch=self.pool.epoch, workers=workers, sessions=tuple(sessions),
            retention=retention,
            dedup=tuple((edge, seq)
                        for edge, seq in self.runtime.dedup_snapshot()),
            key_ranges=key_ranges)

    def checkpoint(self) -> None:
        """Write one checkpoint now (no-op without a store)."""
        if self.checkpoints is not None:
            self.checkpoints.write()

    def crash(self) -> None:
        """Abrupt master death for failover testing: no STOP broadcast.

        Halts the control plane and the co-located runtime, writes one
        final checkpoint (standing in for a per-dispatch write-ahead
        log — see DESIGN.md §12), and frees the fabric endpoint so a
        successor can register it.  Workers learn of the death only
        through silence: their units, dispatchers and buffered ACKs all
        stay live.
        """
        if self._crashed:
            return
        self._crashed = True
        self.pool.stop()
        self.runtime.stop()
        if self.checkpoints is not None:
            self.checkpoints.write()
        self.fabric.unregister(self.master_id)

    def restore(self, checkpoint: ControlPlaneCheckpoint) -> Tuple[str, ...]:
        """Adopt a predecessor's checkpoint (call before deploy/start).

        Seeds the co-located sink's dedup window (so redelivered
        retention is absorbed, not double-counted), stages the
        checkpointed replay retention for :meth:`import_retention` and
        the stopped tenants for :meth:`start`, and counts
        ``swing_master_recoveries_total``.  Returns the
        checkpointed worker set so callers can await re-registration
        before computing a placement.
        """
        if self.pool.epoch <= checkpoint.epoch:
            raise DeploymentError(
                "recovered master must run a newer epoch than its "
                "checkpoint (have %d, checkpoint %d)"
                % (self.pool.epoch, checkpoint.epoch))
        self.runtime.restore_dedup(checkpoint.dedup)
        self._staged_stopped = tuple(state.tenant
                                     for state in checkpoint.sessions
                                     if not state.started)
        self._staged_retention = checkpoint.retention
        self._staged_key_ranges = checkpoint.key_ranges
        self.registry.increment(metrics_mod.MASTER_RECOVERIES_TOTAL,
                                device=self.master_id)
        if self.trace.enabled:
            now = time.monotonic()
            self.trace.emit(Span(RECOVERY, 0, now, now,
                                 device_id=self.master_id,
                                 hop="master:%s" % self.master_id,
                                 detail="epoch=%d" % self.pool.epoch))
        return checkpoint.workers

    def import_retention(self) -> int:
        """Re-retain staged checkpoint retention (call after deploy).

        The runtime's edge dispatchers only exist once the new
        deployment's DEPLOY has been processed, so the import is a
        separate step; entries land unassigned and the next control
        sweep redelivers them.  Returns the number imported.
        """
        count = 0
        for edge, entries in self._staged_retention:
            count += self.runtime.import_retention(edge, entries)
        self._staged_retention = ()
        # Keyed routing survives failover too: re-apply the predecessor's
        # range tables over the fresh deploy's bootstrap tables, so every
        # split/migration it performed stays in force.
        for edge, ranges in self._staged_key_ranges:
            self.runtime.import_key_ranges(edge, ranges)
        self._staged_key_ranges = ()
        return count
