"""High-level entry point: run Swing apps on an in-process swarm.

:class:`SwingRuntime` wires the whole workflow of Fig. 3 together: it
creates a master (device A) and a set of worker threads, lets workers
join via discovery, deploys the dataflow graphs, starts the sources, and
collects ordered results from the sinks.  Per-worker ``slowdowns``
emulate device heterogeneity on one development machine.

One runtime runs one pipeline or many: given an :class:`AppGraph` it is
the default tenant ``""`` (every frame, edge key and metric label as in
a single-app swarm); given ``(TenantSpec, AppGraph)`` pairs, every
tenant shares the same master, workers, fabric, registry and tracer.

Example::

    runtime = SwingRuntime(graph, worker_ids=["B", "G", "H"],
                           source_rate=12.0,
                           config=PolicyConfig(policy="LRS", probe_every=2))
    results = runtime.run(until_idle=2.0)
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro import metrics as metrics_mod
from repro.core import migration
from repro.core import multitenant as multitenant_mod
from repro.core.controller import PolicyConfig
from repro.core.exceptions import DeploymentError, RuntimeStateError
from repro.core.function_unit import SinkUnit
from repro.core.graph import AppGraph
from repro.core.recovery import (CheckpointStore, RecoveryConfig,
                                 load_checkpoint)
from repro.core.reorder import ReorderBuffer
from repro.core.requirements import PerformanceRequirement
from repro.core.tuples import DataTuple
from repro.runtime.fabric import Fabric, InProcFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime
from repro.trace import NULL_TRACER, TraceSink

#: the control round of a runtime built without a *config*: a quarter
#: of the paper's 1 s, so a short in-process run sees several rounds
CONTROL_INTERVAL = 0.25
#: start-up and master-restart waits for workers to join and deploy
AWAIT_TIMEOUT = 5.0
AWAIT_POLL = 0.005
#: how often :meth:`SwingRuntime.run` checks whether the sink went idle
RUN_POLL = 0.02


class SwingRuntime:
    """Build, run and tear down a complete in-process swarm.

    *graph* is one :class:`AppGraph` (the default tenant ``""``) or a
    sequence of ``(TenantSpec, AppGraph)`` pairs.  Each tenant gets its
    own deployment session (tenant-tagged control messages) and source
    pacing (``TenantSpec.input_rate``, else the shared rate).

    *config* is the one :class:`PolicyConfig` the master and every
    worker share (default: every field's default, with a
    :data:`CONTROL_INTERVAL` round).  When its ``overload`` bounds the
    mailbox depth (``queue_capacity``), the weighted budgets of
    :func:`repro.core.multitenant.tenant_budgets` are installed on every
    mailbox the runtime creates — including a successor master's and a
    spawned worker's — so an overloaded tenant sheds its own tuples
    before touching anyone else's.

    ``requirement`` (a :class:`PerformanceRequirement`) takes precedence
    over ``source_rate`` and also sizes the sink-side reorder buffer —
    the programmer-declared performance contract of paper Sec. IV-A.
    """

    def __init__(self,
                 graph: Union[AppGraph, Sequence[
                     Tuple[multitenant_mod.TenantSpec, AppGraph]]],
                 worker_ids: Sequence[str],
                 master_id: str = "A",
                 source_rate: float = 24.0,
                 requirement: Optional[PerformanceRequirement] = None,
                 slowdowns: Optional[Dict[str, float]] = None,
                 config: Optional[PolicyConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 trace: Optional[TraceSink] = None,
                 heartbeat_interval: float = 0.0,
                 heartbeat_timeout: float = 0.0,
                 recovery: Optional[RecoveryConfig] = None,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 fabric_wrapper: Optional[Callable[[Fabric], Fabric]] = None
                 ) -> None:
        if master_id in worker_ids:
            raise RuntimeStateError("master id must not collide with workers")
        if not worker_ids:
            raise RuntimeStateError("a swarm needs at least one worker")
        if isinstance(graph, AppGraph):
            #: the tenant pipelines beside the default one (none here)
            self.specs: List[multitenant_mod.TenantSpec] = []
            #: every pipeline's graph by tenant id ("" = default)
            self.graphs: Dict[str, AppGraph] = {"": graph}
        else:
            if not graph:
                raise RuntimeStateError("need at least one tenant pipeline")
            self.specs = [spec for spec, _graph in graph]
            self.graphs = {spec.tenant_id: pipeline
                           for spec, pipeline in graph}
            if len(self.graphs) != len(graph):
                raise RuntimeStateError("duplicate tenant id in pipelines")
        self.requirement = requirement or PerformanceRequirement(
            input_rate=source_rate)
        #: ONE control-plane config for the master and every worker, so
        #: every edge dispatcher (and keyed range table) agrees
        self.config = (config if config is not None
                       else PolicyConfig(control_interval=CONTROL_INTERVAL))
        # Top-level entry point: when no registry is injected, create ONE
        # shared registry here and thread it through the fabric, master
        # and every worker, so the whole swarm's metrics aggregate.
        self.registry = (registry if registry is not None
                         else metrics_mod.MetricsRegistry())
        #: worker→master liveness beacons; 0 disables them (the default,
        #: matching the seed behavior) — churn runs need them so silent
        #: crashes are evicted and rejoins are visible
        self.heartbeat_interval = heartbeat_interval
        #: shared TraceSink (a :class:`repro.trace.Tracer`); every
        #: device in the in-process swarm records into the same ring
        self.tracer = trace if trace is not None else NULL_TRACER
        #: the master's checkpoint cadence (every incarnation)
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        #: durable checkpoint store; None = historical unrecoverable master
        self.checkpoint_store = checkpoint_store
        overload = self.config.overload
        capacity = overload.queue_capacity if overload is not None else None
        self._budgets = (multitenant_mod.tenant_budgets(self.specs, capacity)
                         if capacity is not None else {})
        self._priorities = {spec.tenant_id: spec.priority
                            for spec in self.specs}
        self.fabric: Fabric = InProcFabric(overload=overload,
                                           registry=self.registry)
        if fabric_wrapper is not None:
            # e.g. a ChaosFabric injecting seeded link faults — built by
            # the caller so this module stays free of chaos imports
            self.fabric = fabric_wrapper(self.fabric)
        self._master_id = master_id
        self._heartbeat_timeout = heartbeat_timeout
        self._slowdowns = dict(slowdowns or {})
        self.master = self._make_master()
        self.workers: Dict[str, WorkerRuntime] = {}
        for worker_id in worker_ids:
            self.workers[worker_id] = self._make_worker(worker_id)
        self._running = False

    def _make_master(self, epoch: int = 0) -> Master:
        """The master (incarnation *epoch*) with every pipeline attached."""
        master = Master(self._master_id, self.fabric, self.graphs.get(""),
                        source_rate=self.requirement.input_rate,
                        heartbeat_timeout=self._heartbeat_timeout,
                        registry=self.registry, trace=self.tracer,
                        recovery=self.recovery,
                        checkpoint_store=self.checkpoint_store, epoch=epoch,
                        policy_config=self.config)
        for spec in self.specs:
            master.add_pipeline(spec, self.graphs[spec.tenant_id])
        self._install_budgets(master.runtime)
        return master

    def _make_worker(self, worker_id: str) -> WorkerRuntime:
        """A worker with every tenant's graph and rate registered."""
        worker = WorkerRuntime(
            worker_id, self.fabric, self.graphs.get(""),
            slowdown=self._slowdowns.get(worker_id, 0.0),
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_target=self._master_id, policy_config=self.config,
            registry=self.registry, trace=self.tracer)
        for spec in self.specs:
            worker.register_pipeline(spec.tenant_id,
                                     self.graphs[spec.tenant_id])
            if spec.input_rate is not None:
                worker.set_tenant_rate(spec.tenant_id, spec.input_rate)
        self._install_budgets(worker)
        return worker

    def _install_budgets(self, runtime: WorkerRuntime) -> None:
        """Fair-share budgets on *runtime*'s mailbox: ``fabric.register``
        made it fresh, so every runtime built here needs them."""
        if self._budgets:
            runtime.mailbox.set_tenant_budgets(self._budgets,
                                               self._priorities)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Launch threads, join workers, deploy and start every pipeline."""
        if self._running:
            raise RuntimeStateError("runtime already started")
        self.master.runtime.start()
        for worker in self.workers.values():
            worker.start()
            worker.join_master(self._master_id)
        missing = self._await_membership(set(self.workers), AWAIT_TIMEOUT)
        if missing:
            raise DeploymentError("workers never joined: %r"
                                  % sorted(missing))
        self.master.deploy()
        self._await_deployment()
        self.master.start()
        self._running = True

    def _await_membership(self, expected: set, timeout: float) -> set:
        """Wait up to *timeout* seconds for every worker in *expected*
        to be a pool member; returns the ones still missing."""
        deadline = time.monotonic() + timeout
        while True:
            missing = expected - set(self.master.worker_ids)
            if not missing or time.monotonic() >= deadline:
                return missing
            time.sleep(AWAIT_POLL)

    def _await_deployment(self, timeout: float = AWAIT_TIMEOUT) -> None:
        deadline = time.monotonic() + timeout
        runtimes = [self.master.runtime] + list(self.workers.values())
        for runtime in runtimes:
            remaining = max(0.0, deadline - time.monotonic())
            if not runtime.deployed.wait(timeout=remaining):
                raise DeploymentError("deployment timed out on %s"
                                      % runtime.worker_id)

    def stop_tenant(self, tenant_id: str) -> None:
        """Halt one tenant's sources; every other tenant keeps running."""
        try:
            session = self.master.sessions[tenant_id]
        except KeyError:
            raise RuntimeStateError("unknown tenant %r" % tenant_id) from None
        session.stop()

    def stop(self) -> None:
        if not self._running:
            return
        self.master.stop()
        for worker in self.workers.values():
            worker.stop()
        self.master.runtime.stop()
        self.fabric.close()
        self._running = False

    def __enter__(self) -> "SwingRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- master failover (used by the chaos harness) -----------------------
    def crash_master(self) -> None:
        """Abruptly kill the master process-equivalent.

        No STOP broadcast goes out: workers keep their units, keep
        processing whatever reaches them, and keep heartbeating into
        the void.  With a checkpoint store configured, the master's
        final checkpoint (the crash model's WAL stand-in) is written on
        the way down; without one, recovery starts from nothing.
        """
        self.master.crash()

    def restart_master(self,
                       await_workers: Optional[float] = None) -> int:
        """Bring up a successor master from the last checkpoint.

        The successor runs at ``checkpoint.epoch + 1`` on the same
        endpoint with every pipeline re-attached: it restores the
        co-located sinks' dedup window, waits (up to *await_workers*,
        default ``AWAIT_TIMEOUT``) for
        checkpointed survivors to re-register — their heartbeats draw an
        epoch-stamped WELCOME, which triggers a JOIN carrying their
        hosted-unit inventory — then redeploys, restarts sources, and
        re-imports the checkpointed replay retention so unacknowledged
        tuples are redelivered (duplicates absorbed by the restored
        dedup).  Returns the number of retention entries re-imported.
        """
        if await_workers is None:
            await_workers = AWAIT_TIMEOUT
        checkpoint = (load_checkpoint(self.checkpoint_store)
                      if self.checkpoint_store is not None else None)
        epoch = (checkpoint.epoch if checkpoint is not None else 0) + 1
        self.master = self._make_master(epoch)
        expected: set = set()
        if checkpoint is not None:
            # Await only survivors that still exist on this runtime —
            # a worker that died during the outage can never re-register.
            expected = (set(self.master.restore(checkpoint))
                        & set(self.workers))
        self.master.runtime.start()
        # A survivor that never re-registers is left out of the new
        # deployment; it rejoins through the ordinary JOIN path.
        self._await_membership(expected, await_workers)
        self.master.deploy()
        self._await_deployment()
        self.master.start()
        imported = self.master.import_retention()
        self.master.checkpoint()
        return imported

    # -- churn (used by the chaos harness) ---------------------------------
    def crash_worker(self, worker_id: str) -> None:
        """Kill *worker_id* without any goodbye (silent crash).

        The fabric endpoint is torn down first so in-flight sends to the
        dead worker fail fast (``ChannelClosed`` → immediate dead-mark in
        the upstream dispatcher), then the thread is stopped.  No LEAVE
        is sent: detection must come from send failures, loss accounting
        and missed heartbeats — exactly like the simulator's silent-kill
        fault.
        """
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            raise RuntimeStateError("unknown worker %r" % worker_id)
        self.fabric.unregister(worker_id)
        worker.stop()

    def drain_worker(self, worker_id: str, quiet: Optional[float] = None,
                     timeout: float = 10.0) -> float:
        """Gracefully drain *worker_id* (LEAVING protocol); returns the
        measured drain duration in seconds."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            raise RuntimeStateError("unknown worker %r" % worker_id)
        elapsed = worker.leave(self._master_id, quiet=quiet, timeout=timeout)
        self.fabric.unregister(worker_id)
        return elapsed

    def spawn_worker(self, worker_id: str, slowdown: float = 0.0) -> None:
        """Start a (re)joining worker under *worker_id* and add it to the
        swarm; the master redeploys and resets its health history."""
        if worker_id in self.workers:
            raise RuntimeStateError("worker %r already running" % worker_id)
        self._slowdowns[worker_id] = slowdown
        worker = self._make_worker(worker_id)
        self.workers[worker_id] = worker
        worker.start()
        worker.join_master(self._master_id)

    # -- results -----------------------------------------------------------
    def sink_unit(self, tenant: str = "") -> SinkUnit:
        """One pipeline's sink instance (hosted on the master device)."""
        try:
            graph = self.graphs[tenant]
        except KeyError:
            raise RuntimeStateError("unknown tenant %r" % tenant) from None
        sinks = graph.sinks()
        if len(sinks) != 1:
            raise DeploymentError("expected exactly one sink, found %d"
                                  % len(sinks))
        unit = self.master.runtime.unit(sinks[0].name, tenant=tenant)
        if not isinstance(unit, SinkUnit):
            raise DeploymentError("sink unit is not a SinkUnit")
        return unit

    def results(self, tenant: str = "") -> List[DataTuple]:
        """What one pipeline's sink has received so far, in arrival order."""
        return list(self.sink_unit(tenant).results)

    def run(self, until_idle: float = 1.0, timeout: float = 60.0,
            reorder: bool = True) -> List[DataTuple]:
        """Start, wait for the stream to drain, stop, return sink results.

        The stream is considered drained once the sink has received no
        new result for *until_idle* seconds.  Results are replayed
        through a reorder buffer sized at one second of the source rate
        (paper Sec. IV-C) unless ``reorder=False``.  Single-pipeline
        only: with several, call :meth:`start`, read
        :meth:`results` per tenant, then :meth:`stop`.
        """
        if self.specs:
            raise DeploymentError(
                "run() drives the default pipeline only; with tenant "
                "pipelines use start(), results(tenant) and stop()")
        self.start()
        sink = self.sink_unit()
        seen = 0

        def flowing() -> bool:
            nonlocal seen
            before, seen = seen, len(sink.results)
            return seen == 0 or seen != before

        migration.run(migration.quiesce(flowing, until_idle, RUN_POLL,
                                        timeout), time.sleep)
        self.stop()
        results = list(sink.results)
        if not reorder:
            return results
        return order_results(results, self.requirement.input_rate,
                             timespan=self.requirement.reorder_timespan)

    def meets_requirement(self, achieved_rate: float) -> bool:
        """Did *achieved_rate* satisfy the declared performance contract?"""
        return self.requirement.meets_rate(achieved_rate)


def order_results(results: List[DataTuple], source_rate: float,
                  timespan: float = 1.0) -> List[DataTuple]:
    """Replay *results* through the Reordering Service's buffer."""
    buffer = ReorderBuffer.for_rate(max(source_rate, 1.0), timespan=timespan)
    by_seq = {}
    playback = []
    for index, data in enumerate(results):
        by_seq.setdefault(data.seq, data)
        playback.extend(buffer.offer(data.seq, float(index)))
    playback.extend(buffer.flush(float(len(results))))
    return [by_seq[record.seq] for record in playback if record.seq in by_seq]
