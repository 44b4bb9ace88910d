"""Worker runtime: one thread hosting function-unit instances.

A worker corresponds to one device in the swarm.  It receives DEPLOY
from the master naming the function units to activate (every device has
the whole app installed — Fig. 3 step 3), processes DATA messages with
the hosted units, returns ACKs carrying the measured processing delay,
and runs an :class:`~repro.runtime.dispatcher.UpstreamDispatcher` for
every hosted unit that has downstream units.

``slowdown`` emulates device heterogeneity on a shared development
machine: processing sleeps for ``slowdown * measured_compute`` extra
seconds, scaling a fast host down to a phone-like service rate.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from repro import metrics as metrics_mod
from repro.core import delivery as delivery_mod
from repro.core import migration
from repro.core import overload as overload_mod
from repro.core.controller import PolicyConfig
from repro.core.exceptions import (DeploymentError, RuntimeStateError,
                                   SerializationError)
from repro.core.function_unit import FunctionUnit, SourceUnit, UnitContext
from repro.core.graph import AppGraph
from repro.core.keyed import KeyRange, KeyRangeTable
from repro.core.recovery import RecoveryConfig, RetainedEntry
from repro.core.state import (InMemoryStateStore, decode_state_snapshot,
                              encode_state_snapshot, snapshot_range)
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.dispatcher import (BatchPayload, UpstreamDispatcher,
                                      instance_id)
from repro.runtime.fabric import SEND_ERRORS, Fabric, Mailbox
from repro.runtime.health import HealthMonitor
from repro.runtime.serialization import decode_batch, decode_tuple
from repro.trace import (NULL_TRACER, PROCESS, QUEUE_WAIT, SHED, Span,
                         SpanContext, TraceSink)

#: control kinds a worker rejects when stamped with a stale master epoch.
#: DATA/BATCH are never fenced (a late tuple is still a real tuple) and
#: neither are ACKs — fencing only protects control-plane mutations.
_FENCED_KINDS = frozenset({messages.DEPLOY, messages.START, messages.STOP,
                           messages.WELCOME})

#: A loop thread writes its held frames out once this many are waiting:
#: bounds the burst one ``sendmsg`` carries and how long the first frame
#: can sit behind the bookkeeping of the messages that followed it.
HOLD_MAX_FRAMES = 32

#: A unit whose previous call took longer than this is compute, not
#: bookkeeping: held frames go out before it is called again.  A held
#: frame may wait for bookkeeping, never for user compute — the paper's
#: units take 9-46 ms, so in its regime nothing is ever held across a
#: unit call and LRS's L_i samples are what they were.
HOLD_MAX_UNIT_S = 0.001


class WorkerRuntime:
    """Hosts and drives function units on one swarm endpoint."""

    def __init__(self, worker_id: str, fabric: Fabric,
                 graph: Optional[AppGraph],
                 policy: str = "LRS", slowdown: float = 0.0,
                 source_rate: float = 24.0, seed: Optional[int] = None,
                 control_interval: float = 1.0,
                 control_handler: Optional[Callable] = None,
                 heartbeat_interval: float = 0.0,
                 heartbeat_target: Optional[str] = None,
                 health: Optional[HealthMonitor] = None,
                 policy_config: Optional[PolicyConfig] = None,
                 overload: Optional[overload_mod.OverloadConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 trace: Optional[TraceSink] = None,
                 delivery: Optional[delivery_mod.DeliveryConfig] = None,
                 recovery: Optional[RecoveryConfig] = None
                 ) -> None:
        if slowdown < 0:
            raise RuntimeStateError("slowdown must be non-negative")
        if heartbeat_interval < 0:
            raise RuntimeStateError("heartbeat interval must be >= 0")
        self.worker_id = worker_id
        self.health = health if health is not None else HealthMonitor()
        self.fabric = fabric
        self.graph = graph
        self.policy_name = policy
        self.slowdown = slowdown
        self.source_rate = source_rate
        self.seed = seed
        self.control_interval = control_interval
        #: optional full control-plane config shared by every edge
        #: dispatcher; when set it wins over the scalar knobs above
        self.policy_config = policy_config
        if overload is None and policy_config is not None:
            overload = policy_config.overload
        #: overload-protection knobs (deadline stamping at the source,
        #: source admission control); defaults to everything disabled
        self.overload = (overload if overload is not None
                         else overload_mod.OverloadConfig())
        if delivery is None and policy_config is not None:
            delivery = policy_config.delivery
        #: delivery-semantics knobs (None = historical best-effort)
        self.delivery = delivery
        #: recovery/timing knobs (idle tick, drain pacing, epoch fencing)
        self.recovery = recovery if recovery is not None else RecoveryConfig()
        #: highest master epoch adopted so far; 0 = never-recovered
        #: master, where fencing is inert and frames stay byte-identical
        self._master_epoch = 0
        #: ingress dedup: at-least-once redelivery may hand a worker the
        #: same (edge, seq) twice; the window suppresses the duplicate
        #: before it reaches the unit, so throughput/accuracy counters
        #: never double-count
        self._dedup = (delivery_mod.DedupWindow(delivery.dedup_window)
                       if delivery is not None and delivery.at_least_once
                       else None)
        # The top-level entry points (Master / SwingRuntime) create one
        # shared registry and thread it through every worker they own.
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        #: TraceSink shared by this worker's units, dispatchers and the
        #: data-plane handler; disabled unless the runtime injects one
        self.tracer = trace if trace is not None else NULL_TRACER
        self._control_handler = control_handler
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_target = heartbeat_target
        self._mailbox: Mailbox = fabric.register(worker_id)
        #: this device's span hop and shed/dedup queue label, built once
        #: (the data plane formats no string per tuple)
        self._hop = "worker:%s" % worker_id
        #: per-tenant pipeline graphs; "" is the constructor graph (the
        #: single-tenant namespace; ``graph=None`` hosts no default
        #: pipeline).  Sessions of a shared pool register their tenants'
        #: graphs before deploying to this worker.
        self._graphs: Dict[str, AppGraph] = ({"": graph} if graph is not None
                                             else {})
        #: hosted units keyed by tenant-scoped unit key ("unit" for the
        #: default tenant, "tenant:unit" otherwise)
        self._units: Dict[str, FunctionUnit] = {}
        self._dispatchers: Dict[str, UpstreamDispatcher] = {}
        #: per-key operator state, keyed like ``_units`` — created for
        #: units that declare ``stateful = True`` and migrated between
        #: workers by key range
        self._key_states: Dict[str, InMemoryStateStore] = {}
        self._running = threading.Event()
        #: set by stop(): interrupts source pacing / heartbeat sleeps so
        #: shutdown returns promptly instead of riding out the interval
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._source_threads: List[threading.Thread] = []
        self._heartbeat_thread: Optional[threading.Thread] = None
        self.processed_count = 0
        #: per-tenant processed-tuple tally ("" = default tenant)
        self.processed_by_tenant: Dict[str, int] = {}
        #: tenants whose sources are currently running; a tenant-scoped
        #: STOP removes one entry without touching anyone else
        self._started_tenants: set = set()
        #: per-tenant source pacing overrides (tuples/s); tenants absent
        #: here pump at the worker-wide ``source_rate``
        self._tenant_rates: Dict[str, float] = {}
        #: unit keys whose source pump thread is already running
        self._pumping: set = set()
        self.deployed = threading.Event()
        #: True while a DATA message is being handled (drain visibility)
        self._data_active = False
        #: results and ACKs the loop thread has emitted but not yet
        #: written, per target, in emission order.  Touched by the loop
        #: thread only, so it needs no lock: every other thread's sends
        #: go straight out (see _emit).
        self._held: Dict[str, List[messages.Message]] = {}
        self._held_count = 0
        self._loop_ident: Optional[int] = None
        #: duration of each hosted unit's most recent call (hold rule)
        self._last_call_s: Dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeStateError("worker %s already started" % self.worker_id)
        self._running.set()
        self._stopped.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="worker:%s" % self.worker_id,
                                        daemon=True)
        self._thread.start()
        if self.heartbeat_interval > 0 and self.heartbeat_target:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name="heartbeat:%s" % self.worker_id, daemon=True)
            self._heartbeat_thread.start()

    def _heartbeat_loop(self) -> None:
        """Periodic liveness beacon toward the master (Background Service).

        Send failures feed the health monitor, whose exponential backoff
        stretches the beacon interval so a dead link is not hammered
        with blocking reconnect attempts.
        """
        while self._running.is_set():
            try:
                self.fabric.send(
                    self.worker_id, self.heartbeat_target,
                    messages.Message(messages.HEARTBEAT,
                                     {"worker_id": self.worker_id}))
                self.health.record_success(self.heartbeat_target)
            except SEND_ERRORS:
                self.health.record_failure(self.heartbeat_target)
            self._stopped.wait(self.heartbeat_interval
                               + self.health.backoff_for(self.heartbeat_target))

    def stop(self, timeout: float = 5.0) -> None:
        self._running.clear()
        self._started_tenants.clear()
        self._stopped.set()
        for thread in self._source_threads:
            thread.join(timeout=timeout)
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=timeout)
            self._heartbeat_thread = None
        if self._thread is not None:
            self._mailbox.wake()  # do not wait out the idle tick
            self._thread.join(timeout=timeout)
            self._thread = None
        # The main loop is gone: any partial batch still buffered would
        # be lost silently, so push it out on the caller's thread.
        self._flush_dispatchers(force=True)
        for unit in self._units.values():
            unit.on_stop()

    def join_master(self, master_id: str) -> None:
        """Announce this worker to the master (Fig. 3 step 2)."""
        self.fabric.send(self.worker_id, master_id,
                         messages.join_message(self.worker_id))

    # -- graceful drain ----------------------------------------------------
    def leave(self, master_id: str, quiet: Optional[float] = None,
              timeout: float = 10.0) -> float:
        """Graceful drain: LEAVING, finish the mailbox, then depart.

        The master stops routing here on LEAVING; this blocks until the
        mailbox has been empty and no DATA message in flight for *quiet*
        seconds (default: the recovery config's ``drain_quiet``).  A
        drain must terminate, so *timeout* caps the wait, but leaving
        with work undone is counted: ``swing_drain_timeouts_total``.
        Returns the drain duration, also observed into
        ``swing_drain_duration_seconds{device=...}``.
        """
        if quiet is None:
            quiet = self.recovery.drain_quiet
        started = time.monotonic()
        self.fabric.send(self.worker_id, master_id,
                         messages.leaving_message(self.worker_id))

        def busy() -> bool:
            self._flush_dispatchers(force=True)
            return self.busy() or any(
                d.pending_batch() for d in list(self._dispatchers.values()))

        if not migration.run(
                migration.quiesce(busy, quiet, self.recovery.drain_poll,
                                  timeout), time.sleep):
            self._registry.increment(metrics_mod.DRAIN_TIMEOUTS_TOTAL,
                                     device=self.worker_id)
        elapsed = time.monotonic() - started
        self._registry.observe_histogram(metrics_mod.DRAIN_SECONDS, elapsed,
                                         device=self.worker_id)
        self.stop()
        return elapsed

    # -- migration host (repro.core.migration.MigrationHost) ---------------
    def alive(self) -> bool:
        return self._running.is_set()

    def busy(self, key_range: Optional[KeyRange] = None) -> bool:
        """A frame is queued, in service, or emitted but still held.  The
        mailbox holds undecoded frames, so this answers for every key
        range at once."""
        return (len(self._mailbox) > 0 or self._data_active
                or self._held_count > 0)

    # -- main loop ---------------------------------------------------------
    def _loop(self) -> None:
        self._loop_ident = threading.get_ident()
        try:
            self._serve_mailbox()
        finally:
            self._flush_held()
            # Thread idents are recycled: a later thread must not be
            # mistaken for this loop and have its sends held for ever.
            self._loop_ident = None

    def _serve_mailbox(self) -> None:
        wait = self.recovery.worker_idle_tick
        while self._running.is_set():
            if self._held_count and (self._held_count >= HOLD_MAX_FRAMES
                                     or not len(self._mailbox)):
                # Full, or about to block with nothing queued behind
                # which a held frame could usefully wait.
                self._flush_held()
            try:
                sender_id, message = self._mailbox.get(timeout=wait)
            except TimeoutError:
                # Idle until the oldest partial batch fell due (or a
                # source pump opened one): close what has aged past its
                # flush delay.
                wait = self._flush_dispatchers()
                continue
            try:
                self._handle(sender_id, message)
            except Exception:  # noqa: BLE001 - a unit may raise anything
                # A poison message must not kill the device's service —
                # but what it cost is counted, never silent.
                self._registry.increment(metrics_mod.DROPPED_TOTAL,
                                         reason="handler_error",
                                         link="?>%s" % self.worker_id)
            finally:
                wait = self._flush_dispatchers()

    def _flush_dispatchers(self, force: bool = False) -> float:
        """Age-flush (or force-flush) every edge dispatcher's batch;
        returns how long the loop may block before the oldest batch left
        pending falls due (the idle tick when none is pending)."""
        wait = self.recovery.worker_idle_tick
        for dispatcher in list(self._dispatchers.values()):
            try:
                if force:
                    dispatcher.flush()
                else:
                    dispatcher.maybe_flush()
                    due_in = dispatcher.flush_due_in()
                    if due_in is not None and due_in < wait:
                        wait = max(0.0, due_in)
            except Exception:  # noqa: BLE001 - send errors never get here
                # The send itself is health-accounted by the dispatcher;
                # anything else that broke the flush is counted here.
                self._registry.increment(metrics_mod.DROPPED_TOTAL,
                                         reason="flush_error",
                                         link="%s>?" % self.worker_id)
        return wait

    def _batch_opened(self) -> None:
        """A dispatcher opened a partial batch.  On the loop thread the
        loop sees it when it next computes its wait; from a source pump
        the loop may already be blocked on the idle tick, so wake it."""
        if threading.get_ident() != self._loop_ident:
            self._mailbox.wake()

    # -- held writes -------------------------------------------------------
    def _emit(self, target_id: str, message: messages.Message) -> bool:
        """Send one result or ACK frame: held on the loop thread, straight
        out from any other.  Returns whether the frame was held.

        The loop thread emits a result and an ACK per tuple, each a
        ``sendall`` that gives the GIL away; holding them per target and
        writing the burst in one :meth:`Fabric.send_many` is what makes
        the TCP path one syscall per burst.  Held frames are written
        when the mailbox is empty (:meth:`_serve_mailbox`), before a
        unit that is known to be slow is called (:meth:`_serve`), and at
        ``HOLD_MAX_FRAMES`` — always between unit calls, never from in
        here, so a burst write is not charged to the unit whose emit
        happened to fill the buffer.  Source pumps, heartbeats,
        ``leave()``'s and ``stop()``'s force-flush and master control run
        on other threads and bypass the buffer, which is why it needs no
        lock.  A held frame's send cannot fail synchronously, and proves
        nothing about the peer; see :meth:`_flush_held`.
        """
        if threading.get_ident() != self._loop_ident:
            self.fabric.send(self.worker_id, target_id, message)
            return False
        held = self._held.get(target_id)
        if held is None:
            held = self._held[target_id] = []
        held.append(message)
        self._held_count += 1
        return True

    def _flush_held(self) -> None:
        """Write every held frame, one burst per target.

        The peer's health is credited here, where the bytes leave: a
        burst that went out is one success.  A burst that fails is never
        silent: the peer's health record takes the failure (so the
        dispatcher's next send to it is gated like after a synchronous
        failure, and ``max_failures`` failed bursts mark it dead), and
        every frame of the burst is counted — ``ack_unsent`` for an
        echo, ``send_failed`` for a result, which its upstream edge will
        redeliver or charge as lost.
        """
        if not self._held_count:
            return
        held, self._held = self._held, {}
        self._held_count = 0
        for target_id, burst in held.items():
            try:
                self.fabric.send_many(self.worker_id, target_id, burst)
            except SEND_ERRORS:
                self.health.record_failure(target_id)
                link = "%s>%s" % (self.worker_id, target_id)
                for message in burst:
                    self._registry.increment(
                        metrics_mod.DROPPED_TOTAL, link=link,
                        reason=("ack_unsent" if message.kind == messages.ACK
                                else "send_failed"))
            else:
                self.health.record_success(target_id)

    # -- epoch fencing -----------------------------------------------------
    @property
    def master_epoch(self) -> int:
        """Highest master incarnation this worker has adopted."""
        return self._master_epoch

    def _admit_epoch(self, message: messages.Message) -> bool:
        """Epoch-fence one incoming message.

        Any message stamped with a *newer* epoch makes the worker adopt
        that incarnation.  Control-plane mutations (DEPLOY / START /
        STOP / WELCOME) stamped with an *older* epoch are rejected and
        counted — a zombie predecessor must never un-deploy or stop a
        worker that already follows the recovered master.  Unstamped
        frames are epoch 0, so pre-recovery traffic is unaffected.
        """
        epoch = message.payload.get("epoch", 0)
        if not isinstance(epoch, int) or epoch < 0:
            epoch = 0
        if epoch > self._master_epoch:
            self._master_epoch = epoch
            return True
        if epoch < self._master_epoch and message.kind in _FENCED_KINDS:
            self._registry.increment(metrics_mod.FENCED_TOTAL,
                                     device=self.worker_id,
                                     kind=message.kind)
            return False
        return True

    def _reregister(self, master_id: str) -> None:
        """JOIN a recovered master, carrying the hosted-unit inventory.

        The recovered master reconciles this inventory against its
        checkpoint; the JOIN is idempotent on its side, so retriggered
        re-registrations (WELCOME per heartbeat until one lands) are
        harmless.  The master's failure history is forgotten so that the
        first send to the successor is not held in transport backoff: an
        edge that dead-marked the master-hosted instances (the sink above
        all) during the outage keeps sending to them, and their first
        ACK brings them back.
        """
        self.health.forget(master_id)
        try:
            self.fabric.send(self.worker_id, master_id,
                             messages.join_message(self.worker_id,
                                                   units=self.hosted_units(),
                                                   epoch=self._master_epoch))
        except SEND_ERRORS:
            # The next heartbeat's WELCOME reply retriggers this.
            self._registry.increment(
                metrics_mod.DROPPED_TOTAL, reason="control_unsent",
                link="%s>%s" % (self.worker_id, master_id))

    def _handle(self, sender_id: str, message: messages.Message) -> None:
        if not self._admit_epoch(message):
            return
        if message.kind == messages.DEPLOY:
            self._on_deploy(message)
        elif message.kind == messages.DATA or message.kind == messages.BATCH:
            self._data_active = True
            try:
                self._serve(sender_id, message)
            finally:
                self._data_active = False
        elif message.kind == messages.ACK:
            self._on_ack(message)
        elif message.kind == messages.START:
            self._on_start(message.payload.get("tenant") or "")
        elif message.kind == messages.STOP:
            tenant = message.payload.get("tenant") or ""
            if tenant:
                # Tenant-scoped stop: only that tenant's sources halt;
                # the worker (and every other tenant) keeps running.
                self._started_tenants.discard(tenant)
            else:
                self._running.clear()
                self._started_tenants.clear()
        elif message.kind == messages.WELCOME \
                and message.payload.get("epoch", 0):
            # A recovered master is announcing its new incarnation
            # (adopted above): re-register with our inventory.
            self._reregister(sender_id)
        elif self._control_handler is not None:
            self._control_handler(sender_id, message)

    # -- deployment ----------------------------------------------------------
    def register_pipeline(self, tenant_id: str, graph: AppGraph) -> None:
        """Register one tenant's pipeline graph on this worker.

        A shared worker hosts function units from multiple tenants
        concurrently; the units a tenant-scoped DEPLOY names are built
        from that tenant's registered graph.  The empty tenant id is the
        constructor graph.
        """
        graph.validate()
        self._graphs[tenant_id] = graph

    def set_tenant_rate(self, tenant_id: str, rate: float) -> None:
        """Override one tenant's source pacing (tuples per second)."""
        if rate < 0:
            raise RuntimeStateError("tenant rate must be >= 0")
        self._tenant_rates[tenant_id] = rate

    def _on_deploy(self, message: messages.Message) -> None:
        tenant = message.payload.get("tenant", "")
        unit_names = message.payload.get("unit_names", [])
        downstream_map = message.payload.get("downstream_map", {})
        if tenant not in self._graphs:
            return  # unknown tenant: its pipeline was never registered
        desired = {self.unit_key(name, tenant) for name in unit_names}
        for name in unit_names:
            if self.unit_key(name, tenant) not in self._units:
                self._activate(name, tenant)
        # Reconcile ONLY this tenant's units: a tenant-scoped deploy
        # must never tear down another tenant's instances.
        for key in list(self._units):
            if self._key_tenant(key) == tenant and key not in desired:
                self._deactivate(key)
        for edge, instances in downstream_map.items():
            dispatcher = self._dispatchers.get(edge)
            if dispatcher is not None:
                dispatcher.set_downstreams(instances)
                self._maybe_bootstrap_key_table(dispatcher, instances)
        self.deployed.set()

    def _maybe_bootstrap_key_table(self, dispatcher: UpstreamDispatcher,
                                   instances) -> None:
        """Seed a keyed edge's range table on its first deploy.

        The table partitions the key space evenly over the sorted
        downstream instances, so every worker that hosts this edge's
        upstream derives the identical table without coordination.
        Later deploys leave an existing table alone — splits and
        migrations own it from then on.
        """
        if self.policy_config is None or self.policy_config.keyed is None:
            return
        if dispatcher.controller.key_table is not None or not instances:
            return
        dispatcher.controller.set_key_table(
            KeyRangeTable.bootstrap(sorted(instances)))

    @staticmethod
    def unit_key(unit_name: str, tenant: str = "") -> str:
        """Hosted-unit key: plain name for the default tenant,
        ``tenant:unit`` otherwise."""
        if not tenant:
            return unit_name
        return "%s:%s" % (tenant, unit_name)

    @staticmethod
    def edge_key(unit_name: str, downstream_unit: str,
                 tenant: str = "") -> str:
        """Dispatcher key for the logical edge unit -> downstream_unit.

        Tenant-scoped (``tenant:unit>downstream``) for non-default
        tenants; the key rides on every DATA/BATCH/ACK payload, so ACK
        routing stays tenant-correct without extra lookups.
        """
        key = "%s>%s" % (unit_name, downstream_unit)
        if not tenant:
            return key
        return "%s:%s" % (tenant, key)

    @staticmethod
    def _key_tenant(key: str) -> str:
        """Tenant of a scoped unit/edge key ("" for the default)."""
        tenant, sep, _rest = key.partition(":")
        return tenant if sep else ""

    def _activate(self, unit_name: str, tenant: str = "") -> None:
        graph = self._graphs[tenant]
        spec = graph.unit(unit_name)
        unit = spec.factory()
        if not isinstance(unit, FunctionUnit):
            raise DeploymentError("factory for %r did not build a FunctionUnit"
                                  % unit_name)
        downstream_units = graph.downstreams(unit_name)
        edge_dispatchers = []
        for downstream_unit in downstream_units:
            # One dispatcher per logical edge: a tuple goes to EVERY
            # downstream unit, routed among that unit's device replicas.
            key = self.edge_key(unit_name, downstream_unit, tenant)
            dispatcher = UpstreamDispatcher(
                unit_name,
                send=self._emit,
                policy=self.policy_name, seed=self.seed,
                control_interval=self.control_interval, edge=key,
                health=self.health, config=self.policy_config,
                registry=self._registry, trace=self.tracer,
                device_id=self.worker_id, delivery=self.delivery,
                tenant=tenant, on_batch_open=self._batch_opened)
            self._dispatchers[key] = dispatcher
            edge_dispatchers.append(dispatcher)
        emit = self._make_emit(edge_dispatchers)
        unit_key = self.unit_key(unit_name, tenant)
        state = None
        if getattr(unit, "stateful", False):
            # Worker-hosted per-key state: survives across tuples, is
            # snapshotted by key range for live migration.
            state = self._key_states.setdefault(unit_key,
                                                InMemoryStateStore())
        context = UnitContext(unit_name=unit_name,
                              instance_id=instance_id(unit_name, self.worker_id),
                              emit=emit, now=time.monotonic, state=state)
        unit.bind(context)
        unit.on_start()
        self._units[unit_key] = unit

    def _make_emit(self, dispatchers):
        def _emit(data: DataTuple) -> None:
            for dispatcher in dispatchers:
                dispatcher.dispatch(data)
        return _emit

    def _deactivate(self, unit_key: str) -> None:
        unit = self._units.pop(unit_key, None)
        if unit is not None:
            unit.on_stop()
        self._key_states.pop(unit_key, None)
        self._last_call_s.pop(unit_key, None)
        prefix = "%s>" % unit_key
        for key in [key for key in self._dispatchers if key.startswith(prefix)]:
            del self._dispatchers[key]

    # -- data plane ------------------------------------------------------
    def _serve(self, sender_id: str, message: messages.Message) -> None:
        """Serve one DATA or BATCH message: a tuple is a batch of one.

        Per tuple: ingress dedup, expiry shed, spans, unit processing.
        Per message: ONE timestamp echo, shaped by the kind that arrived
        — ``seq`` for DATA, ``seqs`` plus the mean per-tuple compute
        time for BATCH (the same number at n = 1).  The ACK is sent even
        when every member was deduped or shed: the upstream must still
        release its replay retention, its failure detector must see a
        healthy worker (a skip is a policy decision, not a fault), and
        its ACK accounting must not charge the tuple as lost as well.
        A frame that fails to decode gets no ACK at all: the upstream's
        replay machinery redelivers or expires it.
        """
        payload = message.payload
        unit_name = payload["unit"]
        tenant = payload.get("tenant", "")
        unit_key = self.unit_key(unit_name, tenant)
        unit = self._units.get(unit_key)
        if unit is None:
            return
        single = message.kind == messages.DATA
        try:
            # A DATA tuple is decoded detached (units keep receiving
            # ``bytes``); BATCH members are zero-copy views of the frame.
            batch = ([decode_tuple(payload["tuple"])] if single
                     else decode_batch(payload["batch"]))
        except SerializationError:
            # Poison frame: no ACK, so upstream replay/expiry handles
            # the tuples — but the drop itself must be loud.
            self._registry.increment(metrics_mod.DROPPED_TOTAL,
                                     reason="corrupt_batch",
                                     link="?>%s" % self.worker_id)
            return
        edge = payload.get("edge", "")
        attempt = payload.get("delivery_attempt", 1)
        sent_at = payload["sent_at"]
        tracer = self.tracer
        hop = self._hop
        busy = 0.0
        for data in batch:
            data.delivery_attempt = attempt
            if self._dedup is not None and self._dedup.seen((edge, data.seq)):
                # At-least-once redelivery raced the original: suppress
                # the duplicate before the unit sees it, but still ACK.
                self._registry.increment(
                    metrics_mod.DEDUPED_TOTAL,
                    **metrics_mod.tenant_labels(tenant, queue=hop))
                continue
            if self._held_count and (
                    self._held_count >= HOLD_MAX_FRAMES
                    or self._last_call_s.get(unit_key, 0.0) > HOLD_MAX_UNIT_S):
                # Before the clock starts: writing earlier results is
                # not this tuple's processing time.
                self._flush_held()
            started = time.monotonic()
            sampled = (data.trace.sampled if data.trace is not None
                       else tracer.sampled(data.seq))
            if tracer.enabled:
                # Mailbox wait + wire time, as observed by the shared
                # in-process clock (sent_at is the sender's stamp).
                tracer.emit(Span(QUEUE_WAIT, data.seq, sent_at, started,
                                 device_id=self.worker_id, hop=hop,
                                 detail=unit_name, tenant=tenant),
                            sampled=sampled)
            if data.expired(started):
                # Too stale to be useful: skip the compute, not the ACK.
                self._registry.increment(
                    metrics_mod.SHED_TOTAL,
                    **metrics_mod.tenant_labels(
                        tenant, reason=overload_mod.REASON_EXPIRED,
                        queue=hop))
                if tracer.enabled:
                    tracer.emit(Span(SHED, data.seq, started, started,
                                     device_id=self.worker_id, hop=hop,
                                     detail=overload_mod.REASON_EXPIRED,
                                     tenant=tenant),
                                sampled=sampled)
                continue
            unit.process_data(data)
            elapsed = time.monotonic() - started
            if self.slowdown > 0.0:
                time.sleep(self.slowdown * max(elapsed, 1e-6))
                elapsed = time.monotonic() - started
            self._last_call_s[unit_key] = elapsed
            if tracer.enabled:
                tracer.emit(Span(PROCESS, data.seq, started, started + elapsed,
                                 device_id=self.worker_id, hop=hop,
                                 detail=unit_name, tenant=tenant),
                            sampled=sampled)
            self.processed_count += 1
            self.processed_by_tenant[tenant] = \
                self.processed_by_tenant.get(tenant, 0) + 1
            busy += elapsed
        if single:
            ack = messages.ack_message(payload["seq"], sent_at, busy,
                                       epoch=self._master_epoch)
        else:
            seqs = payload.get("seqs") or [data.seq for data in batch]
            ack = messages.batch_ack_message(seqs, sent_at,
                                             busy / len(batch),
                                             epoch=self._master_epoch)
        ack.payload["edge"] = edge
        self._send_ack(sender_id, ack)

    def _send_ack(self, upstream_id: str, ack: messages.Message) -> None:
        try:
            self._emit(upstream_id, ack)
        except SEND_ERRORS:
            # The upstream is gone: nothing to acknowledge — but an echo
            # that never left is counted here, where it was lost.
            self._registry.increment(
                metrics_mod.DROPPED_TOTAL, reason="ack_unsent",
                link="%s>%s" % (self.worker_id, upstream_id))

    def _on_ack(self, message: messages.Message) -> None:
        dispatcher = self._dispatchers.get(message.payload.get("edge", ""))
        if dispatcher is None:
            return
        seqs = message.payload.get("seqs")
        if seqs:
            dispatcher.on_ack_batch(seqs, message.payload["processing_delay"])
        else:
            dispatcher.on_ack(message.payload["seq"],
                              message.payload["processing_delay"])

    # -- sources ------------------------------------------------------------
    def _on_start(self, tenant: str) -> None:
        """Start one tenant's source pumps; a no-op if already started.

        An untagged START names the default tenant ``""`` — the only
        one a single-app worker hosts, since tenant sessions always tag
        their START — so a shared pool brings pipelines up and down
        independently.
        """
        if tenant in self._started_tenants:
            return
        self._started_tenants.add(tenant)
        for unit_key, unit in list(self._units.items()):
            if (isinstance(unit, SourceUnit) and unit_key not in self._pumping
                    and self._key_tenant(unit_key) == tenant):
                self._pumping.add(unit_key)
                thread = threading.Thread(
                    target=self._pump_source, args=(unit_key, unit),
                    name="source:%s@%s" % (unit_key, self.worker_id),
                    daemon=True)
                thread.start()
                self._source_threads.append(thread)

    def _source_backpressured(self, unit_key: str) -> Optional[str]:
        """Shed-at-source decision for *unit_key*'s next tuple.

        Combines the local mailbox depth with the edge dispatchers'
        all-downstreams-dead signal through the shared
        :func:`~repro.core.overload.source_admission` policy.  Inactive
        (always admits) unless some overload knob is switched on, so the
        historical keep-emitting-and-count-losses behavior is preserved
        by default.
        """
        if not self.overload.enabled:
            return None
        prefix = "%s>" % unit_key
        edge_dispatchers = [d for key, d in self._dispatchers.items()
                            if key.startswith(prefix)]
        unsatisfiable = bool(edge_dispatchers) and all(
            d.unsatisfiable() for d in edge_dispatchers)
        return overload_mod.source_admission(len(self._mailbox),
                                             unsatisfiable, self.overload)

    def _pump_source(self, unit_key: str, unit: SourceUnit) -> None:
        tenant = self._key_tenant(unit_key)
        rate = self._tenant_rates.get(tenant, self.source_rate)
        interval = 1.0 / rate if rate > 0 else 0.0
        try:
            while self._running.is_set() and tenant in self._started_tenants:
                started = time.monotonic()
                reason = self._source_backpressured(unit_key)
                if reason is not None:
                    # Admission control: refuse doomed work before spending
                    # generate/encode/transmit effort on it.
                    self._registry.increment(
                        metrics_mod.SHED_TOTAL,
                        **metrics_mod.tenant_labels(tenant, reason=reason,
                                                    source=unit_key))
                else:
                    data = unit.generate()
                    if data is None:
                        break
                    if tenant and not data.tenant:
                        # Stamp ownership at the origin; the codec carries
                        # it across every downstream hop.
                        data.tenant = tenant
                    if self.overload.ttl is not None and data.deadline is None:
                        base = data.created_at if data.created_at else started
                        data.deadline = self.overload.deadline_for(base)
                    if self.tracer.enabled and data.trace is None:
                        # Stamp the sampling decision once, at the origin;
                        # it rides the codec to every downstream hop.
                        data.trace = SpanContext(
                            sampled=self.tracer.sampled(data.seq),
                            origin=unit_key)
                    unit.context.emit(data)  # fans out to every downstream edge
                if interval > 0:
                    leftover = interval - (time.monotonic() - started)
                    if leftover > 0:
                        # Interruptible pacing: stop() sets the event, so
                        # shutdown never waits out a full source interval.
                        self._stopped.wait(leftover)
        finally:
            # The pump exited (stop, tenant stop, or source exhaustion):
            # a later START for this tenant may spawn a fresh pump.
            self._pumping.discard(unit_key)

    # -- introspection -----------------------------------------------------
    def unit(self, unit_name: str, tenant: str = "") -> FunctionUnit:
        try:
            return self._units[self.unit_key(unit_name, tenant)]
        except KeyError:
            raise DeploymentError("unit %r not deployed on %s"
                                  % (self.unit_key(unit_name, tenant),
                                     self.worker_id)) from None

    def hosted_units(self) -> List[str]:
        return sorted(self._units)

    # -- control-plane checkpoint hooks ----------------------------------
    def dedup_snapshot(self) -> List[tuple]:
        """Ingress-dedup window keys, oldest first (checkpoint input)."""
        if self._dedup is None:
            return []
        return [tuple(key) for key in self._dedup.snapshot()]

    def restore_dedup(self, keys) -> None:
        """Seed the ingress-dedup window from a checkpoint.

        A restarted master's co-located sink must not double-deliver
        tuples its predecessor already delivered; restoring the window
        before data flows again is what makes redelivered retention an
        absorbed duplicate instead of a double count.
        """
        if self._dedup is not None:
            self._dedup.restore([tuple(key) for key in keys])

    def export_retention(self) -> Dict[str, List[tuple]]:
        """Per-edge replay-retention export across this runtime's
        dispatchers (checkpoint input; empty edges omitted)."""
        exported = {}
        for edge, dispatcher in list(self._dispatchers.items()):
            items = dispatcher.controller.export_retention()
            if items:
                exported[edge] = items
        return exported

    def import_retention(self, edge: str,
                         entries: List[RetainedEntry]) -> int:
        """Re-retain checkpointed *entries* on *edge*'s dispatcher.

        Each entry lands unassigned; the controller's next sweep
        redelivers it to a live downstream, whose dedup absorbs any
        member that was in fact already delivered.  Returns how many
        entries were imported (0 when the edge is not deployed here).
        """
        dispatcher = self._dispatchers.get(edge)
        if dispatcher is None:
            return 0
        items = []
        for entry in entries:
            if len(entry.seqs) > 1:
                context: object = BatchPayload(entry.frame, list(entry.seqs))
            else:
                context = entry.frame
            items.append((entry.seq, entry.attempt, entry.deadline, context,
                          tuple(entry.seqs)))
        return dispatcher.controller.import_retention(items)

    # -- keyed state hosting ----------------------------------------------
    def state_store(self, unit_name: str,
                    tenant: str = "") -> InMemoryStateStore:
        """The per-key state store of a hosted stateful unit."""
        key = self.unit_key(unit_name, tenant)
        try:
            return self._key_states[key]
        except KeyError:
            raise DeploymentError("no keyed state for %r: not hosted on %s"
                                  % (key, self.worker_id)) from None

    def export_key_state(self, unit_name: str, key_range: KeyRange,
                         tenant: str = "") -> bytes:
        """Extract one key range of a unit's state as a wire snapshot.

        The entries leave this worker's store — after a successful
        install on the new owner the range no longer lives here.
        """
        store = self.state_store(unit_name, tenant)
        return encode_state_snapshot(
            snapshot_range(store, tenant, unit_name, key_range))

    def import_key_state(self, frame: bytes) -> int:
        """Install a state snapshot on this worker, which must already
        host the (stateful) unit; returns the number of keys installed."""
        snapshot = decode_state_snapshot(frame)
        self.state_store(snapshot.unit, snapshot.tenant).install(
            snapshot.entries)
        return len(snapshot.entries)

    def export_key_ranges(self) -> Dict[str, List[tuple]]:
        """Per-edge key-range assignments (checkpoint input)."""
        exported = {}
        for edge, dispatcher in list(self._dispatchers.items()):
            table = dispatcher.controller.key_table
            if table is not None:
                exported[edge] = [list(item) for item in table.snapshot()]
        return exported

    def import_key_ranges(self, edge: str, entries) -> bool:
        """Adopt checkpointed key-range assignments for *edge*.

        Replaces the bootstrap table the deploy installed, so a
        recovered master preserves every split/migration its
        predecessor performed.
        """
        dispatcher = self._dispatchers.get(edge)
        if dispatcher is None:
            return False
        dispatcher.controller.set_key_table(
            KeyRangeTable.restore(tuple(item) for item in entries))
        return True

    @property
    def mailbox(self) -> Mailbox:
        """This worker's fabric mailbox (fair-share budgets install here)."""
        return self._mailbox

    def dispatcher(self, unit_name: str,
                   downstream_unit: Optional[str] = None,
                   tenant: str = "") -> UpstreamDispatcher:
        """The dispatcher for ``unit_name`` (qualified by edge if needed)."""
        if downstream_unit is not None:
            key = self.edge_key(unit_name, downstream_unit, tenant)
            if key in self._dispatchers:
                return self._dispatchers[key]
            raise DeploymentError("edge %r not deployed on %s"
                                  % (key, self.worker_id))
        prefix = "%s>" % self.unit_key(unit_name, tenant)
        matches = [d for key, d in self._dispatchers.items()
                   if key.startswith(prefix)]
        if len(matches) != 1:
            raise DeploymentError(
                "unit %r has %d dispatchers on %s; qualify the edge"
                % (unit_name, len(matches), self.worker_id))
        return matches[0]
