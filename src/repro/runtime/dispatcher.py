"""Upstream dispatcher: the real runtime's adapter over the LRS control plane.

One dispatcher lives at every hosted function unit that has downstream
units.  The routing policy, ACK tracker, rate meter, once-per-second
policy update, probing, and dead-marking all live in the shared
:class:`~repro.core.controller.LrsController`; this module only
translates the threaded runtime's substrate into the controller's three
ports: ``time.monotonic`` as the Clock, a health-gated, retried fabric
send as the Egress, and the process's metrics registry as the sink.
:meth:`UpstreamDispatcher.dispatch` is called for every tuple the unit
emits; :meth:`UpstreamDispatcher.on_ack` for every timestamp echo that
returns.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro import metrics as metrics_mod
from repro.core import delivery as delivery_mod
from repro.core import overload as overload_mod
from repro.core.batching import BatchBuffer
from repro.core.controller import LrsController, PolicyConfig
from repro.core.exceptions import RoutingError
from repro.core.keyed import hash_key
from repro.core.policies import PolicyDecision
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.fabric import SEND_ERRORS
from repro.runtime.health import HealthMonitor
from repro.runtime.serialization import encode_batch, encode_tuple
from repro.trace import NULL_TRACER, SERIALIZE, SHED, Span, TraceSink

#: an instance is addressed as "unit@worker"
InstanceId = str

#: update-round history kept per long-lived dispatcher (policy rounds
#: run ~1/s; the simulator keeps an unbounded log instead)
DECISION_HISTORY = 256


def instance_id(unit_name: str, worker_id: str) -> InstanceId:
    return "%s@%s" % (unit_name, worker_id)


def split_instance(instance: InstanceId) -> Tuple[str, str]:
    unit_name, _, worker_id = instance.partition("@")
    if not unit_name or not worker_id:
        raise RoutingError("malformed instance id %r" % instance)
    return unit_name, worker_id


class BatchPayload:
    """Opaque egress context for one batched flush: frame + member seqs.

    The controller passes it through to :meth:`UpstreamDispatcher._try_send`
    (and retains it wholesale for at-least-once replay, so a redelivery
    re-sends the entire batch and the receiver's dedup window absorbs
    already-delivered members).
    """

    __slots__ = ("frame", "seqs", "nbytes")

    def __init__(self, frame: bytes, seqs) -> None:
        self.frame = frame
        self.seqs = list(seqs)
        #: lets the replay buffer charge the batch at its wire size
        self.nbytes = len(frame)


class _FabricEgress:
    """Egress port: encode-once payloads pushed via health-gated sends."""

    def __init__(self, dispatcher: "UpstreamDispatcher") -> None:
        self._dispatcher = dispatcher

    def send(self, downstream_id: InstanceId, seq: int,
             context: Optional[bytes]) -> Optional[float]:
        return self._dispatcher._try_send(downstream_id, context, seq)

    def send_redelivery(self, downstream_id: InstanceId, seq: int,
                        context: Optional[bytes],
                        attempt: int) -> Optional[float]:
        """Replay send: same path, but the attempt number rides along
        so the receiver can attribute the duplicate to redelivery."""
        return self._dispatcher._try_send(downstream_id, context, seq,
                                          attempt=attempt)


class UpstreamDispatcher:
    """Routes one unit's output tuples across downstream instances."""

    def __init__(self, unit_name: str,
                 send: Callable[[str, messages.Message], Optional[bool]],
                 policy: str = "LRS", seed: Optional[int] = None,
                 control_interval: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 edge: Optional[str] = None,
                 health: Optional[HealthMonitor] = None,
                 max_send_retries: int = 1,
                 ack_timeout: Optional[float] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 config: Optional[PolicyConfig] = None,
                 trace: Optional[TraceSink] = None,
                 device_id: str = "",
                 delivery: Optional[delivery_mod.DeliveryConfig] = None,
                 tenant: str = "",
                 on_batch_open: Optional[Callable[[], None]] = None
                 ) -> None:
        self.unit_name = unit_name
        self.edge = edge or unit_name
        self.device_id = device_id
        #: owning tenant pipeline; "" is the single-tenant namespace and
        #: keeps every wire frame and metric identity unchanged
        self.tenant = tenant
        self._trace = trace if trace is not None else NULL_TRACER
        self._send = send
        self._clock = clock
        if config is None:
            defaults = PolicyConfig()
            config = PolicyConfig(
                policy=policy, seed=seed,
                control_interval=(control_interval
                                  if control_interval is not None
                                  else defaults.control_interval),
                ack_timeout=(ack_timeout if ack_timeout is not None
                             else defaults.ack_timeout),
                delivery=delivery)
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._health = health
        self._max_send_retries = max(0, max_send_retries)
        self._lock = threading.Lock()
        self._downstreams: Dict[InstanceId, Tuple[str, str]] = {}
        self.controller = LrsController(config, clock=clock,
                                        egress=_FabricEgress(self),
                                        registry=self._registry,
                                        name=self.edge,
                                        max_decisions=DECISION_HISTORY,
                                        trace=self._trace,
                                        tenant=tenant)
        # -- batched data plane: pending tuples awaiting a flush ---------
        batching = self.controller.config.batching_config()
        self._batch_lock = threading.Lock()
        self._batch: Optional[BatchBuffer] = (BatchBuffer(batching)
                                              if batching.enabled else None)
        #: called when a tuple opens a new partial batch, so the hosting
        #: loop can wake in time to age-flush it (see flush_due_in)
        self._on_batch_open = on_batch_open

    # -- membership --------------------------------------------------------
    def set_downstreams(self, instances) -> None:
        """Reconcile the downstream instance set (deploy updates)."""
        desired = {instance: split_instance(instance)
                   for instance in instances}
        with self._lock:
            previous = set(self._downstreams)
            self._downstreams = desired
        self.controller.set_downstreams(sorted(desired))
        if self._health is not None:
            # Instances that are new to this deploy round belong to a
            # (re)joining worker: start it from a clean slate so a
            # pre-departure failure streak can't instantly re-kill it.
            for instance in set(desired) - previous:
                self._health.reset_peer(desired[instance][1])

    def add_downstream(self, instance: InstanceId) -> None:
        parts = split_instance(instance)
        with self._lock:
            known = instance in self._downstreams
            self._downstreams[instance] = parts
        self.controller.add_downstream(instance)
        if self._health is not None and not known:
            self._health.reset_peer(parts[1])

    def remove_downstream(self, instance: InstanceId) -> None:
        with self._lock:
            self._downstreams.pop(instance, None)
        self.controller.remove_downstream(instance)

    def downstream_instances(self):
        with self._lock:
            return sorted(self._downstreams)

    def live_instances(self):
        """Downstream instances not currently marked dead."""
        return self.controller.live_downstreams()

    # -- data plane ----------------------------------------------------------
    def dispatch(self, data: DataTuple) -> Optional[InstanceId]:
        """Route one tuple; returns the chosen instance (None if lost).

        A failed send is retried up to ``max_send_retries`` times (gated
        by the health monitor's backoff window); once a downstream
        exhausts its attempts the controller marks it dead — kept in the
        membership so probing can resurrect it, but excluded from
        routing — and re-routes the tuple to the next live downstream
        (Sec. IV-C).

        A tuple already past its deadline is shed here, at egress,
        before any transmission cost is paid; the shed is counted as
        ``swing_tuples_shed_total{reason=expired}``.
        """
        now = self._clock()
        tracer = self._trace
        # The wire-carried context wins over the local sampling decision
        # so every hop traces exactly the tuples the source sampled.
        sampled = (data.trace.sampled if data.trace is not None
                   else tracer.sampled(data.seq))
        if data.expired(now):
            self._registry.increment(
                metrics_mod.SHED_TOTAL,
                **metrics_mod.tenant_labels(
                    self.tenant, reason=overload_mod.REASON_EXPIRED,
                    edge=self.edge))
            if tracer.enabled:
                tracer.emit(Span(SHED, data.seq, now, now,
                                 device_id=self.device_id or self.edge,
                                 hop="egress:%s" % self.edge,
                                 detail=overload_mod.REASON_EXPIRED,
                                 tenant=self.tenant),
                            sampled=sampled)
            return None
        self.controller.observe_arrival(now)
        self.controller.maybe_update(now)
        if tracer.enabled:
            encode_started = self._clock()
            payload = encode_tuple(data)
            tracer.emit(Span(SERIALIZE, data.seq, encode_started,
                             self._clock(),
                             device_id=self.device_id or self.edge,
                             hop="serialize:%s" % self.edge),
                        sampled=sampled)
        else:
            payload = encode_tuple(data)
        if data.key is not None and self.controller.key_table is not None:
            # Keyed tuples bypass the batch buffer: a batch is one
            # routing decision, and key-range ownership must be honored
            # per key, not per flush.
            return self.controller.dispatch(data.seq, context=payload,
                                            deadline=data.deadline,
                                            key_hash=hash_key(data.key))
        if self._batch is None:
            return self.controller.dispatch(data.seq, context=payload,
                                            deadline=data.deadline)
        with self._batch_lock:
            full = self._batch.append((data.seq, payload, data.deadline),
                                      now)
            close = full or self._batch.due(now)
            opened = len(self._batch) == 1
        if close:
            return self.flush(now)
        if opened and self._on_batch_open is not None:
            self._on_batch_open()
        return None

    def flush(self, now: Optional[float] = None) -> Optional[InstanceId]:
        """Send the pending batch now; returns the chosen downstream.

        A one-tuple batch is placed like any other and rides the DATA
        envelope, byte-identical to unbatched dispatch.
        """
        if self._batch is None:
            return None
        with self._batch_lock:
            items = self._batch.take()
        if not items:
            return None
        if now is None:
            now = self._clock()
        seqs = [seq for seq, _payload, _deadline in items]
        deadlines = [deadline for _seq, _payload, deadline in items
                     if deadline is not None]
        deadline = min(deadlines) if deadlines else None
        if len(items) == 1:
            context: object = items[0][1]
        else:
            context = BatchPayload(
                encode_batch([payload for _seq, payload, _d in items]), seqs)
        return self.controller.dispatch_batch(seqs, context=context,
                                              deadline=deadline)

    def maybe_flush(self, now: Optional[float] = None) -> Optional[InstanceId]:
        """Flush only when the oldest pending tuple has waited past
        ``max_delay`` (the hosting loop's periodic age check)."""
        if self._batch is None:
            return None
        if now is None:
            now = self._clock()
        with self._batch_lock:
            due = self._batch.due(now)
        if due:
            return self.flush(now)
        return None

    def flush_due_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the pending batch is due for :meth:`maybe_flush`
        (None: nothing pending) — how long the hosting loop may block."""
        if self._batch is None:
            return None
        if now is None:
            now = self._clock()
        with self._batch_lock:
            return self._batch.due_in(now)

    def pending_batch(self) -> int:
        """Tuples buffered and not yet flushed (drain visibility)."""
        if self._batch is None:
            return 0
        with self._batch_lock:
            return len(self._batch)

    def unsatisfiable(self) -> bool:
        """Whether every downstream is currently marked dead (the source
        admission-control backpressure signal)."""
        return self.controller.unsatisfiable()

    def _try_send(self, instance: InstanceId, payload: object,
                  seq: int, attempt: int = 1) -> Optional[float]:
        """Attempt (with bounded retry) to push one tuple (or one
        :class:`BatchPayload`) at *instance*.

        Returns the send timestamp on success, None once the instance
        exhausts its attempts (or sits inside its backoff window).
        ``attempt`` > 1 marks an at-least-once redelivery; it is stamped
        on the wire so the receiver can attribute the duplicate.  A frame
        *send* only held (it returned True) is no proof of life: whoever
        holds it credits the peer's health when the burst leaves.
        """
        with self._lock:
            parts = self._downstreams.get(instance)
        if parts is None:
            return None
        unit_name, worker_id = parts
        attempts = 1 + self._max_send_retries
        for retry in range(attempts):
            if (self._health is not None
                    and not self._health.should_attempt(worker_id)):
                break
            if retry > 0:
                self._registry.increment(metrics_mod.RETRIED_TOTAL,
                                         downstream=instance)
            now = self._clock()
            if isinstance(payload, BatchPayload):
                message = messages.batch_message(unit_name, payload.frame,
                                                 payload.seqs, now,
                                                 tenant=self.tenant)
            else:
                message = messages.data_message(unit_name, payload, seq, now,
                                                tenant=self.tenant)
            message.payload["edge"] = self.edge
            if attempt > 1:
                message.payload["delivery_attempt"] = attempt
            try:
                held = self._send(worker_id, message)
            except SEND_ERRORS:
                if self._health is not None:
                    self._health.record_failure(worker_id)
                continue
            if self._health is not None and not held:
                self._health.record_success(worker_id)
            return now
        return None

    def on_ack(self, seq: int, processing_delay: float) -> None:
        """Fold a downstream's timestamp echo into the estimators."""
        self._credit_health(self.controller.on_ack(
            seq, processing_delay=processing_delay))

    def on_ack_batch(self, seqs, processing_delay: float) -> None:
        """Fold one batched timestamp echo into the estimators."""
        self._credit_health(self.controller.on_ack_batch(
            seqs, processing_delay=processing_delay))

    def _credit_health(self, result) -> None:
        """A matched echo is proof of life for the worker that sent it."""
        if result is not None and self._health is not None:
            self._health.record_ack(split_instance(result.downstream_id)[1])

    # -- control plane ---------------------------------------------------
    def force_update(self) -> PolicyDecision:
        """Run a policy round immediately (tests, shutdown reporting)."""
        return self.controller.update()

    @property
    def policy(self):
        return self.controller.policy

    @property
    def _tracker(self):
        # Kept for tests/tools that inject tracker state directly.
        return self.controller.tracker

    @property
    def dispatched(self) -> int:
        return self.controller.dispatched

    @property
    def ack_count(self) -> int:
        return self.controller.ack_count

    def stats(self):
        return self.controller.stats()
