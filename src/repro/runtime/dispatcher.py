"""Upstream dispatcher: the real runtime's adapter over the LRS control plane.

One dispatcher lives at every hosted function unit that has downstream
units.  The routing policy, ACK tracker, rate meter, once-per-second
policy update, probing, and dead-marking all live in the shared
:class:`~repro.core.controller.LrsController`; this module only
translates the threaded runtime's substrate into the controller's three
ports: ``time.monotonic`` as the Clock, a health-gated fabric send as
the Egress, and the process's metrics registry as the sink.
:meth:`UpstreamDispatcher.dispatch` is called for every tuple the unit
emits; :meth:`UpstreamDispatcher.on_ack` (``on_ack_batch``,
``on_echo``) for every ACK that returns;
:meth:`UpstreamDispatcher.tick` by the hosting worker's loop whenever
the edge's next deadline (control round or batch flush) falls due; :meth:`UpstreamDispatcher.flush_held` by that loop when it writes
the tuples it held.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import metrics as metrics_mod
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
from repro.runtime.serialization import (MAX_BATCH_TUPLES, encode_batch,
                                         encode_tuple)
from repro.trace import NULL_TRACER, SERIALIZE, SHED, Span, TraceSink

#: an instance is addressed as "unit@worker"
InstanceId = str

#: update-round history kept per long-lived dispatcher (policy rounds
#: run ~1/s; the simulator keeps an unbounded log instead)
DECISION_HISTORY = 256

#: Held tuples joined into one BATCH stop short of this many encoded
#: bytes: joining only amortises per-frame costs, which large tuples do
#: not have, and it keeps every joined frame far below
#: ``channels.MAX_FRAME_BYTES``.  A tuple this large leaves alone, as
#: the DATA frame unheld dispatch would send.
HOLD_MAX_BATCH_BYTES = 1 << 20


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


def _held_frames(items: list) -> List[list]:
    """Cut one downstream's held ``(seq, payload, deadline)`` items, in
    order, into frames of at most :data:`HOLD_MAX_BATCH_BYTES` encoded
    bytes and :data:`MAX_BATCH_TUPLES` tuples (a lone larger tuple is a
    frame of its own)."""
    frames: List[list] = []
    frame: list = []
    size = 5  # the BATCH header: magic + count
    for item in items:
        grown = size + 4 + len(item[1])
        if frame and (grown > HOLD_MAX_BATCH_BYTES
                      or len(frame) == MAX_BATCH_TUPLES):
            frames.append(frame)
            frame, grown = [], 9 + len(item[1])
        frame.append(item)
        size = grown
    frames.append(frame)
    return frames


def _wire_unit(items) -> Tuple[List[int], object, Optional[float]]:
    """One wire unit of ``(seq, payload, deadline)`` items, in order:
    ``(seqs, context, deadline)``.  A lone payload rides the DATA
    envelope, byte-identical to unbatched dispatch; several ride one
    BATCH frame.  The unit's deadline is its earliest member's."""
    seqs = [seq for seq, _payload, _deadline in items]
    deadlines = [deadline for _seq, _payload, deadline in items
                 if deadline is not None]
    deadline = min(deadlines) if deadlines else None
    if len(items) == 1:
        return seqs, items[0][1], deadline
    return seqs, BatchPayload(
        encode_batch([payload for _seq, payload, _d in items]),
        seqs), deadline


class _FabricEgress:
    """Egress port: encode-once payloads pushed via health-gated sends."""

    def __init__(self, dispatcher: "UpstreamDispatcher") -> None:
        self._dispatcher = dispatcher

    def send(self, downstream_id: InstanceId, seq: int,
             context: Optional[bytes], attempt: int) -> Optional[float]:
        return self._dispatcher._try_send(downstream_id, context, seq,
                                          attempt)


class UpstreamDispatcher:
    """Routes one unit's output tuples across downstream instances.

    *config* is the edge's control-plane settings: the hosting worker's
    one :class:`PolicyConfig`, handed unchanged to its controller.
    """

    def __init__(self, unit_name: str,
                 send: Callable[[str, messages.Message], Optional[bool]],
                 config: PolicyConfig,
                 clock: Callable[[], float] = time.monotonic,
                 edge: Optional[str] = None,
                 health: Optional[HealthMonitor] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 trace: Optional[TraceSink] = None,
                 device_id: str = "",
                 tenant: str = "",
                 on_batch_open: Optional[Callable[[], None]] = None,
                 hold: Optional[Callable[["UpstreamDispatcher"], bool]]
                 = None) -> None:
        self.unit_name = unit_name
        self.edge = edge or unit_name
        self.device_id = device_id
        #: owning tenant pipeline; "" is the single-tenant namespace and
        #: keeps every wire frame and metric identity unchanged
        self.tenant = tenant
        self._trace = trace if trace is not None else NULL_TRACER
        self._send = send
        self._clock = clock
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._health = health
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
        #: loop can wake in time to age-flush it (see tick)
        self._on_batch_open = on_batch_open
        #: asked per tuple of an unbatched, unkeyed edge: True when the
        #: calling thread holds its writes and will call flush_held at
        #: its next flush point (the hosting worker's loop thread)
        self._hold = hold
        #: (seq, payload, deadline) held since the last flush_held, in
        #: emission order; only the holding thread touches it
        self._held: List[Tuple[int, bytes, Optional[float]]] = []

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
                self._health.record_success(desired[instance][1])

    def add_downstream(self, instance: InstanceId) -> None:
        parts = split_instance(instance)
        with self._lock:
            known = instance in self._downstreams
            self._downstreams[instance] = parts
        self.controller.add_downstream(instance)
        if self._health is not None and not known:
            self._health.record_success(parts[1])

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
        """Route one tuple; returns the chosen instance (None if lost, or
        not placed yet: buffered in a batch, or held for the hosting
        loop's next flush).

        A send is attempted once; one that fails (or that the health
        monitor's backoff window refuses) makes the controller mark the
        downstream dead — kept in the membership so probing can
        resurrect it, but excluded from routing — and re-route the tuple
        to the next live downstream (Sec. IV-C).

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
            if self._hold is not None and self._hold(self):
                self._held.append((data.seq, payload, data.deadline))
                return None
            return self.controller.dispatch(data.seq, context=payload,
                                            deadline=data.deadline)
        with self._batch_lock:
            full = self._batch.append((data.seq, payload, data.deadline),
                                      now)
            close = full or self._batch.due(now)
            opened = len(self._batch) == 1
        if close:
            return self.flush()
        if opened and self._on_batch_open is not None:
            self._on_batch_open()
        return None

    def flush(self) -> Optional[InstanceId]:
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
        seqs, context, deadline = _wire_unit(items)
        return self.controller.dispatch_batch(seqs, context=context,
                                              deadline=deadline)

    def flush_held(self) -> None:
        """Place the tuples held since the last call, in emission order:
        each takes its own policy draw, as unheld dispatch would, and
        then each chosen downstream gets one frame — a lone tuple the
        unheld DATA frame, several one BATCH frame with one pending
        entry, one retention entry and one echo — or, past
        :data:`HOLD_MAX_BATCH_BYTES`, a few (:func:`_held_frames`)."""
        items, self._held = self._held, []
        if not items:
            return
        controller = self.controller
        groups: Dict[Optional[InstanceId], list] = {}
        for chosen, item in zip(controller.route_many(len(items)), items):
            groups.setdefault(chosen, []).append(item)
        for chosen, group in groups.items():
            for frame in _held_frames(group):
                seqs, context, deadline = _wire_unit(frame)
                controller.dispatch_routed(seqs, chosen, context=context,
                                           deadline=deadline)

    def tick(self, now: float) -> float:
        """Run this edge's periodic work that is due at *now* and return
        when it is next due: the control round (``maybe_update``, once
        per ``control_interval``) and the age flush of a partial batch
        (``max_delay`` after it opened).  The hosting loop's timer is
        the only caller; :meth:`dispatch` never runs a round."""
        controller = self.controller
        controller.maybe_update(now)
        due = controller.next_update()
        if self._batch is not None:
            with self._batch_lock:
                flush_in = self._batch.due_in(now)
            if flush_in is not None and flush_in <= 0:
                self.flush()
            elif flush_in is not None:
                due = min(due, now + flush_in)
        return due

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
        """Push one tuple (or one :class:`BatchPayload`) at *instance*,
        once.

        Returns the send timestamp on success, None when the send failed
        or the instance sits inside its backoff window.  ``attempt`` > 1
        marks an at-least-once redelivery; it is stamped on the wire so
        the receiver can attribute the duplicate.  A frame *send* only
        held (it returned True) is no proof of life: whoever holds it
        credits the peer's health when the burst leaves.
        """
        parts = self._downstreams.get(instance)  # one atomic dict read
        if parts is None:
            return None
        unit_name, worker_id = parts
        health = self._health
        if health is not None and not health.should_attempt(worker_id):
            return None
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
            if health is not None:
                health.record_failure(worker_id)
            return None
        if health is not None and not held:
            health.record_success(worker_id)
        return now

    def on_ack(self, seq: int, processing_delay: float) -> None:
        """Fold a downstream's timestamp echo into the estimators."""
        self._credit_health(self.controller.on_ack(
            seq, processing_delay=processing_delay))

    def on_ack_batch(self, seqs, processing_delay: float) -> None:
        """Fold one batched timestamp echo into the estimators."""
        self._credit_health(self.controller.on_ack_batch(
            seqs, processing_delay=processing_delay))

    def on_echo(self, heads, counts, delays) -> None:
        """Fold one echo of several units in one pass; the worker that
        sent it is credited once."""
        self._credit_health(self.controller.on_echo(heads, counts, delays))

    def _credit_health(self, result) -> None:
        """A matched echo is proof of life for the worker that sent it."""
        if result is not None and self._health is not None:
            self._health.record_success(
                split_instance(result.downstream_id)[1])

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
