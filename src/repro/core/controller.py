"""Shared LRS control plane (paper Sec. V) behind three narrow ports.

The paper's core algorithm — latency estimation, worker selection, and
probabilistic routing — is ONE control loop, but this repo used to
implement it twice: once in the live runtime's dispatcher and once in
the discrete-event simulator's dispatch/control processes.
:class:`LrsController` is the single, transport-agnostic home of that
loop.  It owns:

* the routing policy (built from a :class:`PolicyConfig`),
* the :class:`~repro.core.latency.AckTracker` feeding it L_i / W_i
  estimates via the timestamp-echo protocol,
* the :class:`~repro.core.latency.RateMeter` measuring the input rate,
* the once-per-interval policy update (expiry sweep included),
* probe-cycle scheduling (delegated to the policy's
  :class:`~repro.core.policies.ProbeScheduler`),
* failure detection: dead-marking on send failure / expiry streaks,
  resurrection only by an ACK (an all-dead edge keeps sending to its
  dead members, so one can arrive),
* metrics emission (rerouted / update-round / probe-window counters).

It talks to its substrate through three narrow ports:

``Clock``
    A zero-argument callable returning seconds (``time.monotonic`` in
    the runtime, ``lambda: sim.now`` on the engine).

``Egress``
    An object with ``send(downstream_id, seq, context) -> Optional[float]``
    returning the send timestamp on success and ``None`` on failure; a
    failed send dead-marks the downstream and triggers a re-route.  The
    runtime's egress performs health-gated, retried fabric sends; the
    simulator's egress always succeeds instantly because delivery, loss
    and delay are modeled by the network.

``MetricSink``
    A :class:`~repro.metrics.MetricsRegistry`; every counter the control
    plane emits goes through it.

``TraceSink``
    A :class:`~repro.trace.Tracer` (default: the disabled
    ``NULL_TRACER``).  The controller emits ``ack_rtt`` spans for every
    matched timestamp echo and ``retry`` instants for every re-route,
    in the same span vocabulary both substrates' adapters use.

The hosting adapters decide *when* to call in (``observe_arrival`` /
``dispatch`` per tuple, ``maybe_update`` lazily or ``update`` from a
periodic process) but never *what* happens — that is the contract the
sim/real parity harness in ``tests/integration`` verifies.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterable, List, Optional, Tuple,
                    Union)

from repro import metrics as metrics_mod
from repro.core.batching import BatchConfig
from repro.core.delivery import (EVICT_ATTEMPTS, EVICT_EXPIRED,
                                 DeliveryConfig, ReplayBuffer, ReplayEntry)
from repro.core.exceptions import RoutingError
from repro.core.keyed import (HotRangeDetector, KeyedConfig, KeyRange,
                              KeyRangeTable)
from repro.core.latency import AckTracker, DownstreamStats, RateMeter
from repro.core.overload import OverloadConfig
from repro.core.policies import PolicyDecision, RoutingPolicy, make_policy
from repro.trace import ACK_RTT, NULL_TRACER, RETRY, Span, TraceSink

#: the Clock port: a zero-argument callable returning seconds
Clock = Callable[[], float]

#: policies that consume the Sec. V-B probing knobs
PROBED_POLICIES = frozenset({"PR", "LR", "PRS", "LRS"})


@dataclass(frozen=True)
class PolicyConfig:
    """Everything needed to build one policy + tracker pair, once.

    The single source of truth for policy-construction defaults
    (estimator window, probe period, failure-detection thresholds).
    The simulator's :class:`~repro.simulation.swarm.SwarmConfig`, the
    runtime's :class:`~repro.runtime.dispatcher.UpstreamDispatcher` and
    the CLI all derive their defaults from here instead of carrying
    their own copies.
    """

    policy: str = "LRS"
    seed: Optional[int] = None
    #: seconds between policy update rounds (1 s in the paper)
    control_interval: float = 1.0
    # -- probing (paper Sec. V-B) ---------------------------------------
    probe_every: int = 5
    probe_tuples: int = 4
    probe_spacing: int = 3
    # -- latency estimation ---------------------------------------------
    estimator: str = "moving-average"
    estimator_window: int = 20
    #: sliding window of the input-rate meter, seconds
    rate_window: float = 1.0
    # -- failure detection -----------------------------------------------
    #: in-flight tuples older than this are charged as lost
    ack_timeout: float = 10.0
    #: consecutive expiry rounds without an ACK before dead-marking
    dead_after: int = 3
    # -- overload protection ----------------------------------------------
    #: shared shedding/backpressure knobs (``None`` = all mechanisms off);
    #: both the runtime's dispatchers/workers and the simulator consume
    #: the same object, so shedding decisions replay identically
    overload: Optional[OverloadConfig] = None
    # -- delivery semantics ------------------------------------------------
    #: replay/dedup knobs (``None`` = historical best-effort delivery);
    #: like ``overload``, one object drives both substrates so churn
    #: recovery decisions replay identically
    delivery: Optional[DeliveryConfig] = None
    # -- batched data plane ------------------------------------------------
    #: tuple-batching flush policy (``None`` = per-tuple dispatch); one
    #: object drives both substrates so batch boundaries replay
    #: identically, and ``max_tuples=1`` is wire-identical to no batching
    batching: Optional[BatchConfig] = None
    # -- keyed routing -----------------------------------------------------
    #: key-range routing + hot-split knobs (``None`` = stateless edge);
    #: one object drives both substrates so range splits replay
    #: identically
    keyed: Optional[KeyedConfig] = None

    def overload_config(self) -> OverloadConfig:
        """The effective overload knobs (defaults when unset)."""
        return self.overload if self.overload is not None else OverloadConfig()

    def delivery_config(self) -> DeliveryConfig:
        """The effective delivery knobs (best-effort defaults when unset)."""
        return self.delivery if self.delivery is not None else DeliveryConfig()

    def batching_config(self) -> BatchConfig:
        """The effective batching knobs (per-tuple dispatch when unset)."""
        return self.batching if self.batching is not None else BatchConfig()

    def keyed_config(self) -> KeyedConfig:
        """The effective keyed-routing knobs (stateless when unset)."""
        return self.keyed if self.keyed is not None else KeyedConfig()

    def policy_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs for this config's policy class."""
        if self.policy.upper() in PROBED_POLICIES:
            return {"probe_every": self.probe_every,
                    "probe_tuples": self.probe_tuples,
                    "probe_spacing": self.probe_spacing}
        return {}

    def estimator_kwargs(self) -> Dict[str, object]:
        if self.estimator == "moving-average":
            return {"window": self.estimator_window}
        return {}

    def make_policy(self) -> RoutingPolicy:
        return make_policy(self.policy, seed=self.seed,
                           **self.policy_kwargs())

    def make_tracker(self, registry: Optional[metrics_mod.MetricsRegistry]
                     = None) -> AckTracker:
        return AckTracker(estimator_kind=self.estimator,
                          timeout=self.ack_timeout,
                          dead_after=self.dead_after,
                          registry=registry,
                          **self.estimator_kwargs())


@dataclass(frozen=True)
class AckResult:
    """Outcome of folding one ACK into the estimators."""

    downstream_id: str
    sample: float  # the end-to-end latency sample, seconds


class LrsController:
    """Transport-agnostic routing controller: one per upstream edge.

    Thread-safe: the runtime calls in from dispatch and receive threads
    concurrently; the simulator from a single engine loop.
    """

    def __init__(self, config: Optional[PolicyConfig] = None,
                 clock: Clock = time.monotonic,
                 egress: Optional[object] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 name: str = "",
                 max_decisions: Optional[int] = None,
                 trace: Optional[TraceSink] = None,
                 redelivery: Optional[Callable[[int, str, object, int],
                                               None]] = None,
                 tenant: str = "") -> None:
        self.config = config if config is not None else PolicyConfig()
        self.name = name
        #: owning tenant pipeline ("" = the single-tenant namespace);
        #: stamps the tenant= label on this edge's redelivery counters
        #: and the tenant attribute on its spans
        self.tenant = tenant
        self._clock = clock
        self._egress = egress
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._trace = trace if trace is not None else NULL_TRACER
        self._policy = self.config.make_policy()
        self._tracker = self.config.make_tracker(self._registry)
        self._rate = RateMeter(window=self.config.rate_window)
        self._lock = threading.RLock()
        self._last_update = clock()
        # -- at-least-once delivery (None = historical best-effort) ------
        delivery = self.config.delivery
        self._replay: Optional[ReplayBuffer] = None
        self._redelivery_timeout = self.config.ack_timeout
        if delivery is not None and delivery.at_least_once:
            self._replay = ReplayBuffer(delivery, registry=self._registry,
                                        name=name or "-")
            if delivery.redelivery_timeout is not None:
                self._redelivery_timeout = delivery.redelivery_timeout
        #: substrate hook run after each successful redelivery send; the
        #: simulator uses it to put the frame back on the radio (the
        #: runtime's egress already delivers, so it leaves this unset)
        self.on_redeliver = redelivery
        self._redeliver_queue: Deque[Union[str, ReplayEntry]] = deque()
        self._redelivering = False
        # Mutation hook for the verification harness: when the env flag
        # is set, the first overdue redelivery is silently dropped (no
        # re-retain, no eviction count) — a seeded at-least-once bug the
        # invariant checker must find and shrink.  Never set outside
        # `swing verify` mutation tests.
        self._fault_skip_redelivery = bool(
            os.environ.get("SWING_FAULT_SKIP_REDELIVERY"))
        # -- batched dispatch bookkeeping (populated only when a batch is
        # retained for replay): member seq -> head seq, and head seq ->
        # the members still awaiting an ACK.  The replay buffer holds ONE
        # entry per batch (keyed by the head), so per-tuple ACKs must
        # drain the membership before the batch entry is released.
        self._batch_of: Dict[int, int] = {}
        self._batch_members: Dict[int, set] = {}
        # -- keyed routing (None until the substrate attaches a table) ---
        self._key_table: Optional[KeyRangeTable] = None
        self._key_detector: Optional[HotRangeDetector] = None
        #: in-flight seq -> key hash, so redelivery after churn or a
        #: range flip still honors key-range ownership
        self._key_of: Dict[int, int] = {}
        #: lazily created swing_batch_size histogram for this edge
        self._batch_histogram: Optional[metrics_mod.Histogram] = None
        #: update-round log: (time, decision); capped when the hosting
        #: substrate is long-lived (the runtime), unbounded in the
        #: duration-limited simulator and the parity harness
        self.decisions: Union[List[Tuple[float, PolicyDecision]],
                              Deque[Tuple[float, PolicyDecision]]] = (
            deque(maxlen=max_decisions) if max_decisions else [])
        self.dispatched = 0
        self.ack_count = 0

    # -- membership ------------------------------------------------------
    def add_downstream(self, downstream_id: str) -> None:
        """Admit a downstream (idempotent; resurrection-safe)."""
        with self._lock:
            self._tracker.add_downstream(downstream_id)
            # No-op when already a member, even a dead-marked one: the
            # tracker's alive flag, not re-admission, governs routing.
            self._policy.on_downstream_added(downstream_id)

    def remove_downstream(self, downstream_id: str,
                          redeliver: bool = True) -> None:
        """Forget a downstream entirely (link broke / LEAVE observed).

        With at-least-once delivery the tuples retained for the removed
        member are redelivered to survivors unless ``redeliver=False``
        (a graceful drain keeps the departing worker responsible for
        its queue; the stale-ACK sweep still covers stragglers).
        """
        with self._lock:
            self._tracker.remove_downstream(downstream_id)
            if downstream_id in self._policy.downstream_ids():
                self._policy.on_downstream_removed(downstream_id)
        if redeliver:
            self._request_redelivery(downstream_id)

    def set_downstreams(self, downstream_ids: Iterable[str]) -> None:
        """Reconcile the member set against a deploy update."""
        desired = set(downstream_ids)
        with self._lock:
            for downstream_id in sorted(self._tracker.downstream_ids()):
                if downstream_id not in desired:
                    self.remove_downstream(downstream_id)
            known = set(self._tracker.downstream_ids())
            for downstream_id in sorted(desired - known):
                self.add_downstream(downstream_id)

    def downstream_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._tracker.downstream_ids())

    def live_downstreams(self) -> List[str]:
        """Members not currently marked dead."""
        with self._lock:
            return sorted(downstream_id for downstream_id
                          in self._tracker.downstream_ids()
                          if self._tracker.is_alive(downstream_id))

    def is_alive(self, downstream_id: str) -> bool:
        with self._lock:
            return self._tracker.is_alive(downstream_id)

    def unsatisfiable(self) -> bool:
        """True when members exist but every one is dead-marked.

        This is the backpressure signal source admission control
        observes: dispatching more tuples would only manufacture
        guaranteed losses, so the source should shed (or throttle)
        until probing resurrects a downstream.
        """
        with self._lock:
            downstream_ids = self._tracker.downstream_ids()
            return bool(downstream_ids) and not any(
                self._tracker.is_alive(downstream_id)
                for downstream_id in downstream_ids)

    # -- data plane ------------------------------------------------------
    def observe_arrival(self, now: Optional[float] = None) -> None:
        """Feed one tuple arrival into the input-rate meter (Lambda)."""
        if now is None:
            now = self._clock()
        with self._lock:
            self._rate.observe(now)

    def dispatch(self, seq: int, context: Optional[object] = None,
                 deadline: Optional[float] = None,
                 key_hash: Optional[int] = None) -> Optional[str]:
        """Route + send one tuple; returns the chosen downstream or None.

        A failed egress send dead-marks the downstream — kept in the
        membership so probing can resurrect it, but excluded from
        routing — and the tuple is re-routed to the next live member
        (Sec. IV-C).  ``context`` is passed through to the egress
        opaquely (the runtime uses it for the encoded payload); with
        at-least-once delivery it is also retained for replay until the
        ACK arrives, and ``deadline`` bounds how long replay may keep
        trying (an expired tuple is evicted, not redelivered — overload
        protection wins).

        When the tuple carries a key (``key_hash`` set) and a key-range
        table is attached, ownership overrides the policy: the range
        owner gets the tuple, and a paused or unowned range parks it in
        the replay buffer (retained unassigned) until routing is flipped
        — that park/redeliver cycle is what makes a live migration
        lossless under at-least-once delivery.
        """
        if key_hash is not None and self._key_table is not None:
            return self._dispatch_keyed(seq, key_hash, context, deadline)
        return self._place(seq, None, context, deadline)

    def _place(self, head: int, members: Optional[List[int]],
               context: Optional[object],
               deadline: Optional[float]) -> Optional[str]:
        """One placement decision for one wire unit, whatever its size.

        *head* keys the unit's single pending-ACK entry (one latency
        sample, one loss charge on expiry — what lets a batch amortize
        the control-plane cost) and its single replay entry.  *members*
        lists a batch's seqs, head first; it is ``None`` for a lone
        tuple, which needs no membership maps.
        """
        count = 1 if members is None else len(members)
        retain = self._replay is not None and context is not None
        if retain and members is not None:
            self._register_batch(members)
        with self._lock:
            try:
                chosen = self._policy.route()
            except RoutingError:
                chosen = None
        tried = set()
        while chosen is not None:
            sent_at = self._send_registered(chosen, head, context, deadline)
            if sent_at is not None:
                if tried:
                    self._registry.increment(metrics_mod.REROUTED_TOTAL,
                                             downstream=chosen)
                    if self._trace.enabled:
                        self._trace.emit(Span(
                            RETRY, head, sent_at, sent_at,
                            device_id=self.name or "-",
                            hop="egress:%s" % (self.name or "-"),
                            detail=",".join(sorted(tried))))
                self.dispatched += count
                return chosen
            tried.add(chosen)
            self.mark_dead(chosen)
            chosen = self._fallback(tried)
        if retain:
            # No live member took it: retain it unassigned so the next
            # redelivery sweep can place it once someone comes back.
            self._replay.retain(head, None, context, now=self._clock(),
                                deadline=deadline)
        return None

    def _send_registered(self, downstream_id: str, seq: int,
                         context: Optional[object],
                         deadline: Optional[float],
                         redelivered: Optional[ReplayEntry] = None
                         ) -> Optional[float]:
        """Register *seq* as in flight and retained, THEN run the egress.

        The egress may block and drop the GIL (a socket write), and the
        ACK can be folded by another thread before it returns.  Registered
        first, that ACK finds its pending entry and its retention.
        Registered afterwards it found neither, and what was then
        retained was an orphan: swept as stale, redelivered past the
        dedup windows and delivered twice, its pending entry charged as a
        lost tuple.  A failed send is undone exactly — the pending entry
        it displaced (an earlier attempt, when *redelivered*) is put
        back, retention released, nothing counted as sent.
        """
        now = self._clock()
        retain = self._replay is not None and context is not None
        with self._lock:
            displaced = self._tracker.begin_send(seq, downstream_id, now)
        if redelivered is None:
            if retain:
                self._replay.retain(seq, downstream_id, context, now=now,
                                    deadline=deadline)
            sent_at = self._send(downstream_id, seq, context)
        else:
            self._replay.retain(seq, downstream_id, context, now=now,
                                deadline=deadline,
                                attempt=redelivered.attempt + 1,
                                nbytes=redelivered.nbytes)
            sent_at = self._send_redelivery(downstream_id, redelivered)
        with self._lock:
            if sent_at is None:
                self._tracker.cancel_send(seq, displaced)
            else:
                self._tracker.commit_send(downstream_id)
        if sent_at is None and retain:
            self._replay.release(seq)
        return sent_at

    def _dispatch_keyed(self, seq: int, key_hash: int,
                        context: Optional[object],
                        deadline: Optional[float]) -> Optional[str]:
        with self._lock:
            table = self._key_table
            if self._key_detector is not None:
                self._key_detector.observe(table.range_of(key_hash),
                                           self._clock())
            owner = table.owner_of(key_hash)
            alive = owner is not None and self._tracker.is_alive(owner)
            retain = self._replay is not None and context is not None
            if retain:
                # Sent or parked, the retained tuple keeps its key — and
                # like the retention itself it is on record before the
                # send, so an early ACK clears it.
                self._key_of[seq] = key_hash
        if alive:
            if self._send_registered(owner, seq, context,
                                     deadline) is not None:
                self.dispatched += 1
                return owner
            self.mark_dead(owner)
        # Paused range, unowned hash, dead owner, or failed send: park
        # the tuple unassigned; the replay sweep re-places it once the
        # range is routable again.  Without a replay buffer (best
        # effort) the tuple is simply dropped, like an exhausted
        # stateless dispatch.
        if retain:
            self._replay.retain(seq, None, context, now=self._clock(),
                                deadline=deadline)
        return None

    # -- keyed routing ---------------------------------------------------
    @property
    def key_table(self) -> Optional[KeyRangeTable]:
        return self._key_table

    def set_key_table(self, table: Optional[KeyRangeTable]) -> None:
        """Attach the edge's key-range table (enables keyed dispatch).

        A hot-range detector is created alongside it when the config
        carries keyed knobs with splitting enabled.
        """
        with self._lock:
            self._key_table = table
            keyed = self.config.keyed_config()
            self._key_detector = (HotRangeDetector(keyed)
                                  if table is not None
                                  and self.config.keyed is not None
                                  and keyed.split_enabled else None)

    def hot_range(self, now: Optional[float] = None) \
            -> Optional[Tuple[KeyRange, float]]:
        """The hottest splittable range right now, or ``None``.

        Counted on ``swing_hot_keys_detected_total``; callers are
        expected to act on the proposal (split + migrate), which arms
        the detector's cooldown via :meth:`split_range`.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            if self._key_detector is None or self._key_table is None:
                return None
            owners = len({owner for _, owner in self._key_table.ranges()})
            found = self._key_detector.hottest(now, self._key_table,
                                               max(owners, 1))
        if found is not None:
            self._registry.increment(metrics_mod.HOT_KEYS_DETECTED_TOTAL,
                                     edge=self.name or "-")
        return found

    def _table(self) -> KeyRangeTable:
        if self._key_table is None:
            raise RoutingError("no key table attached to %r"
                               % (self.name or "-"))
        return self._key_table

    def split_range(self, key_range: KeyRange) -> Tuple[KeyRange, KeyRange]:
        """Split an owned range in place (both halves keep the owner)."""
        with self._lock:
            left, right = self._table().split(key_range)
            if self._key_detector is not None:
                self._key_detector.forget(key_range)
                self._key_detector.mark_split(self._clock())
        return left, right

    def move_range(self, key_range: KeyRange, new_owner: str,
                   reason: str) -> None:
        """Re-own a range and count the move (reason=hot_split|drain|crash)."""
        with self._lock:
            self._table().assign(key_range, new_owner)
        self._registry.increment(
            metrics_mod.KEY_RANGE_MOVES_TOTAL,
            **metrics_mod.tenant_labels(self.tenant, reason=reason,
                                        edge=self.name or "-"))

    def pause_range(self, key_range: KeyRange) -> None:
        with self._lock:
            self._table().pause(key_range)

    def resume_range(self, key_range: KeyRange) -> None:
        """Resume a paused range and re-place everything parked on it."""
        with self._lock:
            self._table().resume(key_range)
        # Parked tuples sit unassigned in the replay buffer; a sweep
        # pops unassigned entries immediately, so the new owner sees
        # them without waiting out the redelivery timeout.
        self._sweep_replay(self._clock())

    def keyed_ranges_of(self, owner: str) -> Tuple[KeyRange, ...]:
        with self._lock:
            if self._key_table is None:
                return ()
            return self._key_table.ranges_owned_by(owner)

    def dispatch_batch(self, seqs: Iterable[int],
                       context: Optional[object] = None,
                       deadline: Optional[float] = None) -> Optional[str]:
        """Route + send one closed batch with a single policy decision.

        The batch is the wire unit: one routing decision, one egress
        send (keyed by the head seq), one pending-ACK entry, and — with
        at-least-once delivery — ONE replay-buffer entry covering the
        whole batch (*context* is the framed batch; redelivery re-sends
        it wholesale, and the receiver's dedup window suppresses any
        members that already made it through).  ``deadline`` should be
        the earliest member deadline.  A batch of one takes the same
        placement as :meth:`dispatch`, so the size-1 path is byte- and
        decision-identical to per-tuple dispatch.
        """
        seqs = list(seqs)
        if not seqs:
            return None
        self._observe_batch_size(len(seqs))
        return self._place(seqs[0], seqs if len(seqs) > 1 else None,
                           context, deadline)

    def _register_batch(self, seqs: List[int]) -> None:
        """Map batch members to their head before retaining the batch."""
        head = seqs[0]
        with self._lock:
            self._batch_members[head] = set(seqs)
            for seq in seqs:
                self._batch_of[seq] = head

    def _observe_batch_size(self, size: int) -> None:
        if self._batch_histogram is None:
            self._batch_histogram = self._registry.histogram(
                metrics_mod.BATCH_SIZE,
                buckets=metrics_mod.BATCH_SIZE_BUCKETS,
                edge=self.name or "-")
        self._batch_histogram.observe(size)

    def _send(self, downstream_id: str, seq: int,
              context: Optional[object]) -> Optional[float]:
        if self._egress is None:
            return self._clock()
        return self._egress.send(downstream_id, seq, context)

    def _fallback(self, tried) -> Optional[str]:
        """Next live, not-yet-tried downstream; None when exhausted."""
        with self._lock:
            try:
                candidate = self._policy.route()
            except RoutingError:
                candidate = None
            if candidate is not None and candidate not in tried:
                return candidate
            for downstream_id in sorted(self._tracker.downstream_ids()):
                if downstream_id not in tried \
                        and self._tracker.is_alive(downstream_id):
                    return downstream_id
        return None

    def mark_dead(self, downstream_id: str) -> None:
        """Stop routing regular traffic to a failing downstream."""
        with self._lock:
            self._tracker.mark_dead(downstream_id)
            self._policy.mark_dead(downstream_id)
        self._request_redelivery(downstream_id)

    def on_ack(self, seq: int, processing_delay: Optional[float] = None,
               now: Optional[float] = None) -> Optional[AckResult]:
        """Fold a downstream's timestamp echo into the estimators.

        The echo of a send to a dead-marked member is what brings it
        back (the only way back from dead, for every policy).
        """
        if self._replay is not None:
            # Any ACK for this seq releases retention — including one
            # from a previous delivery attempt racing a redelivery.  A
            # batch member's ACK only shrinks the membership (the
            # simulator ACKs batch members one result at a time).
            target = self._shrink_batch(seq)
            if target is not None:
                self._replay.release(target)
        return self._fold_ack(seq, 1, processing_delay, now)

    def on_ack_batch(self, seqs: Iterable[int],
                     processing_delay: Optional[float] = None,
                     now: Optional[float] = None) -> Optional[AckResult]:
        """Fold one batched timestamp echo into the estimators.

        The runtime worker ACKs a whole batch with one message; the
        head seq matches the batch's single pending entry, yielding one
        latency sample, while ``ack_count`` is credited for every member
        so throughput accounting stays per-tuple.
        """
        seqs = list(seqs)
        if not seqs:
            return None
        if len(seqs) == 1:
            return self.on_ack(seqs[0], processing_delay=processing_delay,
                               now=now)
        head = seqs[0]
        if self._replay is not None:
            with self._lock:
                for seq in seqs:
                    self._batch_of.pop(seq, None)
                    self._key_of.pop(seq, None)
                self._batch_members.pop(head, None)
            self._replay.release(head)
        return self._fold_ack(head, len(seqs), processing_delay, now)

    def _fold_ack(self, head: int, count: int,
                  processing_delay: Optional[float],
                  now: Optional[float]) -> Optional[AckResult]:
        """Match *head*'s pending entry: one sample, *count* tuples."""
        if now is None:
            now = self._clock()
        with self._lock:
            downstream_id = self._tracker.pending_downstream(head)
            sample = self._tracker.record_ack(
                head, now, processing_delay=processing_delay)
            if sample is None:
                return None
            self.ack_count += count
        # Record the RTT distribution unconditionally (percentiles must
        # survive tracing being sampled out); the span itself is built
        # only for sampled tuples — this sits on the per-ACK hot path.
        self._registry.observe_histogram(metrics_mod.ACK_RTT_SECONDS,
                                         sample, downstream=downstream_id)
        if self._trace.enabled and self._trace.sampled(head):
            self._trace.emit(Span(ACK_RTT, head, now - sample, now,
                                  device_id=self.name or "-",
                                  hop="egress:%s" % (self.name or "-"),
                                  detail=downstream_id),
                             sampled=True)
        return AckResult(downstream_id=downstream_id, sample=sample)

    def _shrink_batch(self, seq: int) -> Optional[int]:
        """Strike *seq* from its batch's un-ACKed membership.

        A batch is retained as ONE entry keyed by its head seq.  Returns
        the replay key whose entry may go now — *seq* itself for a lone
        tuple, the head once a batch's last member is struck — or
        ``None`` while other members still need the entry.
        """
        with self._lock:
            self._key_of.pop(seq, None)
            head = self._batch_of.pop(seq, None)
            if head is None:
                return seq
            members = self._batch_members.get(head)
            if members is not None:
                members.discard(seq)
                if members:
                    return None
                del self._batch_members[head]
            return head

    # -- control plane ---------------------------------------------------
    def maybe_update(self, now: Optional[float] = None) -> PolicyDecision:
        """Lazy once-per-interval policy round (the runtime's trigger)."""
        if now is None:
            now = self._clock()
        ran = False
        with self._lock:
            if now - self._last_update >= self.config.control_interval:
                decision = self._update_locked(now)
                ran = True
            else:
                decision = self._policy.last_decision
        if ran:
            self._sweep_replay(now)
        return decision

    def update(self, now: Optional[float] = None) -> PolicyDecision:
        """Run a policy round immediately (periodic processes, tests)."""
        if now is None:
            now = self._clock()
        with self._lock:
            decision = self._update_locked(now)
        self._sweep_replay(now)
        return decision

    def _update_locked(self, now: float) -> PolicyDecision:
        self._last_update = now
        self._tracker.expire_pending(now)
        decision = self._policy.update(self._tracker.stats(),
                                       self._rate.rate(now))
        self.decisions.append((now, decision))
        self._registry.increment(metrics_mod.POLICY_UPDATES_TOTAL,
                                 edge=self.name or "-")
        if decision.probing:
            self._registry.increment(metrics_mod.PROBE_WINDOWS_TOTAL,
                                     edge=self.name or "-")
        return decision

    # -- at-least-once replay --------------------------------------------
    def replay_holds(self, seq: int) -> bool:
        """Whether the replay buffer still owns *seq* (not yet ACKed).

        Substrates use this to gate loss accounting: a tuple that is
        still retained is recoverable, not lost.  A batch member is
        covered by its batch's single entry (keyed by the head seq).
        """
        if self._replay is None:
            return False
        with self._lock:
            head = self._batch_of.get(seq, seq)
        return self._replay.holds(head)

    def replay_depth(self) -> int:
        return len(self._replay) if self._replay is not None else 0

    def export_retention(self) -> List[Tuple[int, int, Optional[float],
                                             object, Tuple[int, ...]]]:
        """Snapshot retained entries for a control-plane checkpoint.

        Each item is ``(seq, attempt, deadline, context, member_seqs)``;
        ``member_seqs`` is non-empty for batch entries (head included).
        """
        if self._replay is None:
            return []
        with self._lock:
            members_of = {head: tuple(sorted(members))
                          for head, members in self._batch_members.items()}
        return [(entry.seq, entry.attempt, entry.deadline, entry.context,
                 members_of.get(entry.seq, ()))
                for entry in self._replay.entries()]

    def import_retention(self, items: Iterable[Tuple[int, int,
                                                     Optional[float], object,
                                                     Tuple[int, ...]]]) -> int:
        """Re-retain checkpointed entries after a master restart.

        Entries land unassigned (``downstream=None``) so the next
        control sweep routes each to a live downstream through the
        normal redelivery path — the sink's dedup window absorbs any
        that were in fact delivered between checkpoint and crash.
        Returns the number of entries imported.
        """
        if self._replay is None:
            return 0
        count = 0
        now = self._clock()
        for seq, attempt, deadline, context, members in items:
            if members and len(members) > 1:
                ordered = [seq] + [s for s in members if s != seq]
                self._register_batch(ordered)
            self._replay.retain(seq, None, context, now=now,
                                deadline=deadline, attempt=attempt)
            count += 1
        return count

    def release_replay(self, seq: int, reason: str) -> bool:
        """Give up retention of *seq* for *reason* (e.g. it was shed).

        Overload protection wins over delivery guarantees: once a tuple
        is shed there is no point redelivering it, so the substrate
        evicts it here (counted, never silent).

        Shedding one member of a retained batch only shrinks the batch's
        membership; the batch entry itself is evicted when its last
        member is given up (or released by an ACK).
        """
        if self._replay is None:
            return False
        target = self._shrink_batch(seq)
        if target is None:
            return True  # entry stays for the other members
        return self._replay.evict(target, reason)

    def _sweep_replay(self, now: float) -> None:
        """Redeliver retained tuples whose ACK is overdue."""
        if self._replay is None:
            return
        stale = self._replay.take_stale(now - self._redelivery_timeout)
        if stale:
            with self._lock:
                self._redeliver_queue.extend(stale)
            self._drain_redeliveries()
        self._prune_batches()

    def _forget_batch(self, head: int) -> None:
        """Drop the membership maps of a batch whose entry was given up."""
        with self._lock:
            members = self._batch_members.pop(head, None)
            if members:
                for seq in members:
                    self._batch_of.pop(seq, None)

    def _prune_batches(self) -> None:
        """Forget batches whose replay entry is gone (internal eviction).

        The replay buffer evicts oldest entries on its own when a bound
        trips; the membership maps of such a batch would otherwise live
        forever.  Heads sitting in the redelivery queue are skipped —
        their entry is only *temporarily* popped.
        """
        if self._replay is None or not self._batch_members:
            return
        with self._lock:
            queued = {item.seq for item in self._redeliver_queue
                      if not isinstance(item, str)}
            stale_heads = [head for head in self._batch_members
                           if head not in queued
                           and not self._replay.holds(head)]
            for head in stale_heads:
                for seq in self._batch_members.pop(head):
                    self._batch_of.pop(seq, None)

    def _request_redelivery(self, downstream_id: str) -> None:
        """Queue redelivery of everything assigned to *downstream_id*."""
        if self._replay is None:
            return
        with self._lock:
            self._redeliver_queue.append(downstream_id)
        self._drain_redeliveries()

    def _drain_redeliveries(self) -> None:
        """Work through the redelivery queue, one entry at a time.

        A failed redelivery send dead-marks its target, which enqueues
        that target's entries here rather than recursing — the
        ``_redelivering`` guard keeps exactly one drain active.
        """
        with self._lock:
            if self._redelivering:
                return
            self._redelivering = True
        try:
            while True:
                with self._lock:
                    if not self._redeliver_queue:
                        return
                    item = self._redeliver_queue.popleft()
                entries = (self._replay.take_for(item)
                           if isinstance(item, str) else [item])
                for entry in entries:
                    self._redeliver_entry(entry)
        finally:
            with self._lock:
                self._redelivering = False

    def _redeliver_entry(self, entry: ReplayEntry) -> None:
        if self._fault_skip_redelivery:
            # Seeded bug (see __init__): drop this overdue tuple on the
            # floor exactly once — it leaves the replay buffer with no
            # eviction record and is never sent again.
            self._fault_skip_redelivery = False
            self._forget_batch(entry.seq)
            return
        give_up = None
        if entry.deadline is not None and self._clock() > entry.deadline:
            # Shed-aware: an expired tuple would be dropped on arrival
            # anyway, so redelivering it only wastes the network.
            give_up = EVICT_EXPIRED
        elif entry.attempt >= self.config.delivery_config() \
                .max_delivery_attempts:
            give_up = EVICT_ATTEMPTS
        if give_up is not None:
            self._replay.discard(entry, give_up)
            self._forget_batch(entry.seq)
            with self._lock:
                self._key_of.pop(entry.seq, None)
            return
        with self._lock:
            key_hash = self._key_of.get(entry.seq)
            keyed = key_hash is not None and self._key_table is not None
            if keyed:
                owner = self._key_table.owner_of(key_hash)
                if owner is None or not self._tracker.is_alive(owner):
                    owner = None
        if keyed:
            # Key-range ownership binds redelivery too: the tuple may
            # only go to the range owner.  No routable owner (paused
            # mid-migration, or the owner is down) re-parks it for the
            # next sweep.
            if owner is not None:
                if self._redeliver_to(owner, entry):
                    return
                self.mark_dead(owner)
            self._replay.retain(entry.seq, None, entry.context,
                                now=entry.sent_at, deadline=entry.deadline,
                                attempt=entry.attempt, nbytes=entry.nbytes)
            return
        tried = {entry.downstream} if entry.downstream is not None else set()
        chosen = self._fallback(tried)
        if chosen is None and entry.downstream is not None \
                and self.is_alive(entry.downstream):
            chosen = entry.downstream  # sole survivor: retry in place
        while chosen is not None:
            if self._redeliver_to(chosen, entry):
                return
            tried.add(chosen)
            self.mark_dead(chosen)
            chosen = self._fallback(tried)
        # Nobody can take it right now: keep it (unassigned) for the
        # next sweep instead of dropping it on the floor.
        self._replay.retain(entry.seq, None, entry.context,
                            now=entry.sent_at, deadline=entry.deadline,
                            attempt=entry.attempt, nbytes=entry.nbytes)

    def _redeliver_to(self, chosen: str, entry: ReplayEntry) -> bool:
        """One redelivery send (registered first, like a first send) and,
        when it went out, its counter, span and substrate hook."""
        sent_at = self._send_registered(chosen, entry.seq, entry.context,
                                        entry.deadline, redelivered=entry)
        if sent_at is None:
            return False
        attempt = entry.attempt + 1
        self._registry.increment(
            metrics_mod.REDELIVERED_TOTAL,
            **metrics_mod.tenant_labels(self.tenant, downstream=chosen,
                                        edge=self.name or "-"))
        if self._trace.enabled:
            self._trace.emit(Span(
                RETRY, entry.seq, sent_at, sent_at,
                device_id=self.name or "-",
                hop="egress:%s" % (self.name or "-"),
                detail="redeliver:%s>%s#%d"
                       % (entry.downstream or "-", chosen, attempt),
                tenant=self.tenant))
        if self.on_redeliver is not None:
            self.on_redeliver(entry.seq, chosen, entry.context,
                              attempt)
        return True

    def _send_redelivery(self, downstream_id: str,
                         entry: ReplayEntry) -> Optional[float]:
        if self._egress is None:
            return self._clock()
        send_redelivery = getattr(self._egress, "send_redelivery", None)
        if send_redelivery is not None:
            return send_redelivery(downstream_id, entry.seq, entry.context,
                                   entry.attempt + 1)
        return self._egress.send(downstream_id, entry.seq, entry.context)

    # -- snapshots -------------------------------------------------------
    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def policy(self) -> RoutingPolicy:
        return self._policy

    @property
    def tracker(self) -> AckTracker:
        return self._tracker

    @property
    def rate_meter(self) -> RateMeter:
        return self._rate

    @property
    def last_decision(self) -> PolicyDecision:
        return self._policy.last_decision

    def stats(self) -> Dict[str, DownstreamStats]:
        with self._lock:
            return self._tracker.stats()

    def lost_by_downstream(self) -> Dict[str, int]:
        with self._lock:
            return self._tracker.lost_by_downstream()

    def dead_downstreams(self) -> List[str]:
        with self._lock:
            return sorted(downstream_id for downstream_id
                          in self._tracker.downstream_ids()
                          if not self._tracker.is_alive(downstream_id))
