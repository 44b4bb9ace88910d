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
    An object with ``send(downstream_id, seq, context, attempt) ->
    Optional[float]`` returning the send timestamp on success and
    ``None`` on failure; a failed send dead-marks the downstream and
    triggers a re-route.  It is the only way to the wire: *attempt* is
    1 for a first send and counts up for each at-least-once
    redelivery.  The runtime's egress performs one health-gated fabric
    send (stamping the attempt on the frame); the simulator's egress
    always succeeds instantly because delivery, loss and delay are
    modeled by the network, and puts a redelivered frame on the air.

``MetricSink``
    A :class:`~repro.metrics.MetricsRegistry`; every counter the control
    plane emits goes through it.

``TraceSink``
    A :class:`~repro.trace.Tracer` (default: the disabled
    ``NULL_TRACER``).  The controller emits ``ack_rtt`` spans for every
    matched timestamp echo and ``retry`` instants for every re-route,
    in the same span vocabulary both substrates' adapters use.

The hosting adapters decide *when* to call in (``observe_arrival`` /
``dispatch`` per tuple; ``maybe_update`` from the runtime loop's timer,
which sleeps until ``next_update()``, or ``update`` from the simulator's
periodic process) but never *what* happens — that is the contract the
sim/real parity harness in ``tests/integration`` verifies.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Collection, Deque, Dict, Iterable, List,
                    Optional, Tuple, Union)

from repro import metrics as metrics_mod
from repro.core.batching import BatchConfig
from repro.core.delivery import (EVICT_ATTEMPTS, EVICT_EXPIRED,
                                 DeliveryConfig, ReplayBuffer, ReplayEntry)
from repro.core.exceptions import PolicyError, RoutingError
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

    The one carrier of the control-plane settings: the simulator's
    :class:`~repro.simulation.swarm.SwarmConfig` and
    :class:`~repro.simulation.pipeline.PipelineConfig` hold one, and
    :class:`~repro.runtime.app_runner.SwingRuntime` hands its one to
    every worker and every edge's
    :class:`~repro.runtime.dispatcher.UpstreamDispatcher`.  Nothing on
    the way re-declares a field, so both substrates read the same
    values, and each rule on a value is checked here, once.
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

    def __post_init__(self) -> None:
        if self.control_interval <= 0:
            raise PolicyError("control interval must be positive")
        if self.ack_timeout <= 0:
            raise PolicyError("ack timeout must be positive")
        if self.dead_after < 1:
            raise PolicyError("dead_after must be >= 1")

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
        self._rate = RateMeter()
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
        self._redeliver_queue: Deque[Union[str, ReplayEntry]] = deque()
        self._redelivering = False
        # -- keyed routing (None until the substrate attaches a table) ---
        self._key_table: Optional[KeyRangeTable] = None
        self._key_detector: Optional[HotRangeDetector] = None
        #: lazily created swing_batch_size histogram for this edge
        self._batch_histogram: Optional[metrics_mod.Histogram] = None
        #: per-downstream swing_ack_rtt_seconds handles
        self._ack_rtt = metrics_mod.Handles(self._registry.histogram,
                                            metrics_mod.ACK_RTT_SECONDS,
                                            "downstream")
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
            with self._lock:
                if self._key_detector is not None:
                    self._key_detector.observe(
                        self._key_table.range_of(key_hash), self._clock())
            return self._place(seq, (), context, deadline,
                               self._owner(key_hash), key_hash=key_hash)
        return self._place(seq, (), context, deadline, self._route())

    def _route(self) -> Optional[str]:
        """One policy draw; ``None`` when the edge has no member."""
        with self._lock:
            try:
                return self._policy.route()
            except RoutingError:
                return None

    def _owner(self, key_hash: int) -> Optional[str]:
        """The live owner of *key_hash*'s range; ``None`` when the range
        is paused or unowned, or its owner is dead-marked."""
        with self._lock:
            owner = self._key_table.owner_of(key_hash)
            if owner is not None and self._tracker.is_alive(owner):
                return owner
        return None

    def _place(self, seq: int, members: Collection[int],
               context: Optional[object], deadline: Optional[float],
               chosen: Optional[str], key_hash: Optional[int] = None,
               replayed: Optional[ReplayEntry] = None) -> Optional[str]:
        """Send one wire unit to *chosen*, the first target its caller
        picked: a policy draw, a key's live range owner, or a
        redelivery's fallback.

        Every unit takes this one loop: a lone tuple, a frame of
        *members* (head *seq* first; empty for a lone tuple), a keyed
        tuple (*key_hash*: only its range owner may take it), or
        *replayed*, a retained entry back for redelivery.  *seq* keys
        the unit's single pending-ACK entry (one latency sample, one
        loss charge on expiry — what lets a batch amortize the
        control-plane cost) and its single replay entry.  A failed send
        dead-marks its target and a stateless unit falls back to the
        next live member; with no taker the unit is parked unassigned
        (at-least-once) or lost.
        """
        retain = self._replay is not None and context is not None
        # Counted before the send: an ACK folded inside it strikes
        # members off the shared set.
        count = len(members) or 1
        if replayed is None:
            attempt, tried = 1, set()
            if retain and members:
                members = set(members)  # struck off as members are ACKed
        else:  # the member it was last sent to (None: parked) is tried
            attempt, tried = replayed.attempt + 1, {replayed.downstream}
        while chosen is not None:
            sent_at = self._send_registered(chosen, seq, members, context,
                                            deadline, key_hash, attempt)
            if sent_at is not None:
                self._count_placed(seq, count, chosen, tried, sent_at,
                                   replayed)
                return chosen
            tried.add(chosen)
            self.mark_dead(chosen)
            if key_hash is not None and self._key_table is not None:
                break  # nobody but the range owner may take a keyed tuple
            chosen = self._fallback(tried)
        if retain:
            # No live member took it (or its range is paused): park it
            # unassigned so the next redelivery sweep places it once
            # someone comes back.  Parking spends no attempt.
            self._replay.retain(seq, None, context, now=self._clock(),
                                deadline=deadline,
                                attempt=max(attempt - 1, 1),
                                members=members, key_hash=key_hash)
        return None

    def _count_placed(self, seq: int, count: int, chosen: str, tried,
                      sent_at: float,
                      replayed: Optional[ReplayEntry]) -> None:
        """Book a unit that went out: a first send counts its tuples as
        dispatched (and a re-route, when a target failed before
        *chosen*), a redelivery counts itself."""
        if replayed is None:
            self.dispatched += count
            if not tried:
                return
            self._registry.increment(metrics_mod.REROUTED_TOTAL,
                                     downstream=chosen)
            detail, tenant = ",".join(sorted(tried)), ""
        else:
            self._registry.increment(
                metrics_mod.REDELIVERED_TOTAL,
                **metrics_mod.tenant_labels(self.tenant, downstream=chosen,
                                            edge=self.name or "-"))
            detail = "redeliver:%s>%s#%d" % (replayed.downstream or "-",
                                              chosen, replayed.attempt + 1)
            tenant = self.tenant
        if self._trace.enabled:
            self._trace.emit(Span(RETRY, seq, sent_at, sent_at,
                                  device_id=self.name or "-",
                                  hop="egress:%s" % (self.name or "-"),
                                  detail=detail, tenant=tenant))

    def _send_registered(self, downstream_id: str, seq: int,
                         members: Collection[int],
                         context: Optional[object],
                         deadline: Optional[float],
                         key_hash: Optional[int],
                         attempt: int) -> Optional[float]:
        """Register *seq* as in flight and retained, THEN run the egress.

        The egress may block and drop the GIL (a socket write), and the
        ACK can be folded by another thread before it returns.  Registered
        first, that ACK finds its pending entry and its retention.
        Registered afterwards it found neither, and what was then
        retained was an orphan: swept as stale, redelivered past the
        dedup windows and delivered twice, its pending entry charged as a
        lost tuple.  A failed send is undone exactly — the pending entry
        it displaced (an earlier attempt, on a redelivery) is put back,
        retention withdrawn, nothing counted as sent.
        """
        now = self._clock()
        retain = self._replay is not None and context is not None
        with self._lock:
            displaced = self._tracker.begin_send(seq, downstream_id, now)
        if retain:
            self._replay.retain(seq, downstream_id, context, now=now,
                                deadline=deadline, attempt=attempt,
                                members=members, key_hash=key_hash)
        sent_at = (self._clock() if self._egress is None
                   else self._egress.send(downstream_id, seq, context,
                                          attempt))
        with self._lock:
            if sent_at is None:
                self._tracker.cancel_send(seq, displaced)
            else:
                self._tracker.commit_send(downstream_id)
        if sent_at is None and retain:
            self._replay.withdraw(seq)
        return sent_at

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
        return self.dispatch_routed(seqs, self._route(), context, deadline)

    def route_many(self, count: int) -> List[Optional[str]]:
        """*count* policy draws in order, one per tuple: exactly what
        *count* calls of :meth:`dispatch` would draw, taken at once so
        that a caller holding tuples can frame them per downstream
        (``None``: the edge has no member)."""
        with self._lock:  # one membership for the whole burst
            return [self._route() for _ in range(count)]

    def dispatch_routed(self, seqs: Iterable[int], chosen: Optional[str],
                        context: Optional[object] = None,
                        deadline: Optional[float] = None) -> Optional[str]:
        """Send one frame of tuples already routed to *chosen* (by
        :meth:`route_many`): one pending-ACK entry, one replay entry,
        one echo — and the same send / fallback / dead-mark path as
        :meth:`dispatch`.  Within one burst, holding changes the
        framing, never where a tuple was routed.  Unlike
        :meth:`dispatch_batch` it records no ``swing_batch_size``: held
        frames are not configured batches."""
        seqs = list(seqs)
        if not seqs:
            return None
        return self._place(seqs[0], seqs if len(seqs) > 1 else (),
                           context, deadline, chosen)

    def _observe_batch_size(self, size: int) -> None:
        if self._batch_histogram is None:
            self._batch_histogram = self._registry.histogram(
                metrics_mod.BATCH_SIZE,
                buckets=metrics_mod.BATCH_SIZE_BUCKETS,
                edge=self.name or "-")
        self._batch_histogram.observe(size)

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
            # batch member's ACK only strikes the member (the simulator
            # ACKs batch members one result at a time).
            self._replay.release(seq)
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
        if self._replay is not None:
            self._replay.release_batch(seqs)
        return self._fold_ack(seqs[0], len(seqs), processing_delay, now)

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
        self._ack_rtt[downstream_id].observe(sample)
        if self._trace.enabled and self._trace.sampled(head):
            self._trace.emit(Span(ACK_RTT, head, now - sample, now,
                                  device_id=self.name or "-",
                                  hop="egress:%s" % (self.name or "-"),
                                  detail=downstream_id),
                             sampled=True)
        return AckResult(downstream_id=downstream_id, sample=sample)

    # -- control plane ---------------------------------------------------
    def next_update(self) -> float:
        """Clock time at which the next once-per-interval round is due."""
        return self._last_update + self.config.control_interval

    def maybe_update(self, now: Optional[float] = None) -> PolicyDecision:
        """Once-per-interval policy round, run only when due (the
        runtime loop's timer calls this at :meth:`next_update`)."""
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
        return self._replay is not None and self._replay.holds(seq)

    def replay_depth(self) -> int:
        return len(self._replay) if self._replay is not None else 0

    def export_retention(self) -> List[Tuple[int, int, Optional[float],
                                             object, Tuple[int, ...]]]:
        """Snapshot retained entries for a control-plane checkpoint.

        Each item is ``(seq, attempt, deadline, context, member_seqs)``;
        ``member_seqs`` lists a batch entry's un-ACKed members (head
        included while un-ACKed) and is empty for a lone tuple.
        """
        if self._replay is None:
            return []
        return [(entry.seq, entry.attempt, entry.deadline, entry.context,
                 tuple(sorted(entry.members)))
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
            self._replay.retain(seq, None, context, now=now,
                                deadline=deadline, attempt=attempt,
                                members=(set(members) | {seq}
                                         if len(members) > 1 else ()))
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
        return self._replay is not None and self._replay.evict(seq, reason)

    def _sweep_replay(self, now: float) -> None:
        """Redeliver retained tuples whose ACK is overdue."""
        if self._replay is None:
            return
        stale = self._replay.take_stale(now - self._redelivery_timeout)
        if stale:
            with self._lock:
                self._redeliver_queue.extend(stale)
            self._drain_redeliveries()

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
        """Give *entry* up (expired, out of attempts) or place it again:
        a keyed tuple on its range's live owner only, anything else on
        a live member other than the one that failed to ACK it (that one
        itself when it is the sole survivor)."""
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
            return
        if entry.key_hash is not None and self._key_table is not None:
            chosen = self._owner(entry.key_hash)
        else:
            chosen = self._fallback({entry.downstream})
            if chosen is None and entry.downstream is not None \
                    and self.is_alive(entry.downstream):
                chosen = entry.downstream  # sole survivor: retry in place
        self._place(entry.seq, entry.members, entry.context, entry.deadline,
                    chosen, entry.key_hash, replayed=entry)

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
