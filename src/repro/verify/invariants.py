"""Global invariants over one chaos run's normalized history.

The checker consumes a :class:`RunHistory` — the substrate-neutral
normal form both adapters produce from a run (frame records / sink
collections, the metrics registry, control-plane checkpoints) — and
checks the guarantees the repo claims (DESIGN.md §14 maps each
invariant to its guarantee-matrix rows):

``tuple_conservation``
    Every emitted tuple has exactly one disposition::

        emitted == delivered ∪ accounted ∪ covered

    where *accounted* are drop-charged tuples (shed, expired, link
    down, …) and *covered* tuples are bounded by the loud replay-budget
    terms: ``|emitted - delivered - accounted| <= evictions +
    retained_end``.  No phantom deliveries either: a delivered or
    accounted seq must have been emitted.
``at_least_once_completeness``
    Per tenant, the conservation bound with the tenant's own eviction
    budget: when nothing was evicted and nothing is still retained, the
    sink saw *everything*.
``dedup_soundness``
    No seq is delivered past a sink twice — across master
    incarnations, not just within one.
``epoch_fencing``
    Master epochs only move forward, one recovery per scheduled
    restart, and stale-epoch control traffic is counted, never acted
    on.
``keyed_state_integrity``
    After any number of hot-range splits and live migrations, a key
    lives in at most one live store and always hashes into a range its
    holder owns in the final table (crashed owners lose state by
    design — the guarantee matrix's crash row — so only live stores
    are audited).
``bounded_queues``
    No ingress queue ever exceeded its configured bound.
``tenant_isolation``
    A hot tenant's overload sheds its *own* tuples: victim tenants
    show zero unaccounted loss.
``loss_accounted``
    Every drop and eviction carries a reason from the known
    vocabulary — loss is always loud, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core import delivery
from repro.core.keyed import KeyRange, hash_key
from repro.simulation import metrics as sim_metrics

#: drop reasons either substrate may legitimately charge
KNOWN_DROP_REASONS = frozenset({
    sim_metrics.DROP_SOURCE_QUEUE, sim_metrics.DROP_CONN_OVERFLOW,
    sim_metrics.DROP_DEVICE_LEFT, sim_metrics.DROP_LINK_DOWN,
    sim_metrics.DROP_STALE, sim_metrics.DROP_EXPIRED,
    sim_metrics.DROP_BACKPRESSURE, sim_metrics.DROP_QUEUE_FULL,
    # runtime chaos fabric injections (always counted, never silent); a
    # delayed frame whose target vanished before it was delivered
    "chaos_drop", "chaos_corrupt", "chaos_partition", "chaos_delay_lost",
    # runtime worker: undecodable DATA/BATCH frame, ACK / result the
    # fabric could not carry, message whose handler raised, batch flush
    # that raised; TCP reader: undecodable frame; TCP writer: frame too
    # large to send; master or worker: control frame to a peer that is
    # gone (tests/verify/test_invariants.py greps the runtime for new ones)
    "corrupt_batch", "ack_unsent", "send_failed", "handler_error",
    "flush_error", "corrupt_frame", "oversized_frame", "control_unsent",
})
KNOWN_EVICT_REASONS = frozenset({
    delivery.EVICT_CAPACITY, delivery.EVICT_BYTES, delivery.EVICT_ATTEMPTS,
    delivery.EVICT_EXPIRED, delivery.EVICT_SHED,
})


@dataclass(frozen=True)
class Violation:
    """One invariant broken by one run."""

    invariant: str
    message: str
    details: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "message": self.message,
                "details": {key: sorted(value)
                            if isinstance(value, (set, frozenset))
                            else value
                            for key, value in self.details.items()}}


@dataclass
class TenantHistory:
    """Per-tenant delivery ledger ('' = the single-tenant namespace)."""

    emitted: Set[int] = field(default_factory=set)
    judged: Set[int] = field(default_factory=set)       # inside horizon
    delivered: List[int] = field(default_factory=list)  # arrival order
    accounted: Set[int] = field(default_factory=set)    # drop-charged
    queued_end: Set[int] = field(default_factory=set)   # still in-flight
    retained: Set[int] = field(default_factory=set)     # still replayable
    evictions: int = 0

    @property
    def delivered_set(self) -> Set[int]:
        return set(self.delivered)

    @property
    def unaccounted(self) -> Set[int]:
        # Only seqs inside the judging horizon owe a disposition —
        # tuples emitted during the tail settle window may legitimately
        # still be in flight when the run is cut off — and a seq the
        # substrate can *show* still queued or retained at end of run is
        # the conservation equation's in-flight term, not a loss.  What
        # remains must fit inside the (loud) eviction count.
        return ((self.judged & self.emitted) - self.delivered_set
                - self.accounted - self.queued_end - self.retained)


@dataclass
class RunHistory:
    """Substrate-neutral evidence one chaos run leaves behind."""

    substrate: str
    at_least_once: bool = True
    tenants: Dict[str, TenantHistory] = field(default_factory=dict)
    hot_tenant: Optional[str] = None
    #: global counters (labels collapsed)
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    evict_reasons: Dict[str, int] = field(default_factory=dict)
    redelivered: int = 0
    deduped: int = 0
    retained_end: int = 0
    #: ingress high-water marks and the configured bound (None=unbounded)
    queue_depths: Dict[str, int] = field(default_factory=dict)
    queue_capacity: Optional[int] = None
    #: control plane: scheduled restarts vs observed recoveries/epochs
    expected_recoveries: int = 0
    recoveries: int = 0
    epochs: Tuple[int, ...] = ()
    fenced: int = 0
    #: keyed audit: {"tables": {tenant: [(lo, hi, owner), ...]},
    #:               "stores": {device: {tenant: [key, ...]}}}
    keyed_audit: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)

    @property
    def total_evictions(self) -> int:
        return sum(self.evict_reasons.values())


class InvariantChecker:
    """Checks every invariant against one :class:`RunHistory`."""

    def check(self, history: RunHistory) -> List[Violation]:
        violations: List[Violation] = []
        violations.extend(self._tuple_conservation(history))
        violations.extend(self._completeness(history))
        violations.extend(self._dedup_soundness(history))
        violations.extend(self._epoch_fencing(history))
        violations.extend(self._keyed_integrity(history))
        violations.extend(self._bounded_queues(history))
        violations.extend(self._tenant_isolation(history))
        violations.extend(self._loss_accounted(history))
        return violations

    # -- conservation ------------------------------------------------------
    def _tuple_conservation(self, history: RunHistory) -> List[Violation]:
        violations: List[Violation] = []
        for tenant, ledger in sorted(history.tenants.items()):
            phantom = ledger.delivered_set - ledger.emitted
            if phantom:
                violations.append(Violation(
                    "tuple_conservation",
                    "tenant %r delivered %d seq(s) that were never "
                    "emitted" % (tenant, len(phantom)),
                    {"tenant": tenant, "seqs": sorted(phantom)[:20]}))
            ghost = ledger.accounted - ledger.emitted
            if ghost:
                violations.append(Violation(
                    "tuple_conservation",
                    "tenant %r drop-charged %d seq(s) that were never "
                    "emitted" % (tenant, len(ghost)),
                    {"tenant": tenant, "seqs": sorted(ghost)[:20]}))
        unaccounted = sum(len(ledger.unaccounted)
                          for ledger in history.tenants.values())
        budget = history.total_evictions
        if history.at_least_once and unaccounted > budget:
            violations.append(Violation(
                "tuple_conservation",
                "%d tuple(s) have no disposition (delivered + dropped + "
                "evicted + queued + retained != emitted) but only %d "
                "eviction(s) were recorded" % (unaccounted, budget),
                {"unaccounted": unaccounted, "evictions":
                 history.total_evictions,
                 "retained_end": history.retained_end}))
        return violations

    # -- at-least-once -----------------------------------------------------
    def _completeness(self, history: RunHistory) -> List[Violation]:
        if not history.at_least_once:
            return []
        violations: List[Violation] = []
        for tenant, ledger in sorted(history.tenants.items()):
            missing = ledger.unaccounted
            budget = ledger.evictions
            if len(missing) > budget:
                violations.append(Violation(
                    "at_least_once_completeness",
                    "tenant %r lost %d tuple(s) end-to-end beyond its "
                    "eviction budget of %d under at-least-once delivery"
                    % (tenant, len(missing), budget),
                    {"tenant": tenant, "seqs": sorted(missing)[:20],
                     "evictions": ledger.evictions,
                     "retained_end": history.retained_end}))
        return violations

    # -- dedup -------------------------------------------------------------
    def _dedup_soundness(self, history: RunHistory) -> List[Violation]:
        violations: List[Violation] = []
        for tenant, ledger in sorted(history.tenants.items()):
            seen: Set[int] = set()
            duplicated: Set[int] = set()
            for seq in ledger.delivered:
                if seq in seen:
                    duplicated.add(seq)
                seen.add(seq)
            if duplicated:
                violations.append(Violation(
                    "dedup_soundness",
                    "tenant %r saw %d seq(s) delivered past the sink "
                    "more than once" % (tenant, len(duplicated)),
                    {"tenant": tenant, "seqs": sorted(duplicated)[:20]}))
        return violations

    # -- epochs ------------------------------------------------------------
    def _epoch_fencing(self, history: RunHistory) -> List[Violation]:
        violations: List[Violation] = []
        if history.recoveries != history.expected_recoveries:
            violations.append(Violation(
                "epoch_fencing",
                "schedule restarts the master %d time(s) but %d "
                "recovery(ies) were observed"
                % (history.expected_recoveries, history.recoveries),
                {"expected": history.expected_recoveries,
                 "observed": history.recoveries}))
        epochs = history.epochs
        for previous, current in zip(epochs, epochs[1:]):
            if current <= previous:
                violations.append(Violation(
                    "epoch_fencing",
                    "master epoch went from %d to %d — epochs must be "
                    "strictly increasing" % (previous, current),
                    {"epochs": list(epochs)}))
                break
        if history.fenced < 0:  # defensive; counters never go negative
            violations.append(Violation(
                "epoch_fencing", "negative fenced-message count",
                {"fenced": history.fenced}))
        return violations

    # -- keyed state -------------------------------------------------------
    def _keyed_integrity(self, history: RunHistory) -> List[Violation]:
        audit = history.keyed_audit
        if not audit:
            return []
        violations: List[Violation] = []
        tables: Dict[str, Sequence[Tuple[int, int, str]]] = \
            audit.get("tables", {})  # type: ignore[assignment]
        stores: Dict[str, Dict[str, Sequence[str]]] = \
            audit.get("stores", {})  # type: ignore[assignment]
        holders: Dict[Tuple[str, str], List[str]] = {}
        for device_id, by_tenant in sorted(stores.items()):
            for tenant, keys in sorted(by_tenant.items()):
                for key in keys:
                    holders.setdefault((tenant, key),
                                       []).append(device_id)
        for (tenant, key), devices in sorted(holders.items()):
            if len(devices) > 1:
                violations.append(Violation(
                    "keyed_state_integrity",
                    "key %r (tenant %r) lives in %d stores at once: %s"
                    % (key, tenant, len(devices), sorted(devices)),
                    {"tenant": tenant, "key": key,
                     "devices": sorted(devices)}))
                continue
            entries = tables.get(tenant, ())
            owner = None
            key_hash = hash_key(key)
            for lo, hi, range_owner in entries:
                if KeyRange(int(lo), int(hi)).contains(key_hash):
                    owner = range_owner
                    break
            if owner != devices[0]:
                violations.append(Violation(
                    "keyed_state_integrity",
                    "key %r (tenant %r) is stored on %r but the final "
                    "table routes its range to %r"
                    % (key, tenant, devices[0], owner),
                    {"tenant": tenant, "key": key, "holder": devices[0],
                     "owner": owner}))
        return violations

    # -- queues ------------------------------------------------------------
    def _bounded_queues(self, history: RunHistory) -> List[Violation]:
        capacity = history.queue_capacity
        if capacity is None:
            return []
        violations: List[Violation] = []
        for name, depth in sorted(history.queue_depths.items()):
            if depth > capacity:
                violations.append(Violation(
                    "bounded_queues",
                    "queue %r reached depth %d, past its bound of %d"
                    % (name, depth, capacity),
                    {"queue": name, "depth": depth,
                     "capacity": capacity}))
        return violations

    # -- tenant isolation --------------------------------------------------
    def _tenant_isolation(self, history: RunHistory) -> List[Violation]:
        hot = history.hot_tenant
        if hot is None or not history.at_least_once:
            return []
        violations: List[Violation] = []
        for tenant, ledger in sorted(history.tenants.items()):
            if tenant == hot:
                continue
            missing = ledger.unaccounted
            budget = ledger.evictions
            if len(missing) > budget:
                violations.append(Violation(
                    "tenant_isolation",
                    "victim tenant %r lost %d tuple(s) while %r ran hot "
                    "— overload must shed the offender's own traffic"
                    % (tenant, len(missing), hot),
                    {"tenant": tenant, "hot_tenant": hot,
                     "seqs": sorted(missing)[:20]}))
        return violations

    # -- loud loss ---------------------------------------------------------
    def _loss_accounted(self, history: RunHistory) -> List[Violation]:
        violations: List[Violation] = []
        unknown_drops = set(history.drop_reasons) - KNOWN_DROP_REASONS
        if unknown_drops:
            violations.append(Violation(
                "loss_accounted",
                "drops charged under unknown reason(s): %s"
                % sorted(unknown_drops),
                {"reasons": sorted(unknown_drops)}))
        unknown_evictions = set(history.evict_reasons) \
            - KNOWN_EVICT_REASONS
        if unknown_evictions:
            violations.append(Violation(
                "loss_accounted",
                "replay evictions under unknown reason(s): %s"
                % sorted(unknown_evictions),
                {"reasons": sorted(unknown_evictions)}))
        return violations
