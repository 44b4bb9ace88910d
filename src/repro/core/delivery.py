"""Delivery semantics under churn: replay and dedup.

Swing's swarm is made of *mobile* devices, so membership churn is the
normal case rather than the failure case.  Best-effort delivery (the
historical behaviour) simply charges a tuple that was sitting in a
departed worker's mailbox to ``swing_tuples_lost_total``.  This module
supplies the pieces that upgrade an edge to configurable
**at-least-once** delivery:

``DeliveryConfig``
    Frozen knob bundle selecting the mode and sizing the buffers.

``ReplayBuffer``
    Upstream retention of sent-but-un-ACKed tuples, bounded by count
    *and* bytes.  When a downstream dies (or gracefully leaves) the
    controller pops the entries assigned to it and redelivers each to a
    surviving member.  Eviction is never silent: every discarded entry
    increments ``swing_replay_evicted_total{reason=...}``.

``DedupWindow``
    Bounded seen-window used by sinks (and relay workers) so
    at-least-once redelivery cannot double-count throughput/accuracy.

Everything here is substrate-neutral: no SimPy, no threads beyond a
plain lock, and time always arrives as an argument.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import (AbstractSet, Deque, Dict, Hashable, Iterable, List,
                    Optional, Set)

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError

#: delivery modes
BEST_EFFORT = "best_effort"
AT_LEAST_ONCE = "at_least_once"
_MODES = frozenset({BEST_EFFORT, AT_LEAST_ONCE})

#: replay eviction reasons (``swing_replay_evicted_total{reason=...}``)
EVICT_CAPACITY = "capacity"
EVICT_BYTES = "bytes"
EVICT_ATTEMPTS = "attempts"
EVICT_EXPIRED = "expired"
EVICT_SHED = "shed"


@dataclass(frozen=True)
class DeliveryConfig:
    """Knobs for the delivery-semantics subsystem of one edge.

    ``mode``
        ``"best_effort"`` (historical behaviour: no retention, no
        dedup) or ``"at_least_once"`` (replay + redelivery + dedup).
    ``replay_capacity``
        Maximum number of un-ACKed tuples retained for replay.
    ``replay_bytes``
        Optional byte bound on retained payloads (``None`` = count
        bound only).  Whichever bound trips first evicts the oldest
        entry — overload protection always wins over retention.
    ``max_delivery_attempts``
        Total delivery attempts per tuple including the first send;
        a tuple that exhausts its attempts is evicted (counted), not
        retried forever.
    ``redelivery_timeout``
        Age after which a retained-but-unacked entry is swept into
        redelivery even without an explicit death signal.  ``None``
        falls back to the controller's ``ack_timeout``.
    ``dedup_window``
        Size of the sink-side seen-window; duplicates older than the
        window may be double-delivered (at-least-once, not exactly-once).
    """

    mode: str = BEST_EFFORT
    replay_capacity: int = 256
    replay_bytes: Optional[int] = None
    max_delivery_attempts: int = 4
    redelivery_timeout: Optional[float] = None
    dedup_window: int = 1024

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise RuntimeStateError("unknown delivery mode %r (want one of %s)"
                                  % (self.mode, sorted(_MODES)))
        if self.replay_capacity < 1:
            raise RuntimeStateError("replay_capacity must be >= 1")
        if self.replay_bytes is not None and self.replay_bytes < 1:
            raise RuntimeStateError("replay_bytes must be >= 1 when set")
        if self.max_delivery_attempts < 1:
            raise RuntimeStateError("max_delivery_attempts must be >= 1")
        if (self.redelivery_timeout is not None
                and self.redelivery_timeout <= 0):
            raise RuntimeStateError("redelivery_timeout must be positive")
        if self.dedup_window < 1:
            raise RuntimeStateError("dedup_window must be >= 1")

    @property
    def at_least_once(self) -> bool:
        return self.mode == AT_LEAST_ONCE


@dataclass
class ReplayEntry:
    """One retained wire unit awaiting its ACK: a tuple or a batch."""

    seq: int                   # the unit's head seq (its replay key)
    downstream: Optional[str]  # None = not currently assigned anywhere
    context: object            # opaque payload (bytes / sim frame)
    nbytes: int
    attempt: int               # delivery attempts spent so far (>= 1)
    sent_at: float
    deadline: Optional[float]
    #: a batch's un-ACKed member seqs, head included (empty for a lone
    #: tuple); every entry of one unit shares this set, so an ACK or a
    #: shed strikes a member even while the unit waits for redelivery
    members: AbstractSet[int] = frozenset()
    #: the key hash of a keyed tuple, so redelivery honors range owners
    key_hash: Optional[int] = None


class ReplayBuffer:
    """Bounded retention of un-ACKed units for at-least-once replay.

    Entries are keyed by their head ``seq`` and kept in insertion order.
    Both bounds (count and bytes) are enforced on every ``retain``; when
    a bound trips, expired entries go first, then the oldest — and every
    eviction increments ``swing_replay_evicted_total{reason=...}`` so
    retention loss is observable, never silent.

    A batch is ONE entry; its members are indexed to it from their
    first retention until the entry goes for good (released, evicted,
    discarded), including while :meth:`take_for` / :meth:`take_stale`
    have handed it out for redelivery.  A member's ACK or shed strikes
    it, and the entry goes with its last member.
    """

    def __init__(self, config: DeliveryConfig,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 name: str = "") -> None:
        self.config = config
        self.name = name
        self._registry = registry if registry is not None \
            else metrics_mod.MetricsRegistry()
        self._entries: "OrderedDict[int, ReplayEntry]" = OrderedDict()
        #: batch member seq -> the latest entry of its batch
        self._member_of: Dict[int, ReplayEntry] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    # -- retention ---------------------------------------------------------
    def retain(self, seq: int, downstream: Optional[str], context: object,
               now: float, deadline: Optional[float] = None,
               attempt: int = 1, members: AbstractSet[int] = frozenset(),
               key_hash: Optional[int] = None) -> None:
        """Remember *seq* until it is ACKed, evicting to stay in bounds.

        *members* is a batch's un-ACKed member set (head included); the
        entry keeps that very set, so retaining a unit again shares its
        ACK tally with the unit's earlier entries.
        """
        if isinstance(context, (bytes, bytearray, memoryview)):
            nbytes = len(context)
        elif isinstance(context, (tuple, list)):
            # A batched retention's context is its member frames; the
            # batch weighs what its members weigh.
            nbytes = sum(int(getattr(item, "nbytes", 0) or 0)
                         for item in context)
        else:
            nbytes = int(getattr(context, "nbytes", 0) or 0)
        entry = ReplayEntry(seq=seq, downstream=downstream, context=context,
                            nbytes=nbytes, attempt=attempt, sent_at=now,
                            deadline=deadline, members=members,
                            key_hash=key_hash)
        with self._lock:
            self._pop_locked(seq)
            self._entries[seq] = entry
            self._bytes += nbytes
            for member in members:
                self._member_of[member] = entry
            self._enforce_bounds(now, keep=seq)

    def _enforce_bounds(self, now: float, keep: int) -> None:
        """Evict (expired first, then oldest) until both bounds hold."""
        while len(self._entries) > self.config.replay_capacity:
            self._evict_one(now, keep, EVICT_CAPACITY)
        if self.config.replay_bytes is None:
            return
        while self._bytes > self.config.replay_bytes \
                and len(self._entries) > 1:
            self._evict_one(now, keep, EVICT_BYTES)

    def _evict_one(self, now: float, keep: int, reason: str) -> None:
        victim = None
        for entry in self._entries.values():
            if entry.seq == keep:
                continue
            if entry.deadline is not None and now > entry.deadline:
                victim = entry
                reason = EVICT_EXPIRED
                break
        if victim is None:
            for entry in self._entries.values():
                if entry.seq != keep:
                    victim = entry
                    break
        if victim is None:  # only the just-retained entry remains
            victim = self._entries[keep]
        self._pop_locked(victim.seq)
        self._forget_locked(victim)
        self._count_eviction(reason)

    def _pop_locked(self, seq: int) -> Optional[ReplayEntry]:
        entry = self._entries.pop(seq, None)
        if entry is not None:
            self._bytes -= entry.nbytes
        return entry

    def _forget_locked(self, entry: ReplayEntry) -> None:
        """Un-index the members of a unit that is gone for good."""
        for member in entry.members:
            self._member_of.pop(member, None)
        if entry.members:
            entry.members.clear()

    def _strike_locked(self, seq: int) -> Optional[int]:
        """Strike *seq* from its batch; the replay key whose entry may go
        now (*seq* itself for a lone tuple, the head once a batch's last
        member is struck), ``None`` while other members need it."""
        entry = self._member_of.pop(seq, None)
        if entry is None:
            return seq
        entry.members.discard(seq)
        return None if entry.members else entry.seq

    def _count_eviction(self, reason: str) -> None:
        self._registry.increment(metrics_mod.REPLAY_EVICTED_TOTAL,
                                 reason=reason, edge=self.name)

    # -- release / takeover ------------------------------------------------
    def release(self, seq: int) -> bool:
        """*seq*'s ACK arrived: drop its entry (a batch's, with its last
        member).  True if an entry went."""
        with self._lock:
            target = self._strike_locked(seq)
            return target is not None and self._pop_locked(target) is not None

    def release_batch(self, seqs: List[int]) -> bool:
        """The whole batch headed by ``seqs[0]`` was ACKed at once."""
        with self._lock:
            entry = next((self._member_of[seq] for seq in seqs
                          if seq in self._member_of),
                         self._entries.get(seqs[0]))
            if entry is not None:
                self._forget_locked(entry)
            return self._pop_locked(seqs[0]) is not None

    def withdraw(self, seq: int) -> None:
        """Take back the entry retained for a send that failed; its unit
        is retained again (re-routed or parked) or discarded next, so
        its members stay indexed."""
        with self._lock:
            self._pop_locked(seq)

    def evict(self, seq: int, reason: str) -> bool:
        """Give *seq* up for *reason* (shed, ...), counting the eviction
        when its entry goes: a batch member only shrinks the batch until
        its last member is given up (True: the entry stays for the
        others).  False when nothing was held."""
        with self._lock:
            target = self._strike_locked(seq)
            if target is None:
                return True
            entry = self._pop_locked(target)
            if entry is not None:
                self._forget_locked(entry)
        if entry is None:
            return False
        self._count_eviction(reason)
        return True

    def discard(self, entry: ReplayEntry, reason: str) -> None:
        """Count giving up on an already-taken *entry* for *reason*."""
        with self._lock:
            self._forget_locked(entry)
        self._count_eviction(reason)

    def holds(self, seq: int) -> bool:
        """Whether *seq* is retained, alone or as an un-ACKed member of
        a retained batch."""
        with self._lock:
            entry = self._member_of.get(seq)
            return (entry.seq if entry is not None else seq) in self._entries

    def take_for(self, downstream: str) -> List[ReplayEntry]:
        """Pop every entry assigned to *downstream* (its crash/leave)."""
        with self._lock:
            taken = [entry for entry in self._entries.values()
                     if entry.downstream == downstream]
            for entry in taken:
                self._pop_locked(entry.seq)
        return taken

    def take_stale(self, cutoff: float) -> List[ReplayEntry]:
        """Pop entries sent at or before *cutoff* (ACK overdue).

        Unassigned entries (``downstream is None`` — retained while no
        live member existed) are always considered stale: they are
        waiting for the next sweep to find them a home.
        """
        with self._lock:
            taken = [entry for entry in self._entries.values()
                     if entry.downstream is None or entry.sent_at <= cutoff]
            for entry in taken:
                self._pop_locked(entry.seq)
        return taken

    # -- introspection -----------------------------------------------------
    def entries(self) -> List[ReplayEntry]:
        """Snapshot of retained entries, oldest first (checkpointing)."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes


class DedupWindow:
    """Bounded set of recently seen keys (check-and-insert).

    ``seen(key)`` returns True when *key* was already observed inside
    the window (a duplicate) and False otherwise, recording it either
    way.  The window holds the last ``capacity`` distinct keys; beyond
    that, at-least-once degrades gracefully to possible re-delivery of
    very old tuples — which is the contract, not exactly-once.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise RuntimeStateError("dedup window capacity must be >= 1")
        self.capacity = capacity
        self._order: Deque[Hashable] = deque()
        self._keys: Set[Hashable] = set()
        self.duplicates = 0
        self._lock = threading.Lock()

    def seen(self, key: Hashable) -> bool:
        with self._lock:
            if key in self._keys:
                self.duplicates += 1
                return True
            self._keys.add(key)
            self._order.append(key)
            while len(self._order) > self.capacity:
                evicted = self._order.popleft()
                self._keys.discard(evicted)
            return False

    def snapshot(self) -> List[Hashable]:
        """Window contents oldest-first, for control-plane checkpoints."""
        with self._lock:
            return list(self._order)

    def restore(self, keys: Iterable[Hashable]) -> None:
        """Seed the window from a checkpoint (without counting dupes)."""
        with self._lock:
            for key in keys:
                if key in self._keys:
                    continue
                self._keys.add(key)
                self._order.append(key)
                while len(self._order) > self.capacity:
                    evicted = self._order.popleft()
                    self._keys.discard(evicted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

