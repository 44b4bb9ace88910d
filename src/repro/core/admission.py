"""The one bounded queue under both substrates' inbound paths.

The runtime's :class:`~repro.runtime.fabric.Mailbox` and the simulator's
:class:`~repro.simulation.engine.Store` (worker ingress, source egress)
are this FIFO plus their own way of waiting: a condition variable there,
getter/putter events here.  :meth:`AdmissionQueue.offer` is the only
caller of :func:`repro.core.overload.admission` and
:func:`repro.core.multitenant.fair_admission`, and the queue is the only
place per-tenant occupancy changes.  Sans-IO: no lock, no clock, no
waiting — the caller serialises access, waits however its substrate
waits, and counts what ``offer`` hands back as shed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.core import multitenant
from repro.core import overload

#: one queued element: ``(item, tenant, tuples)``
Entry = Tuple[Any, str, int]


class AdmissionQueue:
    """FIFO of ``(item, tenant, tuples)`` entries bounded in *tuples*.

    ``capacity`` and ``drop_policy`` are the
    :class:`~repro.core.overload.OverloadConfig` fields of those names.
    What ``capacity`` bounds is the data-plane tuples queued: an entry
    weighs the tuples it carries (a batch of 64 weighs 64), and one
    offered with ``tuples=0`` — control traffic — takes no capacity, is
    always admitted and is never evicted.  ``len()`` counts entries of
    every kind.
    """

    def __init__(self, capacity: Optional[int] = None,
                 drop_policy: str = overload.DROP_OLDEST) -> None:
        self.capacity = capacity
        self.drop_policy = drop_policy
        #: data-plane tuples queued (what ``capacity`` bounds)
        self.depth = 0
        #: the same per tenant ("" = default); no key for an absent tenant
        self.tenant_depths: Dict[str, int] = {}
        #: fair-share budgets; ``None`` = single-tenant ``drop_policy``
        self.budgets: Optional[Dict[str, int]] = None
        self._priorities: Dict[str, int] = {}
        self._entries: Deque[Entry] = deque()

    def set_tenant_budgets(self, budgets: Optional[Mapping[str, int]],
                           priorities: Optional[Mapping[str, int]] = None
                           ) -> None:
        """Bound by cross-tenant fair share instead of ``drop_policy``
        (which is not consulted while budgets are installed)."""
        self.budgets = dict(budgets) if budgets else None
        self._priorities = dict(priorities or {})

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Tuple[Any, ...]:
        """The queued items, oldest first."""
        return tuple(entry[0] for entry in self._entries)

    def offer(self, item: Any, tenant: str = "",
              tuples: int = 1) -> Tuple[str, Tuple[Entry, ...]]:
        """Decide one arrival; returns ``(action, shed)``.

        ``ADMIT``: *item* is queued; *shed* holds the entry evicted to
        make room for it, if one was.  ``REJECT``: the queue is unchanged
        and *shed* is the arrival itself.  ``WAIT`` (``block`` policy at
        capacity): the queue is unchanged, nothing is shed; offer again
        after a :meth:`pop`.
        """
        shed: Tuple[Entry, ...] = ()
        if self.capacity is not None and tuples:
            if self.budgets is not None:
                decision = multitenant.fair_admission(
                    tenant, self.tenant_depths, self.budgets, self.capacity,
                    self._priorities)
                action, victim = decision.action, decision.victim
            else:
                action, victim = overload.admission(
                    self.depth, self.capacity, self.drop_policy), None
            if action == overload.REJECT:
                return action, ((item, tenant, tuples),)
            if action == overload.WAIT:
                return action, shed
            if action == overload.EVICT_OLDEST:
                # A full queue holds tuples, and a victim tenant is one
                # over its budget: the entry to evict always exists.
                index, entry = next(
                    (i, entry) for i, entry in enumerate(self._entries)
                    if entry[2] and (victim is None or entry[1] == victim))
                del self._entries[index]
                self._forget(entry)
                shed = (entry,)
        self._entries.append((item, tenant, tuples))
        if tuples:
            self.depth += tuples
            self.tenant_depths[tenant] = (
                self.tenant_depths.get(tenant, 0) + tuples)
        return overload.ADMIT, shed

    def pop(self) -> Any:
        """Remove and return the oldest item (``IndexError`` when empty)."""
        entry = self._entries.popleft()
        if entry[2]:
            self._forget(entry)
        return entry[0]

    def drain(self) -> List[Any]:
        """Remove and return every queued item, oldest first."""
        return [self.pop() for _ in range(len(self._entries))]

    def hand_over(self, burst: Deque[Entry]) -> None:
        """Move every entry, oldest first, onto the end of *burst*.  It
        holds them before the queue lets them go, so a lock-free reader
        summing both lengths may count one twice, never zero times."""
        burst.extend(self._entries)
        self._entries.clear()
        self.depth = 0
        self.tenant_depths.clear()

    def _forget(self, entry: Entry) -> None:
        _item, tenant, tuples = entry
        self.depth -= tuples
        left = self.tenant_depths[tenant] - tuples
        if left:
            self.tenant_depths[tenant] = left
        else:
            del self.tenant_depths[tenant]
