"""Multi-tenant control plane: many pipelines sharing one swarm.

The paper's deployment shape is many concurrent sensing apps running over
a single device fleet, but historically one ``Master`` owned one swarm
running one pipeline.  This module introduces the vocabulary and the one
cross-tenant decision function both substrates share:

* **TenantId** — a plain string naming one tenant pipeline.  The empty
  string :data:`DEFAULT_TENANT` is the implicit single-tenant namespace:
  every wire frame, metric label and edge key stays byte-identical to
  the pre-multi-tenant system when the tenant is the default one.
* **TenantSpec** — one tenant's share of the swarm: an admission weight
  (how much of a contended queue it may hold) and a priority tier
  (who sheds first when everyone is over budget).
* :func:`fair_admission` — the cross-tenant extension of
  ``repro.core.overload.admission``: a pure function of queue state,
  taken per arrival by :class:`repro.core.admission.AdmissionQueue`
  once tenant budgets are installed.

Fair-share semantics
--------------------

Capacity is divided into weighted integer *budgets*
(:func:`tenant_budgets`).  While the shared queue has free space every
arrival is admitted — budgets only matter under contention.  When the
queue is full:

* an arrival from a tenant **at or over** its own budget is rejected
  (the overloaded tenant sheds its own newest tuple first — it can
  never displace a well-behaved tenant's work);
* an arrival from a tenant **under** its budget evicts the oldest tuple
  of the most-over-budget tenant, preferring the lowest priority tier
  among over-budget tenants and breaking remaining ties by lexicographic
  tenant id (determinism for trace replay);
* if no tenant is over budget (capacity smaller than the budget sum's
  rounding slack), the arrival is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core import overload as overload_mod
from repro.core.exceptions import RuntimeStateError

#: a tenant is named by a plain string; the empty string is the implicit
#: single-tenant namespace (no wire/metric/key changes at N=1)
TenantId = str

#: the implicit tenant every pre-multi-tenant artifact belongs to
DEFAULT_TENANT: TenantId = ""


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the shared swarm."""

    #: non-empty tenant name; becomes the ``tenant=`` metric label and
    #: the wire tag on this tenant's frames
    tenant_id: TenantId
    #: relative admission weight; a tenant's budget in a contended queue
    #: is ``capacity * weight / sum(weights)`` (floored, min 1)
    weight: float = 1.0
    #: priority tier: under contention, *lower* tiers shed before higher
    #: ones.  Equal-tier tenants shed by over-budget depth.
    priority: int = 0
    #: optional per-tenant source rate (tuples/s) overriding the shared
    #: workload's rate; ``None`` inherits the workload default
    input_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise RuntimeStateError("tenant_id must be a non-empty string")
        # The id embeds into scoped unit/edge/instance keys, whose
        # separators must stay unambiguous.
        for forbidden in (":", ">", "@"):
            if forbidden in self.tenant_id:
                raise RuntimeStateError(
                    "tenant_id must not contain %r" % forbidden)
        if self.weight <= 0:
            raise RuntimeStateError("tenant weight must be positive")
        if self.input_rate is not None and self.input_rate <= 0:
            raise RuntimeStateError("tenant input_rate must be positive (or None)")


def tenant_budgets(specs: Sequence[TenantSpec],
                   capacity: int) -> Dict[TenantId, int]:
    """Split *capacity* queue slots into weighted per-tenant budgets.

    Every tenant gets at least one slot so a tiny weight cannot starve a
    tenant outright; the remainder is apportioned by weight (floored).
    Budgets may sum to slightly less than *capacity* — the slack is
    first-come-first-served and only matters at the margin.
    """
    if capacity < 1:
        raise RuntimeStateError("capacity must be >= 1")
    if not specs:
        return {}
    seen = set()
    for spec in specs:
        if spec.tenant_id in seen:
            raise RuntimeStateError("duplicate tenant id %r" % (spec.tenant_id,))
        seen.add(spec.tenant_id)
    total_weight = sum(spec.weight for spec in specs)
    return {spec.tenant_id: max(1, int(capacity * spec.weight / total_weight))
            for spec in specs}


@dataclass(frozen=True)
class FairDecision:
    """Outcome of one cross-tenant admission decision.

    ``action`` reuses the single-tenant admission vocabulary
    (``ADMIT`` / ``EVICT_OLDEST`` / ``REJECT``); when the action is
    ``EVICT_OLDEST``, ``victim`` names the tenant whose oldest tuple
    must be shed to make room.
    """

    action: str
    victim: Optional[TenantId] = None


def fair_admission(tenant_id: TenantId,
                   depths: Mapping[TenantId, int],
                   budgets: Mapping[TenantId, int],
                   capacity: Optional[int],
                   priorities: Optional[Mapping[TenantId, int]] = None,
                   ) -> FairDecision:
    """Cross-tenant admission for one arrival at a shared bounded queue.

    *depths* maps each tenant to the number of its tuples currently in
    the queue; *budgets* comes from :func:`tenant_budgets`.  Pure
    function; its one caller is
    :meth:`repro.core.admission.AdmissionQueue.offer`.
    """
    if capacity is None:
        return FairDecision(overload_mod.ADMIT)
    total = sum(depths.values())
    if total < capacity:
        return FairDecision(overload_mod.ADMIT)
    # Queue full.  A tenant at/over its own budget sheds its own newest
    # tuple; it never touches anyone else's.
    own_depth = depths.get(tenant_id, 0)
    own_budget = budgets.get(tenant_id, 0)
    if own_depth >= own_budget:
        return FairDecision(overload_mod.REJECT)
    # The arrival is within its budget: evict from whoever is most over
    # theirs, lowest priority tier first, tenant id as the final tie-break.
    victim: Optional[TenantId] = None
    victim_key: Optional[tuple] = None
    for other, depth in depths.items():
        if depth <= 0:
            continue
        over = depth - budgets.get(other, 0)
        if over <= 0:
            continue
        tier = priorities.get(other, 0) if priorities else 0
        # Sort ascending: lowest tier, then most over budget, then
        # lexicographically smallest id wins the victim slot.
        key = (tier, -over, other)
        if victim_key is None or key < victim_key:
            victim = other
            victim_key = key
    if victim is None:
        return FairDecision(overload_mod.REJECT)
    return FairDecision(overload_mod.EVICT_OLDEST, victim=victim)
