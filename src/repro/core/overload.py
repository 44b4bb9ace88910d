"""Overload protection shared by both substrates (runtime + simulator).

Once the swarm's aggregate service rate falls below the input rate
(Lambda > sum of mu_i), LRS "selects all" and every unbounded queue in
the system grows without limit: tuples arrive seconds stale and memory
grows unboundedly.  This module is the single source of truth for how
the system degrades *gracefully* instead:

* **Deadlines** — a tuple may carry an absolute deadline stamped at the
  source (``created_at + ttl``).  Any stage (dispatcher egress, worker
  ingress, sink) drops an expired tuple instead of spending transmission
  or compute on work nobody can use.
* **Bounded queues** — every queue (the runtime's mailboxes, the
  simulator's source egress and device ingress queues) is one
  :class:`repro.core.admission.AdmissionQueue` with a capacity and a
  drop policy; :func:`admission` is the decision it takes per arrival.
* **Source admission control** — :func:`source_admission` turns the
  local backpressure signal (queue depth, all-downstreams-dead) into a
  shed-at-source decision, so doomed work is refused before it is
  generated into the pipeline.

Every shed is counted in the ``swing_tuples_shed_total{reason=...}``
counter family (:mod:`repro.metrics`) with one of the
:data:`SHED_REASONS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.exceptions import RuntimeStateError

# -- drop policies -------------------------------------------------------
#: evict the oldest queued element to admit the newcomer (frame-like
#: streams: the newest sample is the most valuable one)
DROP_OLDEST = "drop_oldest"
#: refuse the newcomer, keep the queue as is (FIFO work queues)
DROP_NEWEST = "drop_newest"
#: make the producer wait for space (classic backpressure)
BLOCK = "block"

DROP_POLICIES = frozenset({DROP_OLDEST, DROP_NEWEST, BLOCK})

# -- admission decisions (what a queue should do with one arrival) -------
ADMIT = "admit"
EVICT_OLDEST = "evict_oldest"
REJECT = "reject"
WAIT = "wait"

# -- shed reasons (the counter family's ``reason`` label values) ---------
REASON_EXPIRED = "expired"
REASON_QUEUE_FULL = "queue_full"
REASON_BACKPRESSURE = "backpressure"

SHED_REASONS = (REASON_EXPIRED, REASON_QUEUE_FULL, REASON_BACKPRESSURE)


@dataclass(frozen=True)
class OverloadConfig:
    """One experiment's overload-protection knobs, shared verbatim by the
    threaded runtime and the discrete-event simulator.

    The defaults disable every mechanism, preserving the historical
    unbounded-queue behavior (which the Fig. 1 delay build-up experiment
    depends on).
    """

    #: seconds of useful life from creation; ``None`` = tuples never
    #: expire.  The source stamps ``deadline = created_at + ttl``.
    ttl: Optional[float] = None
    #: per-queue capacity (worker ingress / runtime mailbox) in tuples;
    #: ``None`` = unbounded
    queue_capacity: Optional[int] = None
    #: what a full queue does with an arrival
    drop_policy: str = DROP_OLDEST
    #: source admission: shed new tuples while the local queue holds at
    #: least this many entries; ``None`` disables the depth signal
    backpressure_depth: Optional[int] = None
    #: source admission: shed new tuples while every downstream is
    #: dead-marked (dispatching would only manufacture guaranteed losses)
    shed_on_unsatisfiable: bool = True

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl <= 0:
            raise RuntimeStateError("ttl must be positive (or None)")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise RuntimeStateError("queue capacity must be >= 1 (or None)")
        if self.drop_policy not in DROP_POLICIES:
            raise RuntimeStateError(
                "unknown drop policy %r (expected one of %s)"
                % (self.drop_policy, ", ".join(sorted(DROP_POLICIES))))
        if self.backpressure_depth is not None and self.backpressure_depth < 1:
            raise RuntimeStateError("backpressure depth must be >= 1 (or None)")

    # -- deadlines -------------------------------------------------------
    def deadline_for(self, created_at: float) -> Optional[float]:
        """Absolute deadline for a tuple created at *created_at*."""
        if self.ttl is None:
            return None
        return created_at + self.ttl

    @property
    def enabled(self) -> bool:
        """Whether any protection mechanism is switched on."""
        return (self.ttl is not None or self.queue_capacity is not None
                or self.backpressure_depth is not None)


def expired(deadline: Optional[float], now: float) -> bool:
    """Whether a tuple carrying *deadline* is already too stale to use."""
    return deadline is not None and now > deadline


def admission(depth: int, capacity: Optional[int], drop_policy: str) -> str:
    """The single-tenant bounded-queue decision (pure; its one caller
    is :meth:`repro.core.admission.AdmissionQueue.offer`).

    Given the queue's current *depth* and its configured *capacity*,
    returns what to do with one arriving element: :data:`ADMIT`,
    :data:`EVICT_OLDEST` (admit after shedding the oldest),
    :data:`REJECT` (shed the newcomer) or :data:`WAIT` (block the
    producer).
    """
    if capacity is None or depth < capacity:
        return ADMIT
    if drop_policy == DROP_OLDEST:
        return EVICT_OLDEST
    if drop_policy == DROP_NEWEST:
        return REJECT
    return WAIT


def source_admission(depth: int, unsatisfiable: bool,
                     config: OverloadConfig) -> Optional[str]:
    """Shed-at-source decision for one about-to-be-generated tuple.

    Returns the shed reason (a member of :data:`SHED_REASONS`) or
    ``None`` to admit.  *depth* is the producer's local queue depth (the
    runtime's mailbox, the simulator's source egress queue);
    *unsatisfiable* is the dispatcher's all-downstreams-dead signal.
    """
    if unsatisfiable and config.shed_on_unsatisfiable:
        return REASON_BACKPRESSURE
    if (config.backpressure_depth is not None
            and depth >= config.backpressure_depth):
        return REASON_BACKPRESSURE
    return None
