"""Jepsen-style verification: chaos schedules + global invariants.

``repro.verify`` turns the repo's per-feature fault scenarios into one
adversarial harness:

``schedule``
    A :class:`FaultSchedule` composing every nemesis of the repo's one
    fault vocabulary (:mod:`repro.core.faults`) — worker kill /
    graceful drain / rejoin, master kill+restart, link partition/heal,
    seeded drop / delay / duplicate / corrupt windows, background-load
    bursts — against a keyed or multi-tenant workload profile,
    generated from one seed with validated composition rules.
``invariants``
    A :class:`RunHistory` normal form plus an :class:`InvariantChecker`
    over the guarantees the repo claims: tuple conservation,
    at-least-once completeness, dedup soundness, epoch-fencing
    monotonicity, keyed-state integrity, bounded queues and tenant
    isolation.
``adapters``
    One adapter per substrate mapping a schedule onto the
    discrete-event simulator and the threaded runtime and normalising
    each run into a :class:`RunHistory`.
``explorer``
    The sweep loop behind ``swing verify``: N seeded schedules, each
    checked on both substrates; a failing schedule is shrunk
    (delta-debugging over fault atoms, deterministic replay by seed)
    to a minimal JSON repro replayable via ``--replay``.
"""

from repro.verify.explorer import explore, replay, shrink  # noqa: F401
from repro.verify.invariants import (InvariantChecker,  # noqa: F401
                                     RunHistory, Violation)
from repro.verify.schedule import (FaultSchedule, RunProfile,  # noqa: F401
                                   ScheduleSpec)
