"""RR: round-robin routing (paper baseline).

The default distribution mechanism of data-center stream processors (SEEP,
Storm, IBM Streams) and recent mobile ones: each upstream sends tuples to
all its downstream units in turns, one tuple at a time, ignoring both
device capability and network conditions.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.latency import DownstreamStats
from repro.core.policies.base import PolicyDecision, RoutingPolicy
from repro.core.routing import RoundRobinTable


class RoundRobinPolicy(RoutingPolicy):
    """Strict rotation over every alive downstream.

    The rotation lives in the routing table (its draw takes turns), so
    RR routes, dead-marks and falls back exactly like every other policy.
    """

    name = "RR"
    uses_selection = False

    def __init__(self, seed=None, **kwargs) -> None:
        # RR needs no probing: every downstream is visited constantly.
        super().__init__(seed=seed, probe_every=1, probe_tuples=0)
        self._table = RoundRobinTable()

    def compute_decision(self, stats: Mapping[str, DownstreamStats],
                         input_rate: float) -> PolicyDecision:
        alive = sorted(stats)
        share = 1.0 / len(alive) if alive else 0.0
        return PolicyDecision(selected=alive,
                              weights={ds: share for ds in alive})
