"""Routing policies: RR, PR, LR, PRS and the paper's LRS.

Use :func:`make_policy` to construct a policy by name::

    policy = make_policy("LRS", seed=7)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.core.exceptions import PolicyError
from repro.core.policies.base import (PolicyDecision, ProbeScheduler,
                                      RoutingPolicy, weights_from_delays)
from repro.core.policies.round_robin import RoundRobinPolicy
from repro.core.policies.weighted import (LatencyRoutingPolicy,
                                          LatencyRoutingSelectionPolicy,
                                          ProcessingDelayRoutingPolicy,
                                          ProcessingDelaySelectionPolicy,
                                          WeightedPolicy)

POLICY_REGISTRY: Dict[str, Type[RoutingPolicy]] = {
    "RR": RoundRobinPolicy,
    "PR": ProcessingDelayRoutingPolicy,
    "LR": LatencyRoutingPolicy,
    "PRS": ProcessingDelaySelectionPolicy,
    "LRS": LatencyRoutingSelectionPolicy,
}

#: evaluation order used throughout the paper's figures
POLICY_NAMES: List[str] = ["RR", "PR", "LR", "PRS", "LRS"]


def make_policy(name: str, seed: Optional[int] = None, **kwargs) -> RoutingPolicy:
    """Build a routing policy by its paper name (case-insensitive)."""
    try:
        cls = POLICY_REGISTRY[name.upper()]
    except KeyError:
        raise PolicyError("unknown policy %r (expected one of %r)"
                          % (name, POLICY_NAMES)) from None
    return cls(seed=seed, **kwargs)


__all__ = [
    "POLICY_NAMES",
    "POLICY_REGISTRY",
    "LatencyRoutingPolicy",
    "LatencyRoutingSelectionPolicy",
    "PolicyDecision",
    "ProbeScheduler",
    "ProcessingDelayRoutingPolicy",
    "ProcessingDelaySelectionPolicy",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "WeightedPolicy",
    "make_policy",
    "weights_from_delays",
]
