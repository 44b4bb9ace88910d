"""Routing tables with weighted probabilistic tuple routing.

Each upstream function unit keeps a routing table holding the IDs of its
downstream units and a normalized weight per ID (paper Sec. IV-C / V-A).
Upon tuple arrival the upstream draws a weighted random downstream — fast,
constant-time-per-tuple routing requiring only a random number.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, Iterable, List, Mapping, Optional

from repro.core.exceptions import RoutingError


def normalize_weights(weights: Mapping[str, float]) -> Dict[str, float]:
    """Scale *weights* to sum to one; uniform if all weights are zero."""
    if not weights:
        return {}
    for downstream_id, weight in weights.items():
        if weight < 0:
            raise RoutingError("negative weight %r for %r" % (weight, downstream_id))
    total = sum(weights.values())
    if total <= 0.0:
        share = 1.0 / len(weights)
        return {downstream_id: share for downstream_id in weights}
    return {downstream_id: weight / total for downstream_id, weight in weights.items()}


class RoutingTable:
    """Normalized weights over downstream IDs with O(log n) sampling."""

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self._weights: Dict[str, float] = {}
        self._ids: List[str] = []
        self._cumulative: List[float] = []
        if weights:
            self.set_weights(weights)

    # -- mutation --------------------------------------------------------
    def set_weights(self, weights: Mapping[str, float]) -> None:
        """Replace the table contents with normalized *weights*."""
        self._weights = normalize_weights(weights)
        self._rebuild()

    def add(self, downstream_id: str, weight: float = 0.0) -> None:
        """Add a downstream (e.g. a device that just joined).

        A zero weight keeps existing proportions; the next policy update
        assigns it a real share.  A positive weight is blended in and the
        table renormalized.
        """
        raw = dict(self._weights)
        raw[downstream_id] = weight
        self.set_weights(raw)

    def remove(self, downstream_id: str) -> None:
        """Drop a downstream (device left / link broken) and renormalize."""
        if downstream_id not in self._weights:
            raise RoutingError("unknown downstream %r" % downstream_id)
        raw = dict(self._weights)
        del raw[downstream_id]
        self.set_weights(raw)

    # -- queries ---------------------------------------------------------
    def __contains__(self, downstream_id: str) -> bool:
        return downstream_id in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    @property
    def weights(self) -> Dict[str, float]:
        return dict(self._weights)

    def weight(self, downstream_id: str) -> float:
        try:
            return self._weights[downstream_id]
        except KeyError:
            raise RoutingError("unknown downstream %r" % downstream_id) from None

    def ids(self) -> List[str]:
        return list(self._ids)

    # -- routing ---------------------------------------------------------
    def choose(self, rng: random.Random) -> str:
        """Draw one downstream ID proportionally to its weight."""
        if not self._ids:
            raise RoutingError("routing table is empty")
        point = rng.random()
        # bisect_right maps id i to the half-open interval
        # [cumulative[i-1], cumulative[i]): a zero-weight downstream owns
        # an empty interval and can never be drawn, even at the exact
        # boundary points (rng.random() == 0.0 used to land on index 0
        # with bisect_left regardless of that entry's weight).
        index = bisect.bisect_right(self._cumulative, point)
        if index >= len(self._ids):
            index = len(self._ids) - 1
        return self._ids[index]

    def _rebuild(self) -> None:
        self._ids = sorted(self._weights)
        self._cumulative = []
        running = 0.0
        for downstream_id in self._ids:
            running += self._weights[downstream_id]
            self._cumulative.append(running)
        if self._cumulative:
            self._cumulative[-1] = 1.0  # guard against float drift


class RoundRobinCycler:
    """Deterministic rotation over a set of downstream IDs (probing, RR)."""

    def __init__(self, ids: Optional[Iterable[str]] = None) -> None:
        self._ids: List[str] = sorted(ids) if ids else []
        self._index = 0

    def set_ids(self, ids: Iterable[str]) -> None:
        current = self._ids[self._index % len(self._ids)] if self._ids else None
        self._ids = sorted(ids)
        if current in self._ids:
            # Keep rotating from the same place when membership changes.
            self._index = self._ids.index(current)
        else:
            self._index = 0

    def next(self) -> str:
        if not self._ids:
            raise RoutingError("round-robin cycler has no downstreams")
        downstream_id = self._ids[self._index % len(self._ids)]
        self._index = (self._index + 1) % len(self._ids)
        return downstream_id


class RoundRobinTable(RoutingTable):
    """A routing table whose draw rotates over its IDs (the RR policy).

    Weights are kept (the policy reports equal shares) but ignored by
    :meth:`choose`: each call returns the next ID in turn, and a
    membership change keeps rotating from the same place.
    """

    def __init__(self) -> None:
        self._cycler = RoundRobinCycler()
        super().__init__()

    def _rebuild(self) -> None:
        self._ids = sorted(self._weights)
        self._cycler.set_ids(self._ids)

    def choose(self, rng: random.Random) -> str:
        return self._cycler.next()
