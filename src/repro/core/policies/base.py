"""Routing-policy interface shared by the runtime and the simulator.

A policy instance lives at one upstream function unit and decides, per
tuple, which downstream replica receives it.  The hosting runtime calls
:meth:`RoutingPolicy.update` periodically (every second in the paper) with
fresh :class:`~repro.core.latency.DownstreamStats` and the measured input
rate, and :meth:`RoutingPolicy.route` once per tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.exceptions import RoutingError
from repro.core.latency import DownstreamStats
from repro.core.routing import RoundRobinCycler, RoutingTable


@dataclass
class PolicyDecision:
    """Outcome of one policy update round."""

    selected: List[str] = field(default_factory=list)
    weights: Dict[str, float] = field(default_factory=dict)
    probing: bool = False


class ProbeScheduler:
    """Periodic round-robin probing of *all* downstreams (paper Sec. V-B).

    Selected-only routing starves the latency estimates of unselected
    units, so "each upstream function unit switches periodically every few
    rounds to round robin mode for a short time".  After every
    ``probe_every`` update rounds, the next ``probe_tuples`` probes are
    routed round-robin across every alive downstream.  Probes are spaced
    ``probe_spacing`` tuples apart rather than sent back-to-back: a burst
    of transfers to weak-signal devices would monopolise the sender's
    radio and contaminate the latency samples of every other downstream.
    """

    def __init__(self, probe_every: int = 5, probe_tuples: int = 4,
                 probe_spacing: int = 3) -> None:
        self._probe_every = max(1, probe_every)
        self._probe_tuples = max(0, probe_tuples)
        self._probe_spacing = max(1, probe_spacing)
        self._round = 0
        self._remaining = 0
        self._since_last = 0

    def on_update_round(self) -> bool:
        """Advance one round; return True when a probe window begins."""
        if self._probe_tuples == 0:
            return False
        self._round += 1
        if self._round % self._probe_every == 0:
            self._remaining = self._probe_tuples
            self._since_last = self._probe_spacing  # first probe fires now
            return True
        return False

    def consume(self) -> bool:
        """Per-tuple check: True when this tuple should be a probe."""
        if self._remaining <= 0:
            return False
        self._since_last += 1
        if self._since_last >= self._probe_spacing:
            self._since_last = 0
            self._remaining -= 1
            return True
        return False

    @property
    def probing(self) -> bool:
        return self._remaining > 0


class RoutingPolicy:
    """Base class: membership bookkeeping + weighted/probe routing plumbing.

    Subclasses implement :meth:`compute_decision` which maps downstream
    stats and the input rate to a :class:`PolicyDecision`.
    """

    name = "base"
    uses_selection = False

    def __init__(self, seed: Optional[int] = None,
                 probe_every: int = 5, probe_tuples: int = 4,
                 probe_spacing: int = 3) -> None:
        self._rng = random.Random(seed)
        self._table = RoutingTable()
        self._members: Dict[str, bool] = {}
        self._probe_cycler = RoundRobinCycler()
        self._probe = ProbeScheduler(probe_every=probe_every,
                                     probe_tuples=probe_tuples,
                                     probe_spacing=probe_spacing)
        self._last_decision = PolicyDecision()

    # -- membership ------------------------------------------------------
    def on_downstream_added(self, downstream_id: str) -> None:
        """A device joined: start routing to it immediately (Sec. VI-C).

        Until the next update round assigns measured weights, the newcomer
        gets an equal share so it can be observed at all.
        """
        if downstream_id in self._members:
            return
        self._members[downstream_id] = True
        self._refresh_probe_cycler()
        current = self._table.weights
        if current:
            share = 1.0 / (len(current) + 1)
            blended = {ds: weight * (1.0 - share) for ds, weight in current.items()}
            blended[downstream_id] = share
            self._table.set_weights(blended)
        else:
            self._table.set_weights({downstream_id: 1.0})

    def on_downstream_removed(self, downstream_id: str) -> None:
        """A link broke / device left: remove and renormalize (Sec. IV-C)."""
        self._members.pop(downstream_id, None)
        self._refresh_probe_cycler()
        if downstream_id in self._table:
            self._table.remove(downstream_id)

    def mark_dead(self, downstream_id: str) -> None:
        """Stop routing regular traffic to a failing downstream.

        Unlike :meth:`on_downstream_removed` the member is kept: probing
        still cycles over it (and :meth:`route` cycles over nothing else
        once every member is dead), so a recovered device is observed
        again and :meth:`update` re-admits it once its stats report it
        alive — after an ACK, the only way back from dead.
        """
        if not self._members.get(downstream_id, False):
            return
        self._members[downstream_id] = False
        if downstream_id in self._table:
            self._table.remove(downstream_id)
        self._refresh_probe_cycler()

    def downstream_ids(self) -> List[str]:
        return sorted(self._members)

    def _alive_ids(self) -> List[str]:
        return sorted(ds for ds, alive in self._members.items() if alive)

    def _refresh_probe_cycler(self) -> None:
        # Probe every member, dead ones included: the periodic round-robin
        # refresh is what notices a departed device coming back (its ACK
        # resurrects it) and keeps unselected members' estimates fresh.
        members = sorted(self._members)
        if members:
            self._probe_cycler.set_ids(members)

    # -- control plane ---------------------------------------------------
    def update(self, stats: Mapping[str, DownstreamStats],
               input_rate: float) -> PolicyDecision:
        """Run one policy round; returns and installs the new decision."""
        for downstream_id, stat in stats.items():
            if downstream_id in self._members:
                self._members[downstream_id] = stat.alive
        alive = {downstream_id: stats[downstream_id]
                 for downstream_id in self._alive_ids() if downstream_id in stats}
        for downstream_id in self._alive_ids():
            if downstream_id not in alive:
                # Member we have never measured: present it with empty stats.
                alive[downstream_id] = DownstreamStats(downstream_id=downstream_id)
        decision = self.compute_decision(alive, input_rate)
        decision.probing = self._probe.on_update_round()
        self._refresh_probe_cycler()
        if decision.weights:
            self._table.set_weights(decision.weights)
        self._last_decision = decision
        return decision

    def compute_decision(self, stats: Mapping[str, DownstreamStats],
                         input_rate: float) -> PolicyDecision:
        raise NotImplementedError

    @property
    def last_decision(self) -> PolicyDecision:
        return self._last_decision

    # -- data plane ------------------------------------------------------
    def route(self) -> str:
        """Pick the downstream for the next tuple.

        The one routing rule for every policy: a probe goes round-robin
        over all members, regular traffic follows the table, and an edge
        whose table is empty (every member dead) keeps cycling over its
        dead members — so a send, and with it a reviving ACK, can still
        happen.
        """
        if not self._members:
            raise RoutingError("policy %r has no downstreams" % self.name)
        if self._probe.consume():
            return self._probe_cycler.next()
        if len(self._table) == 0:
            self._refresh_probe_cycler()
            return self._probe_cycler.next()
        return self._table.choose(self._rng)

    @property
    def probing(self) -> bool:
        return self._probe.probing


def weights_from_delays(delays: Mapping[str, Optional[float]]) -> Dict[str, float]:
    """Turn per-downstream delays into normalized inverse-delay weights.

    ``p_i = (1/L_i) / sum_j (1/L_j)``.  Downstreams without an estimate yet
    are given the mean inverse-delay of the measured ones (optimistic
    bootstrap), or a uniform share when nothing is measured at all.
    """
    known = {ds: delay for ds, delay in delays.items()
             if delay is not None and delay > 0.0}
    if not known:
        return {ds: 1.0 for ds in delays}
    inverse = {ds: 1.0 / delay for ds, delay in known.items()}
    mean_inverse = sum(inverse.values()) / len(inverse)
    for ds in delays:
        if ds not in inverse:
            inverse[ds] = mean_inverse
    return inverse
