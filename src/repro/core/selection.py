"""Worker Selection (paper Sec. V-A).

Given service-rate estimates ``mu_i = 1/L_i`` and the measured input rate
``Lambda``, select the *minimum* number of downstream function units, taken
fastest-first, whose summed service rate meets the input rate.  If even all
units together cannot meet the rate, select all of them.

Sorting fastest-first avoids stragglers; selecting the minimum subset
minimises the compute resources (and therefore energy) in use.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional


def select_min_prefix(rates: Mapping[str, float], target_rate: float) -> List[str]:
    """Return the minimal fastest-first prefix whose rates sum to the target.

    ``rates`` maps downstream id -> service rate (tuples/second).  Ties are
    broken by id so the selection is deterministic.  A non-positive target
    selects the single fastest unit (some work must flow somewhere).
    """
    if not rates:
        return []
    ordered = sorted(rates, key=lambda key: (-rates[key], key))
    if target_rate <= 0.0:
        return ordered[:1]
    selected: List[str] = []
    total = 0.0
    for downstream_id in ordered:
        selected.append(downstream_id)
        total += rates[downstream_id]
        if total >= target_rate:
            return selected
    return ordered  # sum rate constraint unsatisfiable: select everything


def select_all(rates: Mapping[str, float], target_rate: float) -> List[str]:
    """Degenerate selector used by the no-selection policies (RR/PR/LR)."""
    return sorted(rates)


class WorkerSelector:
    """Stateful selector handling units with no rate estimate yet.

    Units without any latency sample (just joined, or long unselected) are
    *optimistically included*: the paper handles this by periodically
    probing in round-robin mode, and a new device must receive some tuples
    before it can ever be measured.
    """

    def __init__(self, use_selection: bool = True) -> None:
        self._use_selection = use_selection

    def select(self, rates: Dict[str, Optional[float]], target_rate: float) -> List[str]:
        known = {key: value for key, value in rates.items() if value is not None}
        unknown = sorted(key for key, value in rates.items() if value is None)
        if not self._use_selection:
            return sorted(rates)
        chosen = select_min_prefix(known, target_rate)
        known_total = sum(known[key] for key in chosen)
        if known_total < target_rate:
            # Cannot meet the rate with measured units alone: include the
            # unmeasured ones too rather than leaving capacity idle.
            return sorted(set(chosen) | set(unknown))
        return sorted(set(chosen) | set(unknown)) if not known else chosen
