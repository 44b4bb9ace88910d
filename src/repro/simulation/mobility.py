"""User mobility as RSSI-over-time traces (paper Sec. VI-C, Fig. 10).

The paper captures mobility through its effect on signal strength: a user
walking away from the AP moves the device through RSSI regions.  A
:class:`MobilityTrace` is a step function time -> RSSI; traces can be
composed per device into a :class:`MobilityPlan` that the swarm simulation
replays.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.exceptions import SimulationError
from repro.simulation.network import rssi_for_region


@dataclass
class MobilityTrace:
    """Piecewise-constant RSSI schedule for one device.

    ``steps`` is a sorted sequence of ``(start_time, rssi)`` pairs; the
    first entry must start at time 0.
    """

    device_id: str
    steps: Sequence[Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.steps:
            raise SimulationError("mobility trace needs at least one step")
        times = [when for when, _ in self.steps]
        if times[0] != 0.0:
            raise SimulationError("mobility trace must start at t=0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise SimulationError("mobility trace times must strictly increase")

    @classmethod
    def stationary(cls, device_id: str, rssi: float) -> "MobilityTrace":
        return cls(device_id=device_id, steps=((0.0, rssi),))

    @classmethod
    def walk(cls, device_id: str, regions: Sequence[str],
             dwell: float) -> "MobilityTrace":
        """Visit named signal regions in order, *dwell* seconds in each.

        ``walk("G", ["good", "fair", "poor"], 60)`` reproduces the Fig. 10
        schedule: one minute per region, walking away from the AP.
        """
        if dwell <= 0:
            raise SimulationError("dwell time must be positive")
        steps = [(index * dwell, rssi_for_region(region))
                 for index, region in enumerate(regions)]
        return cls(device_id=device_id, steps=tuple(steps))

    def rssi_at(self, when: float) -> float:
        """RSSI in effect at time *when*."""
        if when < 0:
            raise SimulationError("time must be non-negative")
        times = [start for start, _ in self.steps]
        index = bisect.bisect_right(times, when) - 1
        return self.steps[index][1]

    def change_points(self) -> List[Tuple[float, float]]:
        """All ``(time, rssi)`` transitions after t=0."""
        return [(when, rssi) for when, rssi in self.steps if when > 0.0]


@dataclass
class MobilityPlan:
    """Per-device mobility traces for one experiment."""

    traces: Dict[str, MobilityTrace] = field(default_factory=dict)

    def add(self, trace: MobilityTrace) -> "MobilityPlan":
        if trace.device_id in self.traces:
            raise SimulationError("duplicate trace for %s" % trace.device_id)
        self.traces[trace.device_id] = trace
        return self

    def initial_rssi(self, device_id: str, default: float) -> float:
        trace = self.traces.get(device_id)
        if trace is None:
            return default
        return trace.rssi_at(0.0)

    def events(self) -> List[Tuple[float, str, float]]:
        """All RSSI transitions as ``(time, device_id, rssi)``, sorted."""
        events = []
        for device_id, trace in self.traces.items():
            for when, rssi in trace.change_points():
                events.append((when, device_id, rssi))
        return sorted(events)
