"""Energy estimation (paper Sec. VI-B-2, Figs. 6 and 7).

The paper does not measure power directly; it builds per-device profiles
offline (idle power, peak CPU power from a 30-minute 100%-load battery
drain, peak Wi-Fi power from a 30-minute iperf run) and estimates runtime
power from measured CPU utilisation and data rate.  We reimplement exactly
that estimator on top of the simulator's measured utilisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.core.exceptions import SimulationError
from repro.simulation.device import DeviceProfile

#: reference bandwidth at which a radio draws its peak Wi-Fi power
PEAK_WIFI_BANDWIDTH_BPS = 18.0e6


@dataclass
class DevicePower:
    """Estimated average power draw of one device during a run."""

    device_id: str
    cpu_w: float
    wifi_w: float

    @property
    def total_w(self) -> float:
        return self.cpu_w + self.wifi_w


@dataclass
class EnergyReport:
    """Per-device and aggregate power for one experiment (Fig. 6)."""

    per_device: Dict[str, DevicePower]
    duration: float

    @property
    def aggregate_w(self) -> float:
        """Total swarm power — the number atop each Fig. 6 group."""
        return sum(power.total_w for power in self.per_device.values())

    def aggregate_energy_j(self) -> float:
        return self.aggregate_w * self.duration

    def fps_per_watt(self, throughput: float) -> float:
        """The Fig. 7 efficiency metric: useful work per Watt."""
        if self.aggregate_w <= 0:
            return 0.0
        return throughput / self.aggregate_w


class PowerEstimator:
    """Utilisation-driven power model over a set of device profiles."""

    def __init__(self, profiles: Mapping[str, DeviceProfile]) -> None:
        self._profiles = dict(profiles)

    def estimate(self, cpu_utilization: Mapping[str, float],
                 bytes_transferred: Mapping[str, int],
                 duration: float) -> EnergyReport:
        """Estimate each device's average dynamic power over *duration*.

        ``cpu_utilization`` is each device's busy fraction (including
        framework overhead); ``bytes_transferred`` the data it moved over
        Wi-Fi (received frames + returned results).
        """
        if duration <= 0:
            raise SimulationError("duration must be positive")
        per_device = {}
        for device_id, profile in self._profiles.items():
            utilization = cpu_utilization.get(device_id, 0.0)
            transferred = bytes_transferred.get(device_id, 0)
            airtime = min(1.0, (transferred * 8.0 / duration)
                          / PEAK_WIFI_BANDWIDTH_BPS)
            per_device[device_id] = DevicePower(
                device_id=device_id,
                cpu_w=profile.power.cpu_power(utilization),
                wifi_w=profile.power.wifi_power(airtime),
            )
        return EnergyReport(per_device=per_device, duration=duration)

    def battery_life_hours(self, device_id: str, average_w: float) -> float:
        """Hours of battery at *average_w* draw above idle.

        Used to reproduce the paper's Sec. I observation that continuous
        face recognition drains a full charge in about two hours.
        """
        profile = self._profiles[device_id]
        draw = profile.power.idle_w + average_w
        if draw <= 0:
            raise SimulationError("non-positive power draw")
        return profile.power.battery_wh / draw
