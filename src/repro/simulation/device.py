"""Device capability model.

Each simulated device mirrors one of the paper's testbed phones: a base
per-frame processing delay per application (Table I for face recognition),
modulated by background CPU load (Fig. 2, middle) and small lognormal
jitter.  The power figures feed the energy model of Sec. VI-B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.core.exceptions import SimulationError

#: fraction of device speed each unit of background load steals; calibrated
#: so 100% background load inflates processing delay ~6x as in Fig. 2.
BACKGROUND_CONTENTION = 0.85

#: residual speed floor so a fully loaded device still makes progress
MIN_SPEED_FACTOR = 0.10

#: lognormal sigma of per-frame service-time noise (Android-level
#: scheduling/GC variability)
SERVICE_JITTER_SIGMA = 0.30


@dataclass
class PowerProfile:
    """Offline-profiled power numbers (paper Sec. VI-B-2).

    ``idle_w`` is the baseline draw, ``peak_cpu_w`` the extra draw at 100%
    CPU, ``peak_wifi_w`` the extra draw at full radio utilisation, and
    ``battery_wh`` the pack capacity used for battery-life estimates.
    """

    idle_w: float
    peak_cpu_w: float
    peak_wifi_w: float
    battery_wh: float = 6.5

    def __post_init__(self) -> None:
        for name in ("idle_w", "peak_cpu_w", "peak_wifi_w", "battery_wh"):
            if getattr(self, name) < 0:
                raise SimulationError("%s must be non-negative" % name)

    def cpu_power(self, utilization: float) -> float:
        """Dynamic CPU power at the given utilisation in [0, 1]."""
        return self.peak_cpu_w * _clamp01(utilization)

    def wifi_power(self, airtime_fraction: float) -> float:
        """Dynamic Wi-Fi power at the given airtime fraction in [0, 1]."""
        return self.peak_wifi_w * _clamp01(airtime_fraction)


@dataclass
class DeviceProfile:
    """Static description of one swarm device."""

    device_id: str
    model: str
    #: mean per-frame processing delay per app name, seconds (Table I)
    processing_delay: Dict[str, float]
    power: PowerProfile
    cores: int = 2
    #: constant CPU share consumed by the Swing framework itself while the
    #: device participates (the paper measures ~14% average overhead)
    framework_overhead: float = 0.08
    #: whether the device thermal-throttles under sustained load
    #: (phones do; wall-powered cloudlet VMs do not)
    throttles: bool = True

    def __post_init__(self) -> None:
        if not self.device_id:
            raise SimulationError("device needs an id")
        for app, delay in self.processing_delay.items():
            if delay <= 0:
                raise SimulationError(
                    "device %s: non-positive delay for app %r" % (self.device_id, app))
        if not 0.0 <= self.framework_overhead < 1.0:
            raise SimulationError("framework overhead must be in [0, 1)")

    def base_delay(self, app: str) -> float:
        try:
            return self.processing_delay[app]
        except KeyError:
            raise SimulationError(
                "device %s has no profile for app %r" % (self.device_id, app)) from None

    def service_rate(self, app: str) -> float:
        """Nominal throughput in frames per second (Table I, third row)."""
        return 1.0 / self.base_delay(app)

    def with_delay(self, app: str, delay: float) -> "DeviceProfile":
        delays = dict(self.processing_delay)
        delays[app] = delay
        return replace(self, processing_delay=delays)


class CpuModel:
    """Turns base delays into actual service times under background load.

    ``background_load`` in [0, 1] models other apps competing for the
    processor (Fig. 2, middle panel): the effective speed factor is
    ``max(MIN_SPEED_FACTOR, 1 - BACKGROUND_CONTENTION * load)``.
    """

    def __init__(self, profile: DeviceProfile, app: str,
                 background_load: float = 0.0) -> None:
        if not 0.0 <= background_load <= 1.0:
            raise SimulationError("background load must be in [0, 1]")
        self.profile = profile
        self.app = app
        self.background_load = background_load

    @property
    def speed_factor(self) -> float:
        return max(MIN_SPEED_FACTOR,
                   1.0 - BACKGROUND_CONTENTION * self.background_load)

    def mean_service_time(self) -> float:
        return self.profile.base_delay(self.app) / self.speed_factor

    def effective_rate(self) -> float:
        return 1.0 / self.mean_service_time()

    def service_time(self, jitter: float = 1.0) -> float:
        """One frame's processing time; *jitter* is multiplicative noise."""
        if jitter <= 0:
            raise SimulationError("jitter must be positive")
        return self.mean_service_time() * jitter

    def set_background_load(self, load: float) -> None:
        if not 0.0 <= load <= 1.0:
            raise SimulationError("background load must be in [0, 1]")
        self.background_load = load


class ThermalThrottle:
    """Sustained-load thermal throttling of a mobile SoC.

    Phones cannot run their CPUs flat-out indefinitely: after sustained
    high utilisation the governor drops the clock.  We track a
    utilisation EWMA with time constant ``tau``; once it exceeds
    ``threshold``, the device slows down linearly, up to
    ``max_slowdown`` at 100% sustained utilisation.  Policies that
    concentrate the whole stream on one or two fast phones (PRS) pay
    this cost; policies that spread load (LRS) largely avoid it.
    """

    def __init__(self, threshold: float = 0.60, max_slowdown: float = 0.50,
                 tau: float = 10.0) -> None:
        if not 0.0 <= threshold < 1.0:
            raise SimulationError("thermal threshold must be in [0, 1)")
        if not 0.0 <= max_slowdown < 1.0:
            raise SimulationError("thermal slowdown must be in [0, 1)")
        if tau <= 0:
            raise SimulationError("thermal time constant must be positive")
        self.threshold = threshold
        self.max_slowdown = max_slowdown
        self.tau = tau
        self._util_ewma = 0.0
        self._last_update = 0.0
        self._busy_since = 0.0

    def record_busy(self, busy_seconds: float) -> None:
        """Account *busy_seconds* of compute since the last update."""
        if busy_seconds < 0:
            raise SimulationError("busy time must be non-negative")
        self._busy_since += busy_seconds

    def update(self, now: float) -> None:
        """Fold the elapsed interval into the utilisation EWMA."""
        dt = now - self._last_update
        if dt <= 0:
            return
        utilization = _clamp01(self._busy_since / dt)
        alpha = 1.0 - math.exp(-dt / self.tau)
        self._util_ewma += alpha * (utilization - self._util_ewma)
        self._busy_since = 0.0
        self._last_update = now

    @property
    def utilization_ewma(self) -> float:
        return self._util_ewma

    def speed_factor(self) -> float:
        """Current thermal speed multiplier in (0, 1]."""
        excess = self._util_ewma - self.threshold
        if excess <= 0:
            return 1.0
        span = 1.0 - self.threshold
        return 1.0 - self.max_slowdown * min(1.0, excess / span)


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))
