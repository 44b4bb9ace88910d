"""Wireless network model.

Models an 802.11n WLAN like the paper's testbed (Linksys E1200, 2.4 GHz):

* **RSSI -> goodput**: a piecewise-linear curve through anchors shaped by
  802.11n MCS behaviour.  Strong signal (> -50 dBm) sustains ~18 Mbit/s of
  TCP goodput; around -75 dBm rate adaptation has dropped to the lowest
  MCS and retransmissions dominate, leaving a couple hundred kbit/s.
* **Per-transfer stall**: on weak links, TCP retransmission timeouts and
  Wi-Fi rate-adaptation probing add a size-independent stall per frame.
* **Airtime-fair radio**: a device has one radio and its packets
  serialize, but concurrent TCP connections share it roughly fairly in
  *airtime*: congestion control collapses a weak flow's window, so a slow
  connection drains very slowly itself while only consuming its share of
  air.  Latency stays attributable per connection — which is what
  latency-based routing needs — and the way weak links hurt overall
  throughput is through the *sender*: SEEP dispatches from one thread
  with blocking socket writes, so a clogged weak connection head-of-line
  blocks every tuple behind it ("the TCP and Wi-Fi rate adaptation
  protocols require the sender to lower network transmission rates ...
  which directly reduces throughput", paper Sec. VI-B-1).

RSSI regions used throughout the paper: good (> -30 dBm), fair
(-70 to -60 dBm), poor (-80 to -70 dBm).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import SimulationError
from repro.simulation.engine import Event, Simulator

#: MTU-sized chunk a frame is segmented into
PACKET_BYTES = 1500

#: (rssi_dbm, goodput_bit/s, per-frame stall seconds)
RATE_TABLE: Sequence[Tuple[float, float, float]] = (
    (-30.0, 18.0e6, 0.000),
    (-50.0, 15.0e6, 0.000),
    (-60.0, 8.0e6, 0.010),
    (-65.0, 4.0e6, 0.040),
    (-70.0, 1.2e6, 0.100),
    (-75.0, 0.5e6, 0.200),
    (-80.0, 0.25e6, 0.350),
    (-90.0, 0.1e6, 0.700),
)

#: canonical RSSI values for the paper's three signal regions
RSSI_GOOD = -30.0
RSSI_FAIR = -65.0
RSSI_POOR = -75.0

SIGNAL_REGIONS = {"good": RSSI_GOOD, "fair": RSSI_FAIR, "poor": RSSI_POOR,
                  "bad": RSSI_POOR}


def rssi_for_region(region: str) -> float:
    """Map a named signal region (good/fair/poor) to a canonical RSSI."""
    try:
        return SIGNAL_REGIONS[region.lower()]
    except KeyError:
        raise SimulationError("unknown signal region %r (expected one of %r)"
                              % (region, sorted(SIGNAL_REGIONS))) from None


def _interpolate(rssi: float, column: int) -> float:
    table = RATE_TABLE
    if rssi >= table[0][0]:
        return table[0][column]
    if rssi <= table[-1][0]:
        return table[-1][column]
    for (hi_rssi, *hi_vals), (lo_rssi, *lo_vals) in zip(table, table[1:]):
        if lo_rssi <= rssi <= hi_rssi:
            span = hi_rssi - lo_rssi
            frac = (rssi - lo_rssi) / span if span else 0.0
            lo = (lo_rssi, *lo_vals)[column]
            hi = (hi_rssi, *hi_vals)[column]
            return lo + frac * (hi - lo)
    raise SimulationError("unreachable RSSI interpolation for %r" % rssi)


def goodput_for_rssi(rssi: float) -> float:
    """Effective TCP goodput in bit/s at the given RSSI."""
    return _interpolate(rssi, 1)


def stall_for_rssi(rssi: float) -> float:
    """Size-independent per-frame stall in seconds at the given RSSI."""
    return _interpolate(rssi, 2)


@dataclass
class WirelessLink:
    """State of one device's WLAN association (mutable: mobility)."""

    device_id: str
    rssi: float = RSSI_GOOD
    up: bool = True

    def set_rssi(self, rssi: float) -> None:
        self.rssi = rssi

    @property
    def goodput(self) -> float:
        return goodput_for_rssi(self.rssi)

    @property
    def stall(self) -> float:
        return stall_for_rssi(self.rssi)

    def packet_time(self, size_bytes: int = PACKET_BYTES) -> float:
        """Airtime to push one packet of *size_bytes* over this link."""
        return size_bytes * 8.0 / self.goodput

    def nominal_transfer_time(self, size_bytes: int) -> float:
        """Contention-free time to move *size_bytes* (planning helper)."""
        if size_bytes < 0:
            raise SimulationError("negative transfer size")
        return size_bytes * 8.0 / self.goodput + self.stall


class _QueuedFrame:
    """One frame sitting in a connection's send buffer."""

    __slots__ = ("size_bytes", "packets_left", "stall_pending", "delivered")

    def __init__(self, size_bytes: int, delivered: Event) -> None:
        self.size_bytes = size_bytes
        self.packets_left = max(1, math.ceil(size_bytes / PACKET_BYTES))
        self.stall_pending = True
        self.delivered = delivered


class Connection:
    """A TCP connection from a radio's owner to one destination."""

    def __init__(self, radio: "Radio", link: WirelessLink) -> None:
        self.radio = radio
        self.link = link
        self.frames: Deque[_QueuedFrame] = deque()
        self.bytes_sent = 0
        self.frames_sent = 0
        #: high-water mark of buffered frames (bounded-memory checks)
        self.max_backlog = 0
        self.airtime_vt = 0.0  # fair-queueing virtual time

    @property
    def destination_id(self) -> str:
        return self.link.device_id

    def send(self, size_bytes: int) -> Event:
        """Buffer a frame for transmission; the event fires on delivery.

        Like a socket write, this returns immediately — the radio's packet
        scheduler drains the buffer in the background.
        """
        if size_bytes <= 0:
            raise SimulationError("frame size must be positive")
        delivered = self.radio.sim.event("delivery:%s" % self.destination_id)
        frame = _QueuedFrame(size_bytes, delivered)
        was_empty = not self.frames
        self.frames.append(frame)
        self.max_backlog = max(self.max_backlog, len(self.frames))
        if was_empty:
            self.radio._activate(self)
        return delivered

    @property
    def backlog(self) -> int:
        return len(self.frames)


class Radio:
    """One device's radio: airtime-fair packet scheduler over connections.

    Each scheduling step sends one packet of the head frame of the active
    connection with the smallest cumulative airtime (start-time fair
    queueing): concurrent flows share the radio fairly in *airtime*, so a
    weak-signal connection moves few bytes in its share instead of
    dragging every other flow down with it — the net effect of TCP
    congestion control plus 802.11n aggregation.  A frame's first packet
    additionally pays the link's stall.  Cumulative airtime and bytes
    feed the Wi-Fi power model.
    """

    def __init__(self, sim: Simulator, owner_id: str) -> None:
        self.sim = sim
        self.owner_id = owner_id
        self._connections: Dict[str, Connection] = {}
        self._active: List[Connection] = []
        self._wakeup: Optional[Event] = None
        self._vtime = 0.0
        self.busy_time = 0.0
        self.bytes_sent = 0
        sim.process(self._scheduler(), name="radio:%s" % owner_id)

    def connection(self, link: WirelessLink) -> Connection:
        """The (singleton) connection toward *link*'s device."""
        conn = self._connections.get(link.device_id)
        if conn is None:
            conn = Connection(self, link)
            self._connections[link.device_id] = conn
        elif conn.link is not link:
            conn.link = link
        return conn

    def _activate(self, conn: Connection) -> None:
        # A newly busy flow joins at the current virtual time so it cannot
        # claim airtime retroactively accumulated while it was idle.
        conn.airtime_vt = max(conn.airtime_vt, self._vtime)
        self._active.append(conn)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _scheduler(self):
        while True:
            if not self._active:
                self._wakeup = self.sim.event("radio-idle:%s" % self.owner_id)
                yield self._wakeup
                self._wakeup = None
                continue
            conn = min(self._active, key=lambda c: c.airtime_vt)
            if not conn.frames:
                self._active.remove(conn)
                continue
            frame = conn.frames[0]
            packet = min(PACKET_BYTES, frame.size_bytes)
            duration = conn.link.packet_time(packet)
            if frame.stall_pending:
                duration += conn.link.stall
                frame.stall_pending = False
            self._vtime = conn.airtime_vt
            conn.airtime_vt += duration
            self.busy_time += duration
            self.bytes_sent += packet
            conn.bytes_sent += packet
            yield self.sim.timeout(duration)
            frame.packets_left -= 1
            if frame.packets_left <= 0:
                conn.frames.popleft()
                conn.frames_sent += 1
                if not frame.delivered.triggered:
                    frame.delivered.succeed()
            if not conn.frames:
                self._active.remove(conn)

    def airtime_fraction(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Network:
    """Directory of links plus per-device radios for one WLAN."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._links: Dict[str, WirelessLink] = {}
        self._radios: Dict[str, Radio] = {}

    def attach(self, device_id: str, rssi: float = RSSI_GOOD) -> WirelessLink:
        if device_id in self._links:
            raise SimulationError("device %s already attached" % device_id)
        link = WirelessLink(device_id=device_id, rssi=rssi)
        self._links[device_id] = link
        self._radios[device_id] = Radio(self.sim, device_id)
        return link

    def detach(self, device_id: str) -> None:
        self.link(device_id).up = False

    def reattach(self, device_id: str, rssi: Optional[float] = None) -> None:
        link = self.link(device_id)
        link.up = True
        if rssi is not None:
            link.rssi = rssi

    def link(self, device_id: str) -> WirelessLink:
        try:
            return self._links[device_id]
        except KeyError:
            raise SimulationError("device %s not attached" % device_id) from None

    def radio(self, device_id: str) -> Radio:
        try:
            return self._radios[device_id]
        except KeyError:
            raise SimulationError("device %s not attached" % device_id) from None

    def device_ids(self) -> List[str]:
        return sorted(self._links)
