"""Measurement collection for swarm experiments.

Records the life of every frame (dispatch, transmission, queuing,
processing, sink arrival, playback) plus per-device counters, and computes
the aggregates the paper reports: throughput, latency statistics with
decomposition (Fig. 2), per-device CPU utilisation and input rates
(Fig. 5), per-second throughput time series (Figs. 9/10) and arrival
orderings (Fig. 8).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import metrics as metrics_mod

DROP_SOURCE_QUEUE = "source_queue_full"
DROP_CONN_OVERFLOW = "connection_overflow"
DROP_DEVICE_LEFT = "device_left"
DROP_LINK_DOWN = "link_down"
DROP_STALE = "stale_at_sink"
#: overload protection: past-deadline tuples shed mid-pipeline
DROP_EXPIRED = "expired"
#: overload protection: tuples refused by source admission control
DROP_BACKPRESSURE = "backpressure"
#: overload protection: tuples shed by a bounded queue's drop policy
DROP_QUEUE_FULL = "queue_full"


@dataclass
class FrameRecord:
    """Timestamped life of one frame through the swarm."""

    seq: int
    created_at: float
    device_id: str = ""
    #: owning tenant pipeline ("" = the single-tenant namespace)
    tenant: str = ""
    dispatched_at: Optional[float] = None
    tx_started_at: Optional[float] = None
    tx_finished_at: Optional[float] = None
    proc_started_at: Optional[float] = None
    proc_finished_at: Optional[float] = None
    sink_arrived_at: Optional[float] = None
    played_at: Optional[float] = None
    dropped: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.sink_arrived_at is not None and self.dropped is None

    @property
    def source_queue_delay(self) -> Optional[float]:
        if self.tx_started_at is None:
            return None
        return max(0.0, self.tx_started_at - self.created_at)

    @property
    def transmission_delay(self) -> Optional[float]:
        if self.tx_finished_at is None or self.tx_started_at is None:
            return None
        return max(0.0, self.tx_finished_at - self.tx_started_at)

    @property
    def queuing_delay(self) -> Optional[float]:
        if self.proc_started_at is None or self.tx_finished_at is None:
            return None
        return max(0.0, self.proc_started_at - self.tx_finished_at)

    @property
    def processing_delay(self) -> Optional[float]:
        if self.proc_finished_at is None or self.proc_started_at is None:
            return None
        return max(0.0, self.proc_finished_at - self.proc_started_at)

    @property
    def total_delay(self) -> Optional[float]:
        if self.sink_arrived_at is None:
            return None
        return max(0.0, self.sink_arrived_at - self.created_at)


@dataclass
class LatencyStats:
    """The per-frame latency summary shown in Fig. 4."""

    count: int
    mean: float
    minimum: float
    maximum: float
    variance: float

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> Optional["LatencyStats"]:
        if not samples:
            return None
        count = len(samples)
        mean = sum(samples) / count
        variance = sum((value - mean) ** 2 for value in samples) / count
        return cls(count=count, mean=mean, minimum=min(samples),
                   maximum=max(samples), variance=variance)


@dataclass
class DeviceCounters:
    """Per-device activity tallies."""

    device_id: str
    frames_received: int = 0
    frames_completed: int = 0
    bytes_received: int = 0
    busy_time: float = 0.0
    participating_time: float = 0.0


class MetricsCollector:
    """Accumulates frame records and per-device counters during a run."""

    def __init__(self,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        self.frames: Dict[int, FrameRecord] = {}
        self.devices: Dict[str, DeviceCounters] = {}
        self.generated = 0
        self.dropped: Dict[str, int] = defaultdict(int)
        self.registry = (registry if registry is not None
                         else metrics_mod.MetricsRegistry())

    # -- recording -------------------------------------------------------
    def frame(self, seq: int, created_at: float,
              tenant: str = "") -> FrameRecord:
        record = self.frames.get(seq)
        if record is None:
            record = FrameRecord(seq=seq, created_at=created_at,
                                 tenant=tenant)
            self.frames[seq] = record
            self.generated += 1
        return record

    def device(self, device_id: str) -> DeviceCounters:
        counters = self.devices.get(device_id)
        if counters is None:
            counters = DeviceCounters(device_id=device_id)
            self.devices[device_id] = counters
        return counters

    def drop(self, seq: int, reason: str) -> None:
        record = self.frames.get(seq)
        if record is not None and record.dropped is None:
            record.dropped = reason
        self.dropped[reason] += 1
        self.registry.increment(metrics_mod.DROPPED_TOTAL, reason=reason)

    # -- aggregates ------------------------------------------------------
    def completed_frames(self) -> List[FrameRecord]:
        return sorted((record for record in self.frames.values() if record.completed),
                      key=lambda record: record.seq)

    def throughput(self, duration: float) -> float:
        """Completed frames per second over the run (Fig. 4, left)."""
        if duration <= 0:
            return 0.0
        return len(self.completed_frames()) / duration

    def latency_stats(self, after: float = 0.0) -> Optional[LatencyStats]:
        """Per-frame latency summary (Fig. 4).

        ``after`` discards frames created during the first seconds of the
        run, for steady-state reporting without the start-up transient.
        """
        samples = [record.total_delay for record in self.completed_frames()
                   if record.created_at >= after]
        return LatencyStats.from_samples([value for value in samples
                                          if value is not None])

    def delay_decomposition(self) -> Dict[str, float]:
        """Mean transmission / queuing / processing split (Fig. 2).

        Transmission here includes time spent waiting for the sender's
        radio, matching what the paper's sender-side timestamping sees.
        """
        completed = self.completed_frames()
        if not completed:
            return {"transmission": 0.0, "queuing": 0.0, "processing": 0.0}

        def _mean(values: List[Optional[float]]) -> float:
            known = [value for value in values if value is not None]
            return sum(known) / len(known) if known else 0.0

        transmission = _mean([
            (record.transmission_delay or 0.0) + (record.source_queue_delay or 0.0)
            for record in completed])
        return {
            "transmission": transmission,
            "queuing": _mean([record.queuing_delay for record in completed]),
            "processing": _mean([record.processing_delay for record in completed]),
        }

    def per_device_input_rate(self, duration: float) -> Dict[str, float]:
        """Frames per second each device received (Fig. 5, right)."""
        if duration <= 0:
            return {device_id: 0.0 for device_id in self.devices}
        return {device_id: counters.frames_received / duration
                for device_id, counters in self.devices.items()}

    def per_device_cpu_utilization(self, duration: float,
                                   overheads: Optional[Dict[str, float]] = None
                                   ) -> Dict[str, float]:
        """Busy fraction per device, plus framework overhead (Fig. 5, left)."""
        utilization = {}
        for device_id, counters in self.devices.items():
            if duration <= 0:
                utilization[device_id] = 0.0
                continue
            busy = counters.busy_time / duration
            overhead = 0.0
            if overheads and device_id in overheads:
                overhead = overheads[device_id] * (counters.participating_time
                                                   or duration) / duration
            utilization[device_id] = min(1.0, busy + overhead)
        return utilization

    def per_device_bytes(self) -> Dict[str, int]:
        return {device_id: counters.bytes_received
                for device_id, counters in self.devices.items()}

    def throughput_series(self, duration: float, bin_width: float = 1.0
                          ) -> List[float]:
        """Completions per second in consecutive bins (Figs. 9 and 10)."""
        bins = max(1, int(math.ceil(duration / bin_width)))
        series = [0.0] * bins
        for record in self.completed_frames():
            when = record.sink_arrived_at
            index = min(bins - 1, int(when / bin_width))
            series[index] += 1
        return [count / bin_width for count in series]

    def per_device_throughput_series(self, duration: float,
                                     bin_width: float = 1.0
                                     ) -> Dict[str, List[float]]:
        """Per-device completions per second per bin (Fig. 10, bottom)."""
        bins = max(1, int(math.ceil(duration / bin_width)))
        series: Dict[str, List[float]] = {device_id: [0.0] * bins
                                          for device_id in self.devices}
        for record in self.completed_frames():
            if not record.device_id or record.device_id not in series:
                continue
            index = min(bins - 1, int(record.sink_arrived_at / bin_width))
            series[record.device_id][index] += 1
        return {device_id: [count / bin_width for count in values]
                for device_id, values in series.items()}

    def arrival_order(self) -> List[FrameRecord]:
        """Completed frames by sink-arrival time — Fig. 8's gray dots."""
        return sorted(self.completed_frames(),
                      key=lambda record: record.sink_arrived_at)

    def loss_count(self) -> int:
        return sum(self.dropped.values())

    # -- export ------------------------------------------------------------
    _CSV_FIELDS = ("seq", "device_id", "created_at", "dispatched_at",
                   "tx_started_at", "tx_finished_at", "proc_started_at",
                   "proc_finished_at", "sink_arrived_at", "played_at",
                   "dropped")

    def to_csv(self) -> str:
        """Per-frame trace as CSV text (external analysis / plotting)."""
        lines = [",".join(self._CSV_FIELDS)]
        for seq in sorted(self.frames):
            record = self.frames[seq]
            cells = []
            for name in self._CSV_FIELDS:
                value = getattr(record, name)
                if value is None:
                    cells.append("")
                elif isinstance(value, float):
                    cells.append("%.6f" % value)
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        """Write :meth:`to_csv` output to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_csv())
