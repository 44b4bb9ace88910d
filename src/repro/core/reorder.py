"""Reordering Service (paper Sec. IV-C, evaluated in Fig. 8).

Heterogeneity and dynamism make tuples arrive at the sink out of order.
The sink buffers results and plays them back in sequence order.  The
paper sizes the buffer as a *timespan* of the source rate — one second,
i.e. 24 tuples at 24 FPS: "A large buffer ensures better ordering but
delays the display of the results."

The buffer releases a result when either (a) it is the next expected
sequence number, or (b) the buffer is full, in which case the smallest
buffered sequence is released and any gap before it is skipped (those
tuples are late or lost; video playback must go on).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class PlaybackRecord:
    """One released result: when it arrived vs. when it was played back."""

    seq: int
    arrived_at: float
    played_at: float
    skipped_gap: int = 0  # sequence numbers skipped right before this one

    @property
    def buffering_delay(self) -> float:
        return max(0.0, self.played_at - self.arrived_at)


class ReorderBuffer:
    """Fixed-capacity sequence reorderer for sink-side playback."""

    def __init__(self, capacity: int, first_seq: int = 0) -> None:
        if capacity < 1:
            raise ValueError("reorder buffer capacity must be >= 1")
        self.capacity = capacity
        self._heap: List[Tuple[int, float]] = []
        self._buffered = set()
        self._next_seq = first_seq
        self.playback: List[PlaybackRecord] = []
        self.duplicates = 0
        self.stale_drops = 0

    @classmethod
    def for_rate(cls, rate_per_second: float, timespan: float = 1.0,
                 first_seq: int = 0) -> "ReorderBuffer":
        """Size the buffer as *timespan* seconds of the source rate."""
        capacity = max(1, int(round(rate_per_second * timespan)))
        return cls(capacity=capacity, first_seq=first_seq)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def offer(self, seq: int, now: float) -> List[PlaybackRecord]:
        """Insert an arriving result; return any records released now."""
        if seq < self._next_seq:
            # Arrived after its slot was skipped: too late to play.
            self.stale_drops += 1
            return []
        if seq in self._buffered:
            self.duplicates += 1
            return []
        heapq.heappush(self._heap, (seq, now))
        self._buffered.add(seq)
        return self._drain(now)

    def flush(self, now: float) -> List[PlaybackRecord]:
        """Release everything still buffered (end of stream)."""
        released = []
        while self._heap:
            released.append(self._release_min(now))
        return released

    # -- internals -------------------------------------------------------
    def _drain(self, now: float) -> List[PlaybackRecord]:
        released = []
        # In-order head: release immediately.
        while self._heap and self._heap[0][0] == self._next_seq:
            released.append(self._release_min(now))
        # Over capacity: force out the smallest, skipping the gap.
        while len(self._heap) > self.capacity:
            released.append(self._release_min(now))
        return released

    def _release_min(self, now: float) -> PlaybackRecord:
        seq, arrived_at = heapq.heappop(self._heap)
        self._buffered.discard(seq)
        skipped = max(0, seq - self._next_seq)
        self._next_seq = seq + 1
        record = PlaybackRecord(seq=seq, arrived_at=arrived_at,
                                played_at=now, skipped_gap=skipped)
        self.playback.append(record)
        return record

    # -- metrics ---------------------------------------------------------
    def total_skipped(self) -> int:
        return sum(record.skipped_gap for record in self.playback)

    def mean_buffering_delay(self) -> Optional[float]:
        if not self.playback:
            return None
        return sum(r.buffering_delay for r in self.playback) / len(self.playback)

    def is_monotonic(self) -> bool:
        """Playback must always be in strictly increasing sequence order."""
        seqs = [record.seq for record in self.playback]
        return all(a < b for a, b in zip(seqs, seqs[1:]))
