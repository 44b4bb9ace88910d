"""Load schedules and the reference checker (no ``repro`` imports).

One generator thread asks a schedule when it may emit the next tuple:

* :class:`ClosedLoop` keeps at most ``window`` tuples in flight and lets
  the next one out when a delivery comes back, so a slower swarm
  receives less load (callers that each wait for a reply);
* :class:`OpenLoop` emits on a fixed timetable whatever the swarm does
  and stamps each tuple with the time it was *due*, so a stall is charged
  to every tuple it delayed (independent sensors).

Both are gated into rounds: nothing is emitted until ``begin_round``.
:func:`check` compares what reached the sink with what was emitted.
"""

from __future__ import annotations

import threading
import time
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence)

Clock = Callable[[], float]


class _Gated:
    """Round gate shared by both schedules."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._cond = threading.Condition()
        self._remaining = 0
        self._stopped = False
        self.emitted = 0

    def stop(self) -> None:
        """Release the generator for good: ``next_emit`` returns None."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


class ClosedLoop(_Gated):
    """At most ``window`` tuples between generator and sink."""

    def __init__(self, window: int, clock: Clock = time.monotonic) -> None:
        super().__init__(clock)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._inflight = 0
        self.max_inflight = 0

    def begin_round(self, count: int) -> None:
        with self._cond:
            self._remaining = count
            self._cond.notify_all()

    def next_emit(self) -> Optional[float]:
        """Block until a tuple may go out; return its stamp (None: stop)."""
        with self._cond:
            while not self._stopped and (self._remaining == 0
                                         or self._inflight >= self.window):
                self._cond.wait()
            if self._stopped:
                return None
            self._remaining -= 1
            self._inflight += 1
            self.emitted += 1
            if self._inflight > self.max_inflight:
                self.max_inflight = self._inflight
        return self._clock()

    def delivered(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()


class OpenLoop(_Gated):
    """Fixed timetable at ``rate`` tuples/s; never waits for the sink."""

    def __init__(self, rate: float, clock: Clock = time.monotonic) -> None:
        super().__init__(clock)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.interval = 1.0 / rate
        self._next_due = 0.0
        #: how far behind its timetable each tuple left, seconds
        self.lates: List[float] = []

    def begin_round(self, count: int, lead: float = 0.01) -> None:
        with self._cond:
            self._remaining = count
            self._next_due = self._clock() + lead
            self.lates = []
            self._cond.notify_all()

    def next_emit(self) -> Optional[float]:
        """Sleep until the next tuple is due; return the *due* time."""
        with self._cond:
            while not self._stopped and self._remaining == 0:
                self._cond.wait()
            while not self._stopped:
                wait = self._next_due - self._clock()
                if wait <= 0:
                    break
                self._cond.wait(wait)
            if self._stopped:
                return None
            due = self._next_due
            self._next_due = due + self.interval
            self._remaining -= 1
            self.emitted += 1
            self.lates.append(self._clock() - due)
        return due

    def delivered(self) -> None:
        """Deliveries do not feed back into an open loop."""


class Emitted(NamedTuple):
    seq: int
    x: int
    stamp: float


class Arrival(NamedTuple):
    seq: int
    at: float
    created_at: float
    y: object
    pad_ok: bool


class RoundCheck(NamedTuple):
    missing: int
    duplicated: int
    wrong: int
    #: seq -> arrival time - stamp, seconds, for every correct delivery
    latencies: Dict[int, float]
    last_arrival: float

    @property
    def failed(self) -> int:
        return self.missing + self.duplicated + self.wrong


def expected_y(x: int) -> int:
    return 3 * x + 1


def check(emitted: Iterable[Emitted],
          arrivals: Iterable[Arrival]) -> RoundCheck:
    """Reference check: every emitted seq arrives once, with
    ``y == 3x + 1``, its stamp and its pad intact (the sink compares the
    pad on arrival and passes the verdict)."""
    want: Dict[int, Emitted] = {e.seq: e for e in emitted}
    seen = set()
    duplicated = wrong = 0
    latencies: Dict[int, float] = {}
    last = 0.0
    for arrival in arrivals:
        sent = want.get(arrival.seq)
        if sent is None:
            wrong += 1  # a seq nobody emitted
            continue
        if arrival.seq in seen:
            duplicated += 1
            continue
        seen.add(arrival.seq)
        if (arrival.y != expected_y(sent.x)
                or arrival.created_at != sent.stamp
                or not arrival.pad_ok):
            wrong += 1
            continue
        latencies[arrival.seq] = arrival.at - sent.stamp
        if arrival.at > last:
            last = arrival.at
    return RoundCheck(len(want) - len(seen), duplicated, wrong,
                      latencies, last)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]
