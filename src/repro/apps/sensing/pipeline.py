"""Per-user windowed-aggregation sensing pipeline (keyed operators).

The third Swing application, built to exercise keyed state end to end:
a sensor source emits readings tagged with a ``user-N`` partitioning
key drawn from a seeded Zipf distribution (mobile sensing's classic
skew — a few chatty users dominate the stream), a stateful aggregation
unit folds each user's readings into tumbling-window summaries held in
per-key operator state, and a sink collects the closed windows.

Because every tuple carries a key, the runtime routes this pipeline by
key-range ownership: all of one user's readings reach the same worker,
whose :class:`~repro.core.state.StateStore` holds that user's window —
and a hot-range split migrates both together.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Optional

from repro.core.function_unit import FunctionUnit, SinkUnit, SourceUnit
from repro.core.graph import AppGraph, GraphBuilder
from repro.core.keyed import zipf_weights
from repro.core.state import InMemoryStateStore, StateStore, WindowAggregator
from repro.core.tuples import DataTuple, TupleSchema

READING_SCHEMA = TupleSchema.of("user", "reading")
AGGREGATE_SCHEMA = TupleSchema.of("user", "window_start", "count", "mean",
                                  "minimum", "maximum")


class ZipfKeyStream:
    """Seeded stream of ``user-N`` keys with Zipf(*alpha*) popularity.

    The same draw procedure the simulator's source uses, packaged for
    the threaded runtime: deterministic in (seed), so a run's key
    sequence — and therefore its hot ranges — reproduces exactly.
    """

    def __init__(self, key_count: int, alpha: float = 1.2,
                 seed: int = 0) -> None:
        if key_count < 1:
            raise ValueError("need at least one key")
        self._rng = random.Random(seed)
        self._cum: List[float] = []
        total = 0.0
        for weight in zipf_weights(key_count, alpha):
            total += weight
            self._cum.append(total)

    def draw(self) -> str:
        point = self._rng.random() * self._cum[-1]
        return "user-%d" % min(bisect_left(self._cum, point),
                               len(self._cum) - 1)


class SensorSource(SourceUnit):
    """Emits keyed sensor readings for a Zipf-skewed user population."""

    def __init__(self, reading_count: int = 96, key_count: int = 16,
                 alpha: float = 1.2, seed: int = 0) -> None:
        super().__init__()
        self._keys = ZipfKeyStream(key_count, alpha=alpha, seed=seed)
        self._values = random.Random(seed + 1)
        self._remaining = reading_count
        self._seq = 0

    def generate(self) -> Optional[DataTuple]:
        if self._remaining <= 0:
            return None
        self._remaining -= 1
        user = self._keys.draw()
        data = DataTuple(
            values={"user": user,
                    "reading": self._values.uniform(0.0, 100.0)},
            seq=self._seq, schema=READING_SCHEMA,
            created_at=self.context.now(), key=user)
        self._seq += 1
        return data


class WindowedAggregateUnit(FunctionUnit):
    """Folds each user's readings into tumbling-window aggregates.

    ``stateful = True`` tells the hosting worker to provision a
    per-unit :class:`~repro.core.state.StateStore` and hand it in
    through ``context.state`` — the state a live migration snapshots
    and ships when this unit's key ranges move.
    """

    stateful = True

    def __init__(self, window: float = 1.0) -> None:
        super().__init__()
        self._window = window
        self._aggregator: Optional[WindowAggregator] = None

    def _store(self) -> StateStore:
        state = self.context.state
        if state is None:
            # Driven outside a worker (unit tests, direct calls): keep
            # private state so the unit still functions standalone.
            state = InMemoryStateStore()
            self.context.state = state
        return state

    def process_data(self, data: DataTuple) -> None:
        if self._aggregator is None:
            self._aggregator = WindowAggregator(self._store(),
                                                window=self._window)
        user = data.get_value("user")
        closed = self._aggregator.observe(user, data.get_value("reading"),
                                          self.context.now())
        if closed is not None:
            self.send(data.derive(
                {"user": closed.key, "window_start": closed.window_start,
                 "count": closed.count, "mean": closed.mean,
                 "minimum": closed.minimum, "maximum": closed.maximum},
                schema=AGGREGATE_SCHEMA))


class AggregateSink(SinkUnit):
    """Collects closed windows; accessors for tests and the CLI."""

    def users(self) -> List[str]:
        return sorted({data.get_value("user") for data in self.results})

    def total_readings(self) -> int:
        return sum(data.get_value("count") for data in self.results)


def build_sensing_graph(reading_count: int = 96, key_count: int = 16,
                        alpha: float = 1.2, window: float = 1.0,
                        seed: int = 0) -> AppGraph:
    """The three-unit keyed sensing dataflow graph."""
    return (GraphBuilder("sensing-aggregate")
            .source("sensor",
                    lambda: SensorSource(reading_count=reading_count,
                                         key_count=key_count, alpha=alpha,
                                         seed=seed),
                    output_schema=READING_SCHEMA)
            .unit("aggregate",
                  lambda: WindowedAggregateUnit(window=window),
                  output_schema=AGGREGATE_SCHEMA)
            .sink("collect", AggregateSink)
            .chain("sensor", "aggregate", "collect")
            .build())
