"""Tuple batching: the shared flush policy of the batched data plane.

Per-tuple dispatch pays one routing decision, one framed message, and
one ACK round trip per tuple — ~18 µs on the microbenchmark, nowhere
near what the hardware allows.  SEEP's transport (and the paper's
serialization service, Sec. IV-C) amortize that cost by framing many
tuples together; :class:`BatchConfig` is the substrate-neutral
description of *when* to close a batch, consumed identically by the
runtime's :class:`~repro.runtime.dispatcher.UpstreamDispatcher` and the
simulator's dispatch process, so batching decisions replay the same on
both substrates.

A batch flushes when either bound is hit:

* ``max_tuples`` — the batch is full (size bound), or
* ``max_delay`` — the oldest buffered tuple has waited long enough
  (latency bound; keeps tail latency bounded at low input rates).

``max_tuples=1`` (the default) disables batching entirely: every tuple
flushes immediately through the legacy single-tuple wire format, which
stays byte-identical so mixed configurations interoperate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.exceptions import SwingError


@dataclass(frozen=True)
class BatchConfig:
    """Flush policy for one upstream edge's tuple batches."""

    #: close the batch once this many tuples are buffered (1 = batching off)
    max_tuples: int = 1
    #: close a partial batch once its oldest tuple has waited this long,
    #: seconds; the hosting substrate checks this at each dispatch call
    #: and wakes for it (:meth:`BatchBuffer.due_in`), so it is a lower
    #: bound on the wait, off only by scheduling latency
    max_delay: float = 0.01

    def __post_init__(self) -> None:
        if self.max_tuples < 1:
            raise SwingError("batch max_tuples must be >= 1")
        if self.max_delay < 0:
            raise SwingError("batch max_delay must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.max_tuples > 1


class BatchBuffer:
    """Accumulates pending items until the flush policy closes the batch.

    Not thread-safe: the hosting adapter brings its own lock (the
    runtime's dispatcher) or is single-threaded (the engine).
    """

    __slots__ = ("config", "_items", "_opened_at")

    def __init__(self, config: BatchConfig) -> None:
        self.config = config
        self._items: List[Any] = []
        self._opened_at: Optional[float] = None

    def __len__(self) -> int:
        return len(self._items)

    def append(self, item: Any, now: float) -> bool:
        """Buffer one item; True when the batch is now full (size bound)."""
        if not self._items:
            self._opened_at = now
        self._items.append(item)
        return len(self._items) >= self.config.max_tuples

    def due(self, now: float) -> bool:
        """True when the oldest buffered item has waited past max_delay."""
        return (bool(self._items) and self._opened_at is not None
                and now - self._opened_at >= self.config.max_delay)

    def due_in(self, now: float) -> Optional[float]:
        """Seconds until :meth:`due` turns true (<= 0: already due);
        None when nothing is buffered."""
        if not self._items or self._opened_at is None:
            return None
        return self._opened_at + self.config.max_delay - now

    def take(self) -> Tuple[Any, ...]:
        """Drain and return everything buffered (empty tuple when idle)."""
        items = tuple(self._items)
        self._items.clear()
        self._opened_at = None
        return items
