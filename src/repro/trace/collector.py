"""Span collection: deterministic sampling + a lock-cheap ring buffer.

Two pieces:

:class:`TraceCollector`
    A fixed-capacity ring buffer of spans.  Writers take a slot index
    under a lock held only for one integer bump; the slot assignment
    itself happens outside the lock (list-item stores are atomic in
    CPython), so concurrent emitters never serialize on span storage.
    Below capacity no span is ever lost or torn; above capacity the
    oldest spans are evicted.

:class:`Tracer`
    The ``TraceSink`` port the substrates talk to.  Sampling is
    *deterministic per tuple*: whether seq N is traced is a pure
    function of ``(seed, seq)``, so a seeded simulation run reproduces
    its trace exactly, and every hop of a pipeline makes the same
    decision for the same tuple without coordination.  Span-duration
    histograms are recorded for **every** span handed to
    :meth:`Tracer.emit`, sampled or not, so decomposition percentiles
    survive even at ``sample_rate=0``.

:data:`NULL_TRACER`
    The disabled sink: every call is a no-op, and emit sites guard on
    ``tracer.enabled`` so a run without tracing pays only one attribute
    load per potential span.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Protocol, runtime_checkable

from repro import metrics as metrics_mod
from repro.trace.spans import Span


@runtime_checkable
class TraceSink(Protocol):
    """The trace port every component's ``trace`` parameter accepts.

    :class:`Tracer` and the disabled :data:`NULL_TRACER` both satisfy
    it; typing the port (instead of ``Optional[object]``) lets static
    checkers catch miswired observability plumbing.  Emit sites guard on
    :attr:`enabled` so a disabled sink costs one attribute load.
    """

    enabled: bool

    def sampled(self, seq: int) -> bool:
        """Deterministic per-tuple sampling decision for *seq*."""
        ...

    def emit(self, span: Span, sampled: Optional[bool] = None) -> bool:
        """Offer one span; returns True when it was stored."""
        ...

    def spans(self) -> List[Span]:
        """Snapshot of retained spans, oldest first."""
        ...


_MASK64 = (1 << 64) - 1
_SAMPLE_SPACE = 1 << 32

#: default ring capacity: ~1 minute of a 24 fps stream fully traced
#: (5 spans/tuple) with headroom
DEFAULT_CAPACITY = 1 << 16


def sample_key(seq: int, seed: int) -> int:
    """A uniform 32-bit key for (seed, seq) — one Weyl multiply.

    The high 32 bits of ``seq * odd + seed-term mod 2**64`` are
    equidistributed over sequential seqs (a Weyl sequence on the golden
    ratio), which is exactly the population tracing samples from.  Kept
    to a single multiply-add so the per-tuple decision stays in the
    noise of the dispatch hot path; pure in (seed, seq), so the same
    tuple is sampled (or not) on every hop, in every replay, on both
    substrates.
    """
    return ((seq * 0x9E3779B97F4A7C15
             + (seed + 1) * 0xBF58476D1CE4E5B9) & _MASK64) >> 32


class TraceCollector:
    """Fixed-capacity ring buffer of spans with cheap concurrent writes."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            # not at module load: ``repro.core`` imports this package
            from repro.core.exceptions import SimulationError
            raise SimulationError("trace ring capacity must be >= 1")
        self.capacity = capacity
        self._slots: List[Optional[Span]] = [None] * capacity
        self._next = 0
        self._lock = threading.Lock()

    def record(self, span: Span) -> None:
        """Store one span; evicts the oldest once the ring is full."""
        with self._lock:
            index = self._next
            self._next = index + 1
        # Outside the lock: distinct indices map to distinct slots until
        # the ring wraps, so concurrent writers never interleave within
        # one slot — a stored span is always intact.
        self._slots[index % self.capacity] = span

    @property
    def recorded(self) -> int:
        """Total spans ever recorded (including evicted ones)."""
        with self._lock:
            return self._next

    def __len__(self) -> int:
        with self._lock:
            return min(self._next, self.capacity)

    def spans(self) -> List[Span]:
        """Snapshot of retained spans, oldest first."""
        with self._lock:
            count = self._next
        if count <= self.capacity:
            window = self._slots[:count]
        else:
            pivot = count % self.capacity
            window = self._slots[pivot:] + self._slots[:pivot]
        # A slot can still be None if a writer took an index but has not
        # stored yet; snapshots simply skip the in-flight slot.
        return [span for span in window if span is not None]

    def clear(self) -> None:
        with self._lock:
            self._slots = [None] * self.capacity
            self._next = 0


class Tracer:
    """The TraceSink port: deterministic sampling over a collector.

    ``sample_rate`` is the fraction of tuples traced (0.0 keeps only
    histograms, 1.0 traces everything).  ``registry`` receives the
    ``swing_span_duration_seconds{kind=...}`` histogram for every
    emitted span regardless of sampling.
    """

    enabled = True

    def __init__(self, collector: Optional[TraceCollector] = None,
                 sample_rate: float = 1.0, seed: int = 0,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            from repro.core.exceptions import SimulationError
            raise SimulationError("sample_rate must be in [0, 1]")
        self.collector = (collector if collector is not None
                          else TraceCollector())
        self.sample_rate = sample_rate
        self.seed = seed
        self._threshold = int(round(sample_rate * _SAMPLE_SPACE))
        self._seed_term = (seed + 1) * 0xBF58476D1CE4E5B9
        self._registry = registry
        #: per-kind histogram cache — emit() is per-span, and the
        #: registry's get-or-create (kwargs + label sort + lock) is not
        self._histograms = {}
        # Bind the cheapest decision function for this rate up front:
        # sampled() sits on the per-tuple dispatch path, so the edge
        # rates skip the arithmetic entirely and the mid rates compare
        # in 64-bit space (same decision as sample_key, one shift less).
        if self._threshold <= 0:
            self.sampled = self._never_sampled
        elif self._threshold >= _SAMPLE_SPACE:
            self.sampled = self._always_sampled
        self._threshold64 = self._threshold << 32

    def sampled(self, seq: int, _mask=_MASK64,
                _mul=0x9E3779B97F4A7C15) -> bool:
        """Whether tuple *seq* is traced — deterministic in (seed, seq)."""
        return (seq * _mul + self._seed_term) & _mask < self._threshold64

    def _never_sampled(self, seq: int) -> bool:
        return False

    def _always_sampled(self, seq: int) -> bool:
        return True

    def emit(self, span: Span, sampled: Optional[bool] = None) -> bool:
        """Offer one span; returns True when it was stored.

        *sampled* overrides the deterministic decision — receivers pass
        the tuple's wire-carried :class:`~repro.trace.spans.SpanContext`
        flag so mid-pipeline hops follow the source's decision verbatim.
        The duration histogram is recorded either way.
        """
        if self._registry is not None:
            histogram = self._histograms.get(span.kind)
            if histogram is None:
                histogram = self._registry.histogram(
                    metrics_mod.SPAN_SECONDS, kind=span.kind)
                self._histograms[span.kind] = histogram
            histogram.observe(span.duration)
        keep = self.sampled(span.seq) if sampled is None else sampled
        if keep:
            self.collector.record(span)
        return keep

    def spans(self) -> List[Span]:
        return self.collector.spans()


class _NullTracer:
    """Tracing disabled: every call no-ops; ``enabled`` gates emit sites."""

    enabled = False
    sample_rate = 0.0

    def sampled(self, seq: int) -> bool:
        return False

    def emit(self, span: Span, sampled: Optional[bool] = None) -> bool:
        return False

    def spans(self) -> List[Span]:
        return []


#: shared disabled sink — the default for every component's trace port
NULL_TRACER = _NullTracer()
