"""Lightweight counter registry for runtime observability.

The failure-detection subsystem (ACK expiry accounting, heartbeat
sweeps) emits monotonic counters describing the data plane: tuples
sent, acked, lost, rerouted, downstreams marked dead or resurrected.
A :class:`MetricsRegistry` collects them with optional labels
(Prometheus-style ``name{key=value}`` identity), so the CLI and the
simulation harness can print one coherent accounting table after a
run.

Every runtime, controller and simulation is handed a registry (or
builds a private one), so repeated experiments never bleed counts into
each other.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: canonical counter names emitted by the runtime / simulation
SENT_TOTAL = "swing_tuples_sent_total"
ACKED_TOTAL = "swing_tuples_acked_total"
LOST_TOTAL = "swing_tuples_lost_total"
REROUTED_TOTAL = "swing_tuples_rerouted_total"
#: overload protection: tuples shed with reason=expired|queue_full|backpressure
SHED_TOTAL = "swing_tuples_shed_total"
#: at-least-once delivery: redeliveries of un-ACKed tuples after churn
REDELIVERED_TOTAL = "swing_tuples_redelivered_total"
#: at-least-once delivery: duplicates suppressed by a dedup window
DEDUPED_TOTAL = "swing_tuples_deduped_total"
#: replay retention given up, reason=capacity|bytes|attempts|expired|shed
REPLAY_EVICTED_TOTAL = "swing_replay_evicted_total"
MARKED_DEAD_TOTAL = "swing_downstream_marked_dead_total"
RESURRECTED_TOTAL = "swing_downstream_resurrected_total"
DROPPED_TOTAL = "swing_frames_dropped_total"
HEARTBEAT_MISS_TOTAL = "swing_heartbeat_miss_total"
POLICY_UPDATES_TOTAL = "swing_policy_updates_total"
PROBE_WINDOWS_TOTAL = "swing_probe_windows_total"
#: epoch fencing: stale-epoch control messages rejected by a device
FENCED_TOTAL = "swing_fenced_messages_total"
#: control-plane crash recovery: successful master restore-from-checkpoint
MASTER_RECOVERIES_TOTAL = "swing_master_recoveries_total"
#: keyed routing: key-range ownership changes, reason=hot_split|drain|crash
KEY_RANGE_MOVES_TOTAL = "swing_key_range_moves_total"
#: keyed routing: hot ranges flagged by the split detector
HOT_KEYS_DETECTED_TOTAL = "swing_hot_keys_detected_total"
#: graceful drains that departed at their timeout with work still undone
DRAIN_TIMEOUTS_TOTAL = "swing_drain_timeouts_total"

#: gauge: current depth of one named queue (mailbox / sim store)
QUEUE_DEPTH = "swing_queue_depth"
#: gauge: seconds since the control-plane checkpoint was last written
CHECKPOINT_AGE_SECONDS = "swing_checkpoint_age_seconds"

#: histogram: upstream-observed ACK round trip per downstream, seconds
ACK_RTT_SECONDS = "swing_ack_rtt_seconds"
#: histogram: per-hop span durations by kind (queue_wait/transmit/...)
SPAN_SECONDS = "swing_span_duration_seconds"
#: histogram: graceful-drain duration per departing device, seconds
DRAIN_SECONDS = "swing_drain_duration_seconds"
#: histogram: tuples per flushed batch on one upstream edge
BATCH_SIZE = "swing_batch_size"
#: histogram: pause-to-resume duration of one key-range state migration
STATE_MIGRATION_SECONDS = "swing_state_migration_seconds"

#: default latency buckets, seconds (1 ms .. 10 s, roughly log-spaced)
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: bucket bounds for the batch-size histogram (tuples per flush, powers
#: of two up to the practical batch ceiling)
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                      256.0, 512.0, 1024.0)


def tenant_labels(tenant: str, **labels: str) -> Dict[str, str]:
    """*labels* plus ``tenant=`` — except for the default tenant ``""``,
    which carries no label, so a single-pipeline run's series keep the
    identity they had before multi-tenancy."""
    if tenant:
        labels["tenant"] = tenant
    return labels


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """One monotonically increasing counter with a fixed label set."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up (amount=%r)" % amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def identity(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join("%s=%s" % (k, v)
                         for k, v in sorted(self.labels.items()))
        return "%s{%s}" % (self.name, inner)


class Gauge:
    """One instantaneous value (queue depth); unlike counters it may fall."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: int) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        return self._value

    def identity(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join("%s=%s" % (k, v)
                         for k, v in sorted(self.labels.items()))
        return "%s{%s}" % (self.name, inner)


class Histogram:
    """Fixed-bucket distribution of non-negative observations.

    Cumulative bucket counts (Prometheus-style ``le`` semantics) plus a
    running sum/count, so percentile *estimates* survive even when span
    tracing is sampled out: quantiles are linearly interpolated inside
    the winning bucket, which is as much resolution as fixed buckets
    can honestly claim.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: Mapping[str, str],
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending and "
                             "non-empty: %r" % (buckets,))
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(float(bound) for bound in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = max(0.0, float(value))
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0..1), interpolated within its bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        with self._lock:
            counts = list(self._counts)
            count = self._count
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0.0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (self.buckets[index] if index < len(self.buckets)
                         else self.buckets[-1])
                fraction = (rank - seen) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
            seen += bucket_count
        return self.buckets[-1]

    def bucket_counts(self) -> Dict[str, int]:
        """Per-bucket counts keyed by upper bound (``"+Inf"`` overflow)."""
        with self._lock:
            counts = list(self._counts)
        view = {("%g" % bound): counts[index]
                for index, bound in enumerate(self.buckets)}
        view["+Inf"] = counts[-1]
        return view

    def identity(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join("%s=%s" % (k, v)
                         for k, v in sorted(self.labels.items()))
        return "%s{%s}" % (self.name, inner)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the ``--metrics-json`` artifact format)."""
        return {"count": self.count, "sum": self.total, "mean": self.mean,
                "p50": self.quantile(0.5), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99), "buckets": self.bucket_counts()}


class MetricsRegistry:
    """Thread-safe get-or-create store of named, labelled counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Counter] = {}
        self._gauges: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Gauge] = {}
        self._histograms: Dict[Tuple[str, Tuple[Tuple[str, str], ...]],
                               Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = Counter(name, labels)
                self._counters[key] = counter
            return counter

    def increment(self, name: str, amount: int = 1, **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def value(self, name: str, **labels: str) -> int:
        key = (name, _label_key(labels))
        with self._lock:
            counter = self._counters.get(key)
        return counter.value if counter is not None else 0

    # -- gauges ----------------------------------------------------------
    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = Gauge(name, labels)
                self._gauges[key] = gauge
            return gauge

    def set_gauge(self, name: str, value: int, **labels: str) -> None:
        self.gauge(name, **labels).set(value)

    def gauge_value(self, name: str, **labels: str) -> int:
        key = (name, _label_key(labels))
        with self._lock:
            gauge = self._gauges.get(key)
        return gauge.value if gauge is not None else 0

    def gauges(self) -> List[Gauge]:
        with self._lock:
            return sorted(self._gauges.values(), key=lambda g: g.identity())

    # -- histograms ------------------------------------------------------
    def histogram(self, name: str,
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
                  **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(name, labels, buckets=buckets)
                self._histograms[key] = histogram
            return histogram

    def observe_histogram(self, name: str, value: float,
                          **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    def histograms(self) -> List[Histogram]:
        with self._lock:
            return sorted(self._histograms.values(),
                          key=lambda h: h.identity())

    def counters(self) -> List[Counter]:
        with self._lock:
            return sorted(self._counters.values(),
                          key=lambda c: c.identity())

    def snapshot(self) -> Dict[str, int]:
        """Flat ``identity -> value`` view of every counter and gauge."""
        view = {counter.identity(): counter.value
                for counter in self.counters()}
        view.update((gauge.identity(), gauge.value)
                    for gauge in self.gauges())
        return view

    def values_by_label(self, name: str, label: str) -> Dict[str, int]:
        """Per-label-value totals for one counter family.

        ``values_by_label(LOST_TOTAL, "downstream")`` returns the lost
        count keyed by downstream id — the view the fault-injection
        acceptance check reads.
        """
        totals: Dict[str, int] = {}
        for counter in self.counters():
            if counter.name == name and label in counter.labels:
                key = counter.labels[label]
                totals[key] = totals.get(key, 0) + counter.value
        return totals

    def render(self, only: Optional[Iterable[str]] = None) -> str:
        """Printable dump, one ``identity value`` line per metric."""
        wanted = set(only) if only is not None else None
        lines = []
        for metric in list(self.counters()) + list(self.gauges()):
            if wanted is not None and metric.name not in wanted:
                continue
            lines.append("%s %d" % (metric.identity(), metric.value))
        for histogram in self.histograms():
            if wanted is not None and histogram.name not in wanted:
                continue
            lines.append("%s count=%d mean=%.6f p95=%.6f"
                         % (histogram.identity(), histogram.count,
                            histogram.mean, histogram.quantile(0.95)))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump of every metric (the ``--metrics-json`` body)."""
        return {
            "counters": {counter.identity(): counter.value
                         for counter in self.counters()},
            "gauges": {gauge.identity(): gauge.value
                       for gauge in self.gauges()},
            "histograms": {histogram.identity(): histogram.to_dict()
                           for histogram in self.histograms()},
        }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
