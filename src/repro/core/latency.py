"""Latency estimation (paper Sec. V-B).

The upstream attaches a timestamp to each tuple; the downstream ACKs with
the original timestamp after processing.  The upstream computes a latency
sample ``now - timestamp`` covering transmission + queuing + processing
(ACK return time is negligible) and folds it into a moving average per
downstream.  Downstreams also piggyback their measured processing delay on
the ACK, which is what processing-delay-based policies (PR/PRS) consume.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional

from repro import metrics as metrics_mod
from repro.core.exceptions import PolicyError


class MovingAverageEstimator:
    """Fixed-window moving average over the most recent samples.

    The running total is maintained incrementally (O(1) per sample),
    which accumulates floating-point subtraction error over long runs;
    every ``window`` evictions the total is recomputed exactly from the
    live deque (amortized O(1)), bounding the drift to one window's
    worth of rounding.
    """

    def __init__(self, window: int = 20) -> None:
        if window < 1:
            raise PolicyError("moving-average window must be >= 1")
        self._window = window
        self._samples: Deque[float] = deque(maxlen=window)
        self._total = 0.0
        self._evictions = 0

    def observe(self, sample: float) -> None:
        if sample < 0:
            raise PolicyError("latency samples must be non-negative")
        if len(self._samples) == self._samples.maxlen:
            self._total -= self._samples[0]
            self._evictions += 1
        self._samples.append(sample)
        self._total += sample
        if self._evictions >= self._window:
            self._evictions = 0
            self._total = math.fsum(self._samples)

    @property
    def value(self) -> Optional[float]:
        if not self._samples:
            return None
        return self._total / len(self._samples)

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def reset(self) -> None:
        self._samples.clear()
        self._total = 0.0
        self._evictions = 0


class EwmaEstimator:
    """Exponentially weighted moving average: ``v = (1-a)*v + a*sample``."""

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise PolicyError("EWMA alpha must be in (0, 1]")
        self._alpha = alpha
        self._value: Optional[float] = None
        self._count = 0

    def observe(self, sample: float) -> None:
        if sample < 0:
            raise PolicyError("latency samples must be non-negative")
        if self._value is None:
            self._value = sample
        else:
            self._value = (1.0 - self._alpha) * self._value + self._alpha * sample
        self._count += 1

    @property
    def value(self) -> Optional[float]:
        return self._value

    @property
    def sample_count(self) -> int:
        return self._count

    def reset(self) -> None:
        self._value = None
        self._count = 0


def make_estimator(kind: str = "moving-average", **kwargs):
    """Estimator factory: ``"moving-average"`` (paper default) or ``"ewma"``."""
    if kind == "moving-average":
        return MovingAverageEstimator(**kwargs)
    if kind == "ewma":
        return EwmaEstimator(**kwargs)
    raise PolicyError("unknown estimator kind %r" % kind)


@dataclass
class DownstreamStats:
    """Per-downstream observations consumed by routing policies."""

    downstream_id: str
    latency: Optional[float] = None          # end-to-end L_i, seconds
    processing_delay: Optional[float] = None  # W_i, seconds
    alive: bool = True
    acked_count: int = 0
    sent_count: int = 0
    lost_count: int = 0

    @property
    def service_rate(self) -> Optional[float]:
        """mu_i = 1 / L_i (tuples per second); None until first sample."""
        if self.latency is None or self.latency <= 0.0:
            return None
        return 1.0 / self.latency

    @property
    def loss_rate(self) -> float:
        """Fraction of resolved sends (acked or expired) that were lost.

        In-flight tuples are excluded — they are not yet evidence either
        way — so the signal converges quickly after a device departs
        instead of being diluted by a large pending window.
        """
        resolved = self.acked_count + self.lost_count
        if resolved == 0:
            return 0.0
        return self.lost_count / resolved


@dataclass
class _PendingSend:
    seq: int
    downstream_id: str
    sent_at: float


class AckTracker:
    """Tracks in-flight tuples per downstream and maintains estimators.

    One tracker lives at each upstream function unit.  ``record_send`` /
    ``record_ack`` implement the timestamp-echo protocol of Sec. V-B;
    ``stats`` produces the :class:`DownstreamStats` snapshot policies run
    on.

    Stale in-flight entries older than ``timeout`` are *lost tuples*
    (e.g. a device that left mid-stream): each expiry is attributed to
    its downstream's ``lost_count``, and a downstream that accumulates
    ``dead_after`` consecutive expiry rounds with zero intervening ACKs
    is marked dead so the policy layer stops routing regular traffic to
    it.  A later ACK (round-robin probing keeps touching dead members)
    resurrects the downstream.
    """

    def __init__(self, estimator_kind: str = "moving-average",
                 timeout: float = 10.0, dead_after: int = 3,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 **estimator_kwargs) -> None:
        if dead_after < 1:
            raise PolicyError("dead_after must be >= 1")
        self._estimator_kind = estimator_kind
        self._estimator_kwargs = dict(estimator_kwargs)
        self._timeout = timeout
        self._dead_after = dead_after
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        #: per-downstream handles of the two per-message counters
        self._sent_total = metrics_mod.Handles(
            self._registry.counter, metrics_mod.SENT_TOTAL, "downstream")
        self._acked_total = metrics_mod.Handles(
            self._registry.counter, metrics_mod.ACKED_TOTAL, "downstream")
        self._latency: Dict[str, object] = {}
        self._processing: Dict[str, object] = {}
        self._pending: Dict[int, _PendingSend] = {}
        self._sent: Dict[str, int] = {}
        self._acked: Dict[str, int] = {}
        self._lost: Dict[str, int] = {}
        self._alive: Dict[str, bool] = {}
        #: expiry rounds (with >= 1 loss) since the last ACK, per downstream
        self._expiry_streak: Dict[str, int] = {}

    # -- membership ------------------------------------------------------
    def add_downstream(self, downstream_id: str) -> None:
        if downstream_id in self._latency:
            return
        self._latency[downstream_id] = make_estimator(
            self._estimator_kind, **self._estimator_kwargs)
        self._processing[downstream_id] = make_estimator(
            self._estimator_kind, **self._estimator_kwargs)
        self._sent[downstream_id] = 0
        self._acked[downstream_id] = 0
        self._lost[downstream_id] = 0
        self._alive[downstream_id] = True
        self._expiry_streak[downstream_id] = 0

    def remove_downstream(self, downstream_id: str) -> None:
        self._latency.pop(downstream_id, None)
        self._processing.pop(downstream_id, None)
        self._sent.pop(downstream_id, None)
        self._acked.pop(downstream_id, None)
        self._lost.pop(downstream_id, None)
        self._alive.pop(downstream_id, None)
        self._expiry_streak.pop(downstream_id, None)
        self._pending = {seq: pending for seq, pending in self._pending.items()
                         if pending.downstream_id != downstream_id}

    def mark_dead(self, downstream_id: str) -> None:
        if downstream_id in self._alive and self._alive[downstream_id]:
            self._alive[downstream_id] = False
            self._registry.increment(metrics_mod.MARKED_DEAD_TOTAL,
                                     downstream=downstream_id)

    def is_alive(self, downstream_id: str) -> bool:
        return self._alive.get(downstream_id, False)

    def downstream_ids(self) -> Iterable[str]:
        return list(self._latency)

    # -- data plane ------------------------------------------------------
    def record_send(self, seq: int, downstream_id: str, now: float) -> None:
        self.begin_send(seq, downstream_id, now)
        self.commit_send(downstream_id)

    def begin_send(self, seq: int, downstream_id: str,
                   now: float) -> Optional[_PendingSend]:
        """Put *seq* in flight before its send runs, uncounted.

        An ACK that overtakes the sender's own bookkeeping then still
        finds its entry.  Returns the entry this one displaced (the
        earlier attempt of a redelivery), for :meth:`cancel_send`.
        """
        if downstream_id not in self._latency:
            self.add_downstream(downstream_id)
        displaced = self._pending.get(seq)
        self._pending[seq] = _PendingSend(seq, downstream_id, now)
        return displaced

    def commit_send(self, downstream_id: str) -> None:
        """Count a send that went out."""
        if downstream_id in self._sent:
            self._sent[downstream_id] += 1
        self._sent_total[downstream_id].inc()

    def cancel_send(self, seq: int,
                    displaced: Optional[_PendingSend]) -> None:
        """Undo :meth:`begin_send` for a send that failed."""
        if displaced is None:
            self._pending.pop(seq, None)
        else:
            self._pending[seq] = displaced

    def record_ack(self, seq: int, now: float,
                   processing_delay: Optional[float] = None) -> Optional[float]:
        """Fold in the ACK for *seq*; return the latency sample, if matched."""
        pending = self._pending.pop(seq, None)
        if pending is None:
            return None
        downstream_id = pending.downstream_id
        if downstream_id not in self._latency:
            return None
        sample = max(0.0, now - pending.sent_at)
        if not self._alive[downstream_id]:
            # A probe reached a downstream we had given up on.
            self._resurrect(downstream_id, pending.sent_at)
        self._latency[downstream_id].observe(sample)
        if processing_delay is not None:
            self._processing[downstream_id].observe(max(0.0, processing_delay))
        self._acked[downstream_id] += 1
        self._expiry_streak[downstream_id] = 0
        self._acked_total[downstream_id].inc()
        return sample

    def _resurrect(self, downstream_id: str, before: float) -> None:
        """Mark a dead member alive again, with a clean slate.

        Estimator history and in-flight entries from before the death
        window describe a peer that no longer exists; keeping them
        would let one pre-departure timeout streak instantly re-kill
        the revived member.
        """
        self._flush_stale_pending(downstream_id, before)
        self._latency[downstream_id].reset()
        self._processing[downstream_id].reset()
        self._alive[downstream_id] = True
        self._registry.increment(metrics_mod.RESURRECTED_TOTAL,
                                 downstream=downstream_id)

    def _flush_stale_pending(self, downstream_id: str, before: float) -> None:
        """Charge pre-resurrection in-flight entries as lost, quietly.

        Tuples sent into the dead window (strictly before the ACKed
        send at *before*) are gone; counting them keeps the loss ledger
        exact without bumping the expiry streak of the fresh peer.
        """
        stale = [seq for seq, pending in self._pending.items()
                 if pending.downstream_id == downstream_id
                 and pending.sent_at < before]
        for seq in stale:
            self._pending.pop(seq)
            self._lost[downstream_id] += 1
            self._registry.increment(metrics_mod.LOST_TOTAL,
                                     downstream=downstream_id)

    def expire_pending(self, now: float) -> int:
        """Expire in-flight entries older than the timeout.

        Every expired entry is a lost tuple charged to its downstream;
        a downstream collecting ``dead_after`` consecutive expiry rounds
        without a single ACK in between is marked dead.  Returns the
        number of entries expired this round.
        """
        stale = [seq for seq, pending in self._pending.items()
                 if now - pending.sent_at > self._timeout]
        expired_by_downstream: Dict[str, int] = {}
        for seq in stale:
            pending = self._pending.pop(seq)
            downstream_id = pending.downstream_id
            if downstream_id not in self._latency:
                continue
            self._lost[downstream_id] += 1
            expired_by_downstream[downstream_id] = \
                expired_by_downstream.get(downstream_id, 0) + 1
            self._registry.increment(metrics_mod.LOST_TOTAL,
                                     downstream=downstream_id)
        for downstream_id, count in expired_by_downstream.items():
            self._expiry_streak[downstream_id] += 1
            if self._expiry_streak[downstream_id] >= self._dead_after:
                self.mark_dead(downstream_id)
        return len(stale)

    def lost_count(self, downstream_id: Optional[str] = None) -> int:
        if downstream_id is None:
            return sum(self._lost.values())
        return self._lost.get(downstream_id, 0)

    def lost_by_downstream(self) -> Dict[str, int]:
        return dict(self._lost)

    def pending_downstream(self, seq: int) -> Optional[str]:
        """The downstream an in-flight *seq* was sent to, if still pending."""
        pending = self._pending.get(seq)
        return pending.downstream_id if pending is not None else None

    def pending_count(self, downstream_id: Optional[str] = None) -> int:
        if downstream_id is None:
            return len(self._pending)
        return sum(1 for pending in self._pending.values()
                   if pending.downstream_id == downstream_id)

    # -- snapshots -------------------------------------------------------
    def stats(self) -> Dict[str, DownstreamStats]:
        """Snapshot of every known downstream for the policy layer."""
        snapshot = {}
        for downstream_id, estimator in self._latency.items():
            snapshot[downstream_id] = DownstreamStats(
                downstream_id=downstream_id,
                latency=estimator.value,
                processing_delay=self._processing[downstream_id].value,
                alive=self._alive[downstream_id],
                acked_count=self._acked[downstream_id],
                sent_count=self._sent[downstream_id],
                lost_count=self._lost[downstream_id],
            )
        return snapshot


class RateMeter:
    """Measures the incoming tuple rate Lambda over a sliding window."""

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise PolicyError("rate meter window must be positive")
        self._window = window
        self._arrivals: Deque[float] = deque()

    def observe(self, now: float) -> None:
        self._arrivals.append(now)
        self._evict(now)

    def rate(self, now: float) -> float:
        """Arrivals per second over the last window."""
        self._evict(now)
        return len(self._arrivals) / self._window

    def _evict(self, now: float) -> None:
        while self._arrivals and now - self._arrivals[0] > self._window:
            self._arrivals.popleft()
