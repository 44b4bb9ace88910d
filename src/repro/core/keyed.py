"""Key-range partitioning for keyed stateful operators.

SWARM-style adaptive key-range load balancing (PAPERS.md): tuples carry an
optional string key, keys hash into a fixed 16-bit key space, and contiguous
key ranges map to downstream owners.  The range table lives beside LRS in
the shared :class:`~repro.core.controller.LrsController` so both substrates
(threaded runtime and discrete-event simulator) route keyed tuples
identically.  Hot-range detection reuses the sliding-window rate meters LRS
already keeps per edge; a range whose observed rate exceeds its fair share
of the edge rate is split, and the half that moves is migrated to a new
owner through the graceful-drain path (pause -> drain -> snapshot ->
install -> flip routing).
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.exceptions import PolicyError, RuntimeStateError
from repro.core.latency import RateMeter

#: Size of the hashed key space.  16 bits keeps range boundaries compact in
#: checkpoints while leaving plenty of resolution for splitting.
KEY_SPACE = 1 << 16

#: Reasons recorded on ``swing_key_range_moves_total``.
MOVE_HOT_SPLIT = "hot_split"
MOVE_DRAIN = "drain"
MOVE_CRASH = "crash"


def hash_key(key: str) -> int:
    """Map *key* into ``[0, KEY_SPACE)`` with a process-stable hash.

    CRC32, not :func:`hash` — Python's string hash is randomised per
    process, and routing must agree across workers, masters, and
    recovered masters.
    """
    return zlib.crc32(key.encode("utf-8")) % KEY_SPACE


@dataclass(frozen=True)
class KeyRange:
    """A half-open interval ``[lo, hi)`` of the hashed key space."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= KEY_SPACE):
            raise PolicyError("invalid key range [%r, %r)" % (self.lo, self.hi))

    def contains(self, key_hash: int) -> bool:
        return self.lo <= key_hash < self.hi

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def split(self) -> Tuple["KeyRange", "KeyRange"]:
        """Halve the range.  Raises when it is a single slot already."""
        if self.width < 2:
            raise PolicyError("cannot split unit key range %r" % (self,))
        mid = self.lo + self.width // 2
        return KeyRange(self.lo, mid), KeyRange(mid, self.hi)


@dataclass(frozen=True)
class KeyedConfig:
    """Knobs for keyed routing and hot-range splitting.

    ``key_count``/``zipf_alpha`` describe the synthetic keyed workload
    (simulator sources and the skew scenario); the remaining fields tune
    the splitter.  ``hot_ratio`` is the multiple of a range's fair share
    of the edge rate above which it is considered hot.
    """

    key_count: int = 0
    zipf_alpha: float = 0.0
    split_enabled: bool = True
    hot_ratio: float = 2.0
    min_split_interval: float = 1.0
    max_splits: int = 8
    min_range_width: int = 2

    def validate(self) -> None:
        if self.key_count < 0:
            raise PolicyError("key_count must be >= 0")
        if self.zipf_alpha < 0:
            raise PolicyError("zipf_alpha must be >= 0")
        if self.hot_ratio <= 1.0:
            raise PolicyError("hot_ratio must be > 1")
        if self.min_split_interval < 0:
            raise PolicyError("min_split_interval must be >= 0")
        if self.max_splits < 0:
            raise PolicyError("max_splits must be >= 0")
        if self.min_range_width < 2:
            raise PolicyError("min_range_width must be >= 2")


class KeyRangeTable:
    """Sorted, non-overlapping key ranges mapped to downstream owners.

    The table is consulted on every keyed dispatch, so owner lookup is a
    single bisect over the range starts.  A *paused* range has no
    routable owner: keyed dispatch parks those tuples in the replay
    buffer (retained unassigned) until the range is resumed — that pause
    is what makes a mid-migration handoff lossless under at-least-once
    delivery.
    """

    def __init__(self) -> None:
        self._los: List[int] = []
        self._ranges: List[KeyRange] = []
        self._owners: List[str] = []
        self._paused: Dict[KeyRange, bool] = {}
        self.splits = 0

    # -- construction ----------------------------------------------------
    @classmethod
    def bootstrap(cls, owners: Sequence[str]) -> "KeyRangeTable":
        """Partition the key space evenly across *owners* (sorted order)."""
        if not owners:
            raise PolicyError("key range table needs at least one owner")
        table = cls()
        ordered = sorted(owners)
        step = KEY_SPACE // len(ordered)
        lo = 0
        for index, owner in enumerate(ordered):
            hi = KEY_SPACE if index == len(ordered) - 1 else lo + step
            table.assign(KeyRange(lo, hi), owner)
            lo = hi
        return table

    def assign(self, key_range: KeyRange, owner: str) -> None:
        """Add or re-own a range.  New ranges must not overlap existing."""
        index = bisect.bisect_left(self._los, key_range.lo)
        if index < len(self._ranges) and self._ranges[index] == key_range:
            self._owners[index] = owner
            return
        if index < len(self._ranges) and key_range.hi > self._ranges[index].lo:
            raise RuntimeStateError("overlapping key range %r" % (key_range,))
        if index > 0 and self._ranges[index - 1].hi > key_range.lo:
            raise RuntimeStateError("overlapping key range %r" % (key_range,))
        self._los.insert(index, key_range.lo)
        self._ranges.insert(index, key_range)
        self._owners.insert(index, owner)

    # -- lookup ----------------------------------------------------------
    def range_of(self, key_hash: int) -> Optional[KeyRange]:
        index = bisect.bisect_right(self._los, key_hash) - 1
        if index < 0:
            return None
        candidate = self._ranges[index]
        return candidate if candidate.contains(key_hash) else None

    def owner_of(self, key_hash: int) -> Optional[str]:
        """Owner for *key_hash*, or ``None`` when unowned or paused."""
        index = bisect.bisect_right(self._los, key_hash) - 1
        if index < 0 or not self._ranges[index].contains(key_hash):
            return None
        if self._paused.get(self._ranges[index]):
            return None
        return self._owners[index]

    def owner(self, key_range: KeyRange) -> Optional[str]:
        index = bisect.bisect_left(self._los, key_range.lo)
        if index < len(self._ranges) and self._ranges[index] == key_range:
            return self._owners[index]
        return None

    def ranges(self) -> Tuple[Tuple[KeyRange, str], ...]:
        return tuple(zip(self._ranges, self._owners))

    def ranges_owned_by(self, owner: str) -> Tuple[KeyRange, ...]:
        return tuple(r for r, o in zip(self._ranges, self._owners)
                     if o == owner)

    def is_paused(self, key_range: KeyRange) -> bool:
        return bool(self._paused.get(key_range))

    # -- mutation --------------------------------------------------------
    def split(self, key_range: KeyRange) -> Tuple[KeyRange, KeyRange]:
        """Split an owned range in place; both halves keep the old owner."""
        index = bisect.bisect_left(self._los, key_range.lo)
        if index >= len(self._ranges) or self._ranges[index] != key_range:
            raise RuntimeStateError("unknown key range %r" % (key_range,))
        owner = self._owners[index]
        left, right = key_range.split()
        paused = self._paused.pop(key_range, False)
        self._los[index:index + 1] = [left.lo, right.lo]
        self._ranges[index:index + 1] = [left, right]
        self._owners[index:index + 1] = [owner, owner]
        if paused:
            self._paused[left] = True
            self._paused[right] = True
        self.splits += 1
        return left, right

    def pause(self, key_range: KeyRange) -> None:
        if self.owner(key_range) is None:
            raise RuntimeStateError("cannot pause unknown range %r"
                                    % (key_range,))
        self._paused[key_range] = True

    def resume(self, key_range: KeyRange) -> None:
        self._paused.pop(key_range, None)

    # -- checkpoint ------------------------------------------------------
    def snapshot(self) -> Tuple[Tuple[int, int, str], ...]:
        """Plain-data view for the control-plane checkpoint.

        Pauses are transient migration state and deliberately not
        captured: a recovered master resumes with every range routable.
        """
        return tuple((r.lo, r.hi, owner)
                     for r, owner in zip(self._ranges, self._owners))

    @classmethod
    def restore(cls, entries: Iterable[Tuple[int, int, str]]) \
            -> "KeyRangeTable":
        table = cls()
        for lo, hi, owner in entries:
            table.assign(KeyRange(int(lo), int(hi)), str(owner))
        return table


class HotRangeDetector:
    """Flags key ranges whose rate exceeds their fair share of the edge.

    Fed from the keyed dispatch path with the same timestamps the LRS
    rate meter sees, so detection and routing agree on what "load" means.
    A range is hot when its rate is at least ``hot_ratio`` times the
    edge rate divided by the number of live owners, it is wide enough to
    split, and the per-detector cooldown has elapsed.
    """

    def __init__(self, config: KeyedConfig) -> None:
        config.validate()
        self._config = config
        self._meters: Dict[KeyRange, RateMeter] = {}
        self._edge = RateMeter()
        self._last_split: Optional[float] = None
        self.splits = 0

    def observe(self, key_range: Optional[KeyRange], now: float) -> None:
        self._edge.observe(now)
        if key_range is None:
            return
        meter = self._meters.get(key_range)
        if meter is None:
            meter = self._meters[key_range] = RateMeter()
        meter.observe(now)

    def forget(self, key_range: KeyRange) -> None:
        self._meters.pop(key_range, None)

    def hottest(self, now: float, table: KeyRangeTable,
                owners: int) -> Optional[Tuple[KeyRange, float]]:
        """The hot range most above its fair share, or ``None``.

        *owners* is the number of live downstream owners: the fair share
        of a perfectly balanced table is ``edge_rate / owners``.
        """
        if not self._config.split_enabled or owners < 1:
            return None
        if self.splits >= self._config.max_splits:
            return None
        if (self._last_split is not None
                and now - self._last_split < self._config.min_split_interval):
            return None
        edge_rate = self._edge.rate(now)
        if edge_rate <= 0:
            return None
        threshold = self._config.hot_ratio * edge_rate / owners
        best: Optional[Tuple[KeyRange, float]] = None
        for key_range, meter in self._meters.items():
            if key_range.width < self._config.min_range_width:
                continue
            if table.owner(key_range) is None or table.is_paused(key_range):
                continue
            rate = meter.rate(now)
            if rate < threshold:
                continue
            if best is None or rate > best[1]:
                best = (key_range, rate)
        return best

    def mark_split(self, now: float) -> None:
        self._last_split = now
        self.splits += 1


def zipf_weights(count: int, alpha: float) -> Tuple[float, ...]:
    """Normalised Zipf(alpha) probabilities over ranks ``1..count``."""
    if count < 1:
        raise PolicyError("zipf weight count must be >= 1")
    if alpha < 0:
        raise PolicyError("zipf alpha must be >= 0")
    raw = [1.0 / (rank ** alpha) for rank in range(1, count + 1)]
    total = sum(raw)
    return tuple(weight / total for weight in raw)
