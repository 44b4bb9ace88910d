"""Partitioned operator state for keyed function units.

State is held per-(tenant, unit) behind the :class:`StateStore` port and
addressed by tuple key; the hashed key space partitions each store into
key ranges (``repro.core.keyed``), which is the unit of migration.  On a
hot-range split or a graceful drain, the moving range's entries are
extracted, carried as a versioned snapshot frame through the hardened
codec, and installed on the new owner — the same strict decode rules as
the control-plane checkpoint (unknown fields and foreign versions fail
loudly) protect the handoff.

Two stateful primitives cover the paper's sensing workloads: tumbling
windowed aggregation and per-key sessions.  Both keep their working state
*inside* the store they are built on, so migrating the store migrates
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.core.exceptions import (PolicyError, RuntimeStateError,
                                   SerializationError)
from repro.core.keyed import KeyRange, hash_key

#: wire version of the state-snapshot frame; bump on layout change
STATE_SNAPSHOT_VERSION = 1

_SNAPSHOT_FIELDS = frozenset({"version", "tenant", "unit", "lo", "hi",
                              "entries"})


class StateStore:
    """Port for per-key operator state owned by one (tenant, unit).

    ``load``/``store``/``delete``/``keys`` are the backend surface;
    range extraction and installation are implemented on the port so
    every backend migrates identically.
    """

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def store(self, key: str, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def keys(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.keys())

    # -- migration surface ----------------------------------------------
    def extract_range(self, key_range: KeyRange) \
            -> Tuple[Tuple[str, Dict[str, Any]], ...]:
        """Remove and return every entry whose key hashes into the range."""
        moved = []
        for key in self.keys():
            if key_range.contains(hash_key(key)):
                state = self.load(key)
                if state is not None:
                    moved.append((key, state))
                self.delete(key)
        return tuple(moved)

    def install(self, entries: Iterable[Tuple[str, Dict[str, Any]]]) -> None:
        """Adopt entries extracted from a previous owner — all or none:
        every key is checked before the first one is stored."""
        entries = tuple(entries)
        for key, _ in entries:
            if self.load(key) is not None:
                raise RuntimeStateError(
                    "state install collides on key %r" % key)
        for key, state in entries:
            self.store(key, state)


class InMemoryStateStore(StateStore):
    """Dict-backed store — the default for both substrates."""

    def __init__(self) -> None:
        self._states: Dict[str, Dict[str, Any]] = {}

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        return self._states.get(key)

    def store(self, key: str, state: Dict[str, Any]) -> None:
        self._states[key] = state

    def delete(self, key: str) -> None:
        self._states.pop(key, None)

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._states)

    def __len__(self) -> int:
        return len(self._states)


@dataclass(frozen=True)
class WindowAggregate:
    """One closed tumbling window for one key."""

    key: str
    window_start: float
    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class WindowAggregator:
    """Per-key tumbling-window aggregation over a :class:`StateStore`.

    ``observe`` folds one sample into the key's current window and
    returns the previous window once the clock crosses a boundary —
    classic per-user rate/mean aggregation for sensing streams.
    """

    def __init__(self, store: StateStore, window: float) -> None:
        if window <= 0:
            raise RuntimeStateError("aggregation window must be positive")
        self._store = store
        self._window = window

    @property
    def store(self) -> StateStore:
        return self._store

    def observe(self, key: str, value: float,
                now: float) -> Optional[WindowAggregate]:
        slot = int(now // self._window)
        state = self._store.load(key)
        closed: Optional[WindowAggregate] = None
        if state is not None and state["slot"] != slot:
            closed = self._aggregate(key, state)
            state = None
        if state is None:
            state = {"slot": slot, "count": 0, "total": 0.0,
                     "min": value, "max": value}
        state["count"] += 1
        state["total"] += value
        state["min"] = min(state["min"], value)
        state["max"] = max(state["max"], value)
        self._store.store(key, state)
        return closed

    def flush(self, key: str) -> Optional[WindowAggregate]:
        """Close and return the key's open window, if any."""
        state = self._store.load(key)
        if state is None:
            return None
        self._store.delete(key)
        return self._aggregate(key, state)

    def _aggregate(self, key: str, state: Dict[str, Any]) -> WindowAggregate:
        return WindowAggregate(key=key,
                               window_start=state["slot"] * self._window,
                               count=state["count"], total=state["total"],
                               minimum=state["min"], maximum=state["max"])


@dataclass(frozen=True)
class SessionSummary:
    """One closed per-key session."""

    key: str
    started: float
    ended: float
    events: int

    @property
    def duration(self) -> float:
        return self.ended - self.started


class SessionTracker:
    """Per-key session windows with an inactivity gap, over a store.

    An event extends the key's open session; a gap longer than
    ``timeout`` closes it and the closed session is returned with the
    next event (or via :meth:`flush`).
    """

    def __init__(self, store: StateStore, timeout: float) -> None:
        if timeout <= 0:
            raise RuntimeStateError("session timeout must be positive")
        self._store = store
        self._timeout = timeout

    @property
    def store(self) -> StateStore:
        return self._store

    def observe(self, key: str, now: float) -> Optional[SessionSummary]:
        state = self._store.load(key)
        closed: Optional[SessionSummary] = None
        if state is not None and now - state["last"] > self._timeout:
            closed = SessionSummary(key=key, started=state["started"],
                                    ended=state["last"],
                                    events=state["events"])
            state = None
        if state is None:
            state = {"started": now, "last": now, "events": 0}
        state["last"] = now
        state["events"] += 1
        self._store.store(key, state)
        return closed

    def flush(self, key: str) -> Optional[SessionSummary]:
        state = self._store.load(key)
        if state is None:
            return None
        self._store.delete(key)
        return SessionSummary(key=key, started=state["started"],
                              ended=state["last"], events=state["events"])


@dataclass(frozen=True)
class StateSnapshot:
    """The unit of state migration: one key range of one (tenant, unit)."""

    tenant: str
    unit: str
    key_range: KeyRange
    entries: Tuple[Tuple[str, Dict[str, Any]], ...]


def snapshot_range(store: StateStore, tenant: str, unit: str,
                   key_range: KeyRange) -> StateSnapshot:
    """Extract the range from *store* into a migratable snapshot."""
    return StateSnapshot(tenant=tenant, unit=unit, key_range=key_range,
                         entries=store.extract_range(key_range))


def encode_state_snapshot(snapshot: StateSnapshot) -> bytes:
    from repro.runtime.serialization import encode_value
    return encode_value({
        "version": STATE_SNAPSHOT_VERSION,
        "tenant": snapshot.tenant,
        "unit": snapshot.unit,
        "lo": snapshot.key_range.lo,
        "hi": snapshot.key_range.hi,
        "entries": [[key, dict(state)] for key, state in snapshot.entries],
    })


def decode_state_snapshot(data: bytes) -> StateSnapshot:
    """Strict decode — the migration analogue of the checkpoint decoder.

    Installing a silently-truncated snapshot would corrupt per-key state
    on the new owner, so unknown fields and foreign versions are errors.
    """
    from repro.runtime.serialization import decode_value
    decoded = decode_value(data)
    if not isinstance(decoded, dict):
        raise SerializationError("state snapshot is not a mapping")
    unknown = set(decoded) - _SNAPSHOT_FIELDS
    if unknown:
        raise SerializationError(
            "state snapshot carries unknown fields %s (version skew?)"
            % sorted(unknown))
    version = decoded.get("version")
    if version != STATE_SNAPSHOT_VERSION:
        raise SerializationError(
            "state snapshot version %r not supported (want %d)"
            % (version, STATE_SNAPSHOT_VERSION))
    try:
        tenant = decoded.get("tenant", "")
        unit = decoded.get("unit", "")
        key_range = KeyRange(decoded["lo"], decoded["hi"])
        entries = tuple((str(key), dict(state))
                        for key, state in decoded.get("entries", []))
    except (TypeError, ValueError, KeyError, IndexError,
            PolicyError) as error:
        raise SerializationError("malformed state snapshot: %s" % error) \
            from error
    if not isinstance(tenant, str) or not isinstance(unit, str) or not unit:
        raise SerializationError("state snapshot tenant/unit must be strings "
                                 "(unit non-empty)")
    for key, _ in entries:
        if not key_range.contains(hash_key(key)):
            raise SerializationError(
                "state snapshot entry %r outside range %r"
                % (key, key_range))
    return StateSnapshot(tenant=tenant, unit=unit, key_range=key_range,
                         entries=entries)
