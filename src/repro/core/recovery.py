"""Control-plane crash recovery: checkpoints, stores and timing knobs.

Seven PRs hardened the *workers* against churn; this module makes the
**master** survivable.  The master is the single writer of swarm
membership, per-tenant deployment state and (through its co-located
runtime) the source edges' replay retention — all of it in-memory, all
of it gone on a crash.  Recovery rests on three pieces:

``RecoveryConfig``
    Frozen knob bundle: checkpoint cadence plus the runtime timing
    knobs that used to be scattered hardcoded sleeps (worker idle tick,
    drain poll, master sweep interval, deployment await).  Chaos tests
    compress time by shrinking these deterministically instead of
    monkeypatching module constants.

``ControlPlaneCheckpoint``
    A versioned, frozen snapshot of everything the master must carry
    across a restart: its fencing epoch, the worker membership, each
    tenant session's placement + started flag, the replay-buffer
    retention index of the master-hosted edges (seq, attempt, deadline
    and the encoded wire frame, so redelivery after restart re-sends
    real bytes), and the sink dedup window's high-water keys (so a
    restarted sink does not double-deliver what its predecessor already
    delivered).  Serialized through the hardened binary codec — never
    pickle — and decoded *strictly*: unknown fields or a foreign
    version are rejected loudly, not silently dropped.

``CheckpointStore``
    The durability port.  :class:`InMemoryCheckpointStore` backs tests
    and single-process failover; :class:`FileCheckpointStore` writes
    via temp-file + ``os.replace`` so a crash mid-write can never leave
    a torn checkpoint behind.

``CheckpointManager``
    Cadence: periodic (piggybacked on control traffic) + on-mutation
    writes, and the ``swing_checkpoint_age_seconds`` gauge so staleness
    is observable.

The crash model matches the simulator mirror: the checkpoint store is
durable and synchronously written (a final checkpoint at crash time
stands in for a per-dispatch write-ahead log), while every in-memory
structure of the master process is lost.  DESIGN.md §12 spells out the
resulting guarantee matrix.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError, SerializationError

#: wire version of the checkpoint payload; bump on layout change
CHECKPOINT_VERSION = 1

_CHECKPOINT_FIELDS = frozenset({"version", "epoch", "workers", "sessions",
                                "retention", "dedup", "key_ranges"})
_SESSION_FIELDS = frozenset({"tenant", "started", "assignments"})
_ENTRY_FIELDS = frozenset({"seq", "attempt", "deadline", "frame", "seqs"})


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for checkpoint cadence and runtime timing.

    ``checkpoint_interval``
        Seconds between periodic checkpoint writes (0 disables the
        periodic path; on-mutation writes still happen).
    ``checkpoint_on_mutation``
        Write immediately on membership / deployment changes.
    ``worker_idle_tick``
        Worker mailbox poll timeout while no partial batch is pending
        (a pending one is waited for until its ``max_delay``) — how fast
        a worker notices shutdown.
    ``drain_quiet`` / ``drain_poll``
        Graceful-drain quiescence window and its poll period.
    ``detector_interval``
        Master failure-detector sweep period; ``None`` keeps the
        historical ``heartbeat_timeout / 2``.
    ``await_timeout`` / ``await_poll``
        Bound + poll for membership/deployment waits (app runner).
    ``run_poll``
        The app runner's completion-poll period.
    """

    checkpoint_interval: float = 1.0
    checkpoint_on_mutation: bool = True
    worker_idle_tick: float = 0.05
    drain_quiet: float = 0.25
    drain_poll: float = 0.01
    detector_interval: Optional[float] = None
    await_timeout: float = 5.0
    await_poll: float = 0.005
    run_poll: float = 0.02

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise RuntimeStateError("checkpoint_interval must be >= 0")
        for name in ("worker_idle_tick", "drain_poll", "await_timeout",
                     "await_poll", "run_poll"):
            if getattr(self, name) <= 0:
                raise RuntimeStateError("%s must be positive" % name)
        if self.drain_quiet < 0:
            raise RuntimeStateError("drain_quiet must be >= 0")
        if self.detector_interval is not None and self.detector_interval <= 0:
            raise RuntimeStateError("detector_interval must be positive "
                                    "when set")


@dataclass(frozen=True)
class SessionState:
    """One tenant session's deployment state inside a checkpoint."""

    tenant: str
    started: bool
    #: unit name -> sorted hosting worker ids
    assignments: Tuple[Tuple[str, Tuple[str, ...]], ...]


@dataclass(frozen=True)
class RetainedEntry:
    """One un-ACKed replay-buffer entry carried across a restart.

    ``frame`` is the encoded wire payload (a single tuple, or a batch
    frame when ``len(seqs) > 1``), so the restarted master can redeliver
    real bytes without re-running any unit.
    """

    seq: int
    attempt: int
    deadline: Optional[float]
    frame: bytes
    seqs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ControlPlaneCheckpoint:
    """Versioned snapshot of the master's recoverable state."""

    epoch: int = 0
    workers: Tuple[str, ...] = ()
    sessions: Tuple[SessionState, ...] = ()
    #: edge key -> retained entries of that edge's replay buffer
    retention: Tuple[Tuple[str, Tuple[RetainedEntry, ...]], ...] = ()
    #: sink/ingress dedup high-water keys, oldest first: (edge, seq)
    dedup: Tuple[Tuple[str, int], ...] = ()
    #: keyed routing: edge key -> ((lo, hi, owner), ...) range table;
    #: empty on stateless deployments and then absent from the wire, so
    #: checkpoints without keyed edges stay byte-identical to version 1
    #: payloads written before this field existed
    key_ranges: Tuple[Tuple[str, Tuple[Tuple[int, int, str], ...]], ...] = ()

    # -- codec -----------------------------------------------------------
    def encode(self) -> bytes:
        from repro.runtime.serialization import encode_value
        fields = {
            "version": CHECKPOINT_VERSION,
            "epoch": self.epoch,
            "workers": list(self.workers),
            "sessions": [{
                "tenant": session.tenant,
                "started": session.started,
                "assignments": {unit: list(hosts)
                                for unit, hosts in session.assignments},
            } for session in self.sessions],
            "retention": {edge: [{
                "seq": entry.seq,
                "attempt": entry.attempt,
                "deadline": entry.deadline,
                "frame": entry.frame,
                "seqs": list(entry.seqs),
            } for entry in entries] for edge, entries in self.retention},
            "dedup": [[edge, seq] for edge, seq in self.dedup],
        }
        if self.key_ranges:
            fields["key_ranges"] = {
                edge: [[lo, hi, owner] for lo, hi, owner in ranges]
                for edge, ranges in self.key_ranges}
        return encode_value(fields)

    @classmethod
    def decode(cls, data: bytes) -> "ControlPlaneCheckpoint":
        """Strict decode: unknown fields and foreign versions are errors.

        A checkpoint written by a *newer* master may carry state this
        build cannot honor; restoring a silently-truncated view of it
        would violate the delivery guarantee, so version skew fails
        loudly instead.
        """
        from repro.runtime.serialization import decode_value
        decoded = decode_value(data)
        if not isinstance(decoded, dict):
            raise SerializationError("checkpoint payload is not a mapping")
        unknown = set(decoded) - _CHECKPOINT_FIELDS
        if unknown:
            raise SerializationError(
                "checkpoint carries unknown fields %s (version skew?)"
                % sorted(unknown))
        version = decoded.get("version")
        if version != CHECKPOINT_VERSION:
            raise SerializationError(
                "checkpoint version %r not supported (want %d)"
                % (version, CHECKPOINT_VERSION))
        try:
            epoch = decoded.get("epoch", 0)
            workers = tuple(decoded.get("workers", []))
            sessions = tuple(cls._decode_session(raw)
                             for raw in decoded.get("sessions", []))
            retention = tuple(
                (edge, tuple(cls._decode_entry(raw) for raw in entries))
                for edge, entries in sorted(
                    decoded.get("retention", {}).items()))
            dedup = tuple((pair[0], pair[1])
                          for pair in decoded.get("dedup", []))
            key_ranges = tuple(
                (edge, tuple((item[0], item[1], item[2])
                             for item in ranges))
                for edge, ranges in sorted(
                    decoded.get("key_ranges", {}).items()))
        except (TypeError, ValueError, KeyError, IndexError,
                AttributeError) as error:
            raise SerializationError("malformed checkpoint: %s" % error) \
                from error
        if not isinstance(epoch, int) or epoch < 0:
            raise SerializationError("checkpoint epoch must be an int >= 0")
        for worker_id in workers:
            if not isinstance(worker_id, str) or not worker_id:
                raise SerializationError("checkpoint worker ids must be "
                                         "non-empty strings")
        for edge, seq in dedup:
            if not isinstance(edge, str) or not isinstance(seq, int):
                raise SerializationError("checkpoint dedup keys must be "
                                         "(edge, seq) pairs")
        for edge, ranges in key_ranges:
            if not isinstance(edge, str):
                raise SerializationError("checkpoint key-range edges must "
                                         "be strings")
            for lo, hi, owner in ranges:
                if not isinstance(lo, int) or not isinstance(hi, int) \
                        or not isinstance(owner, str):
                    raise SerializationError(
                        "checkpoint key ranges must be (lo, hi, owner)")
        return cls(epoch=epoch, workers=workers, sessions=sessions,
                   retention=retention, dedup=dedup, key_ranges=key_ranges)

    @staticmethod
    def _decode_session(raw: object) -> SessionState:
        if not isinstance(raw, dict):
            raise SerializationError("checkpoint session is not a mapping")
        unknown = set(raw) - _SESSION_FIELDS
        if unknown:
            raise SerializationError(
                "checkpoint session carries unknown fields %s"
                % sorted(unknown))
        tenant = raw.get("tenant", "")
        started = raw.get("started", False)
        assignments = raw.get("assignments", {})
        if not isinstance(tenant, str) or not isinstance(started, bool) \
                or not isinstance(assignments, dict):
            raise SerializationError("malformed checkpoint session")
        return SessionState(
            tenant=tenant, started=started,
            assignments=tuple(sorted(
                (unit, tuple(hosts)) for unit, hosts in assignments.items())))

    @staticmethod
    def _decode_entry(raw: object) -> RetainedEntry:
        if not isinstance(raw, dict):
            raise SerializationError("checkpoint entry is not a mapping")
        unknown = set(raw) - _ENTRY_FIELDS
        if unknown:
            raise SerializationError(
                "checkpoint entry carries unknown fields %s" % sorted(unknown))
        seq = raw["seq"]
        attempt = raw.get("attempt", 1)
        deadline = raw.get("deadline")
        frame = raw.get("frame", b"")
        seqs = tuple(raw.get("seqs", []))
        if not isinstance(seq, int) or not isinstance(attempt, int):
            raise SerializationError("checkpoint entry seq/attempt must be "
                                     "ints")
        if deadline is not None and not isinstance(deadline, float):
            raise SerializationError("checkpoint entry deadline must be a "
                                     "float or None")
        if not isinstance(frame, (bytes, bytearray, memoryview)):
            raise SerializationError("checkpoint entry frame must be bytes")
        return RetainedEntry(seq=seq, attempt=attempt, deadline=deadline,
                             frame=bytes(frame), seqs=seqs)


# -- durability port -----------------------------------------------------
class CheckpointStore:
    """Where checkpoint bytes go; implementations must be atomic."""

    def save(self, data: bytes) -> None:
        raise NotImplementedError

    def load(self) -> Optional[bytes]:
        raise NotImplementedError


class InMemoryCheckpointStore(CheckpointStore):
    """Latest-wins in-memory store (tests, single-process failover)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Optional[bytes] = None
        self.writes = 0

    def save(self, data: bytes) -> None:
        with self._lock:
            self._data = bytes(data)
            self.writes += 1

    def load(self) -> Optional[bytes]:
        with self._lock:
            return self._data


class FileCheckpointStore(CheckpointStore):
    """Single-file store with atomic-rename writes.

    The write goes to ``<path>.tmp`` first and is published with
    :func:`os.replace`, so readers see either the previous checkpoint or
    the complete new one — never a torn prefix.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def save(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def load(self) -> Optional[bytes]:
        try:
            with open(self.path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None


class CheckpointManager:
    """Drives periodic + on-mutation checkpointing for one master.

    ``capture`` is the master's snapshot callable; it runs under the
    manager's lock, so one coherent checkpoint is written at a time.
    The ``swing_checkpoint_age_seconds`` gauge is refreshed on every
    call, making staleness observable even between writes.
    """

    def __init__(self, capture: Callable[[], ControlPlaneCheckpoint],
                 store: CheckpointStore,
                 config: Optional[RecoveryConfig] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config if config is not None else RecoveryConfig()
        self.store = store
        self._capture = capture
        self._clock = clock
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._lock = threading.Lock()
        self._last_write: Optional[float] = None
        self.writes = 0

    def write(self, now: Optional[float] = None) -> None:
        """Capture and persist one checkpoint unconditionally."""
        if now is None:
            now = self._clock()
        with self._lock:
            data = self._capture().encode()
            self.store.save(data)
            self._last_write = now
            self.writes += 1
        self._export_age(now)

    def mutation(self, now: Optional[float] = None) -> None:
        """A membership/deployment change happened; write if configured."""
        if self.config.checkpoint_on_mutation:
            self.write(now)

    def maybe_checkpoint(self, now: Optional[float] = None) -> bool:
        """Periodic path: write when the interval elapsed; returns
        True when a checkpoint was written."""
        if now is None:
            now = self._clock()
        interval = self.config.checkpoint_interval
        wrote = False
        if interval > 0:
            with self._lock:
                due = (self._last_write is None
                       or now - self._last_write >= interval)
            if due:
                self.write(now)
                wrote = True
        if not wrote:
            self._export_age(now)
        return wrote

    def age(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last successful write (None before any)."""
        if now is None:
            now = self._clock()
        with self._lock:
            if self._last_write is None:
                return None
            return max(0.0, now - self._last_write)

    def load(self) -> Optional[ControlPlaneCheckpoint]:
        data = self.store.load()
        if data is None:
            return None
        return ControlPlaneCheckpoint.decode(data)

    def _export_age(self, now: float) -> None:
        age = self.age(now)
        if age is not None:
            self._registry.set_gauge(metrics_mod.CHECKPOINT_AGE_SECONDS, age)


def load_checkpoint(store: CheckpointStore
                    ) -> Optional[ControlPlaneCheckpoint]:
    """Read + strictly decode the latest checkpoint (None when absent)."""
    data = store.load()
    if data is None:
        return None
    return ControlPlaneCheckpoint.decode(data)


def retention_entries(exported: List[Tuple[int, int, Optional[float],
                                           object, Tuple[int, ...]]]
                      ) -> Tuple[RetainedEntry, ...]:
    """Build checkpoint entries from a controller's retention export.

    Only byte-payload contexts survive into the checkpoint (a batch
    context contributes its frame); opaque simulator contexts are the
    simulator's own responsibility and are skipped.
    """
    entries = []
    for seq, attempt, deadline, context, members in exported:
        frame = getattr(context, "frame", context)
        if not isinstance(frame, (bytes, bytearray, memoryview)):
            continue
        entries.append(RetainedEntry(seq=seq, attempt=attempt,
                                     deadline=deadline, frame=bytes(frame),
                                     seqs=tuple(members)))
    return tuple(entries)
