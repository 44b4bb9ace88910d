"""One drain, one migration: the state hand-off protocol, sans-IO.

A device leaving gracefully and a key range moving between two devices
wait for the same thing — a host that has gone quiet — and a range move
then runs one fixed order: refuse → pause → quiesce → re-check →
transfer → flip → resume (DESIGN.md §13).  Nothing here waits or knows a
substrate: the generators *yield the delay they want to wait* and the
caller spends it (``time.sleep`` via :func:`run`, or an engine timeout);
each substrate's devices sit behind :class:`MigrationHost`.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Protocol

from repro import metrics as metrics_mod
from repro.core.exceptions import MigrationAborted
from repro.core.keyed import KeyRange
from repro.core.state import (StateStore, decode_state_snapshot,
                              encode_state_snapshot, snapshot_range)


class MigrationHost(Protocol):
    """Port: what the protocol needs to know about a device."""

    def alive(self) -> bool:
        """Still up — able to finish its backlog and ship its state."""

    def busy(self, key_range: Optional[KeyRange] = None) -> bool:
        """Holding undone work for *key_range* (``None``: any at all).
        A host that cannot tell ranges apart answers for all of them."""

    def state_store(self, unit: str, tenant: str = "") -> StateStore:
        """The keyed state of *unit*; raises when it is not hosted here."""


def run(steps: Generator[float, None, object], wait: Callable):
    """Drive *steps* to completion, spending each delay in ``wait(delay)``."""
    try:
        while True:
            wait(next(steps))
    except StopIteration as done:
        return done.value


def quiesce(busy: Callable[[], bool], quiet: float, poll: float,
            timeout: Optional[float] = None) -> Generator[float, None, bool]:
    """Poll *busy* until it has stayed false for *quiet* seconds.

    Returns ``False`` instead once *timeout* seconds have been spent
    waiting (``None``: never give up).  Time is what this loop has asked
    its caller to wait, so it needs no clock.
    """
    waited = calm = 0.0
    while True:
        if busy():
            calm = 0.0
        elif calm >= quiet:
            return True
        if timeout is not None and waited >= timeout:
            return False
        yield poll
        waited += poll
        calm += poll


def transfer_range(source_store: StateStore, target_store: StateStore,
                   tenant: str, unit: str, key_range: KeyRange) -> int:
    """Hand one range's entries over — the only place state changes hands.

    They cross as the real wire frame even inside one process.  The
    drained owner's snapshot is authoritative: a stale copy on the
    receiver (a revive/re-drain cycle leaves one) is discarded.  Whatever
    fails before the install completes, the entries go back to the
    source: a failed hand-off must not leave the state nowhere.
    """
    snapshot = snapshot_range(source_store, tenant, unit, key_range)
    try:
        arrived = decode_state_snapshot(encode_state_snapshot(snapshot))
        target_store.extract_range(key_range)
        target_store.install(arrived.entries)
    except BaseException:
        for key, state in snapshot.entries:
            source_store.store(key, state)
        raise
    return len(arrived.entries)


def migrate_range(controller, key_range: KeyRange,
                  source: MigrationHost, target: MigrationHost,
                  source_owner: str, new_owner: str, unit: str,
                  tenant: str, reason: str, quiet: float, poll: float,
                  timeout: Optional[float] = None,
                  retarget: Optional[Callable[[], Optional[tuple]]] = None,
                  registry: Optional[metrics_mod.MetricsRegistry] = None
                  ) -> Generator[float, None, int]:
    """Move *key_range* of *unit*'s state from *source* to *target*.

    *source_owner* / *new_owner* are the routing ids the key table knows
    the two hosts by.  Returns the number of keys moved.  Every way of
    not moving raises :class:`MigrationAborted` with the range resumed
    on its old owner; *retarget*, when given, is asked for another
    ``(host, owner id)`` if the receiver left while the range drained.
    """
    table = controller.key_table
    if table is not None:
        if table.is_paused(key_range):
            # Its holder's resume would reopen routing under our snapshot.
            raise MigrationAborted("range %r is already migrating"
                                   % (key_range,))
        owner = table.owner(key_range)
        if owner != source_owner:
            # The loser of two hand-offs strands its copy on a non-owner.
            raise MigrationAborted("range %r is owned by %s, not by %s"
                                   % (key_range, owner, source_owner))
    started = controller.clock()
    controller.pause_range(key_range)  # new tuples park in the replay buffer
    try:
        calm = yield from quiesce(
            lambda: source.alive() and source.busy(key_range),
            quiet, poll, timeout)
        if not calm:
            # What it is still processing would write state the flip strands.
            raise MigrationAborted(
                "range %r: %s was still busy after %.2fs; not moved"
                % (key_range, source_owner, timeout))
        if table.owner(key_range) != source_owner or not source.alive():
            raise MigrationAborted(
                "range %r: %s left or lost the range while it drained"
                % (key_range, source_owner))
        if not (target.alive() and controller.is_alive(new_owner)):
            # Flipping to a corpse strands the state on the old owner.
            replacement = retarget() if retarget is not None else None
            if replacement is None:
                raise MigrationAborted(
                    "range %r: receiver %s left while it drained; not moved"
                    % (key_range, new_owner))
            target, new_owner = replacement
        moved = transfer_range(source.state_store(unit, tenant),
                               target.state_store(unit, tenant),
                               tenant, unit, key_range)
        controller.move_range(key_range, new_owner, reason=reason)
    finally:
        controller.resume_range(key_range)  # sweeps the parked tuples out
    if registry is not None:
        registry.observe_histogram(metrics_mod.STATE_MIGRATION_SECONDS,
                                   controller.clock() - started,
                                   edge=controller.name or "-")
    return moved
