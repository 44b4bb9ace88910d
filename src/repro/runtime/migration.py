"""Live key-range migration for the threaded runtime.

One code path serves both triggers: a hot-range split (load) and a
graceful worker departure (churn) end up here with a key range, a source
worker, and a target worker.  The protocol is the graceful-drain LEAVING
shape applied to one range instead of one device:

1. **pause** the range — keyed dispatch parks its tuples unassigned in
   the replay buffer (at-least-once), so nothing new reaches the old
   owner;
2. **drain** in-flight work — wait for the source worker's mailbox to
   stay quiet, the same quiescence loop ``WorkerRuntime.leave`` runs;
3. **snapshot** the range's state through the hardened codec
   (strict versioned frames, like the control-plane checkpoint);
4. **install** it on the target worker;
5. **flip** routing and resume — the replay sweep immediately re-places
   every parked tuple on the new owner, and the receiver-side dedup
   window absorbs any member the old owner had in fact processed.

Metrics: each move counts on ``swing_key_range_moves_total{reason=...}``
(inside :meth:`LrsController.move_range`) and the pause-to-resume
duration lands in ``swing_state_migration_seconds``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError
from repro.core.keyed import KeyRange
from repro.runtime.dispatcher import UpstreamDispatcher, split_instance
from repro.runtime.worker import WorkerRuntime


def migrate_range(dispatcher: UpstreamDispatcher, key_range: KeyRange,
                  source: WorkerRuntime, target: WorkerRuntime,
                  new_owner: str, unit_name: str, tenant: str = "",
                  reason: str = "hot_split",
                  quiet: Optional[float] = None,
                  timeout: float = 5.0,
                  registry: Optional[metrics_mod.MetricsRegistry] = None
                  ) -> int:
    """Move *key_range* of *unit_name*'s state from *source* to *target*.

    *new_owner* is the downstream instance id on *target* that takes
    over routing.  Returns the number of keys migrated.  The tuple
    stream keeps flowing throughout: tuples for the moving range are
    parked and redelivered, everything else routes normally.

    Refused (``RuntimeStateError``, table untouched) when the range is
    already paused — another migration has it, and that one's resume
    would reopen routing under this one's snapshot — or when *source*
    does not host its owner: two handoffs of one range end with the
    loser's copy stranded on a non-owner.  The simulator's mirror has
    refused both since PR 10.
    """
    controller = dispatcher.controller
    table = controller.key_table
    if table is not None:
        if table.is_paused(key_range):
            raise RuntimeStateError("range %r is already migrating"
                                    % (key_range,))
        owner = table.owner(key_range)
        if owner is not None \
                and split_instance(owner)[1] != source.worker_id:
            raise RuntimeStateError(
                "range %r is owned by %s, not by an instance on %s"
                % (key_range, owner, source.worker_id))
    started = time.monotonic()
    controller.pause_range(key_range)
    try:
        _drain(source, quiet=quiet, timeout=timeout)
        frame = source.export_key_state(unit_name, key_range, tenant=tenant)
        moved = target.import_key_state(frame)
        controller.move_range(key_range, new_owner, reason=reason)
    finally:
        controller.resume_range(key_range)
    if registry is not None:
        registry.observe_histogram(metrics_mod.STATE_MIGRATION_SECONDS,
                                   time.monotonic() - started,
                                   edge=dispatcher.edge)
    return moved


def _drain(source: WorkerRuntime, quiet: Optional[float],
           timeout: float) -> None:
    """Wait for *source*'s ingress to quiesce (the LEAVING loop's core).

    Tuples already in flight toward the old owner either finish (and
    ACK) here, or remain retained and get redelivered to the new owner
    after the flip — dedup makes that a duplicate, not a double count.
    """
    if quiet is None:
        quiet = source.recovery.drain_quiet
    deadline = time.monotonic() + timeout
    last_busy = time.monotonic()
    while time.monotonic() < deadline:
        if len(source.mailbox) > 0 or source._data_active:
            last_busy = time.monotonic()
        elif time.monotonic() - last_busy >= quiet:
            return
        time.sleep(source.recovery.drain_poll)
