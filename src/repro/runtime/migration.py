"""Live key-range migration on the threaded runtime.

The protocol is :func:`repro.core.migration.migrate_range`; this is its
driver for two ``WorkerRuntime`` hosts: it names them by instance id,
paces the drain like a worker's graceful drain (``DRAIN_QUIET`` /
``DRAIN_POLL``) and spends the protocol's waits in ``time.sleep``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro import metrics as metrics_mod
from repro.core import migration
from repro.core.keyed import KeyRange
from repro.runtime.dispatcher import UpstreamDispatcher, instance_id
from repro.runtime.worker import DRAIN_POLL, DRAIN_QUIET, WorkerRuntime


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
    over routing.  Returns the number of keys migrated; the stream keeps
    flowing throughout (the range's tuples are parked and redelivered).
    Raises ``MigrationAborted`` (a ``RuntimeStateError``) with the range
    left routable on its old owner and no state moved: when it is
    already migrating or not owned by *source*, when *source* has not
    gone quiet for *quiet* seconds (default ``DRAIN_QUIET``) within
    *timeout*, or when either worker stopped while the range drained.
    """
    return migration.run(migration.migrate_range(
        dispatcher.controller, key_range, source, target,
        instance_id(unit_name, source.worker_id), new_owner,
        unit_name, tenant, reason,
        quiet=DRAIN_QUIET if quiet is None else quiet,
        poll=DRAIN_POLL, timeout=timeout, registry=registry),
        time.sleep)
