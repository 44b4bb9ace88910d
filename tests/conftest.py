"""Fixtures shared across the test tree."""

import weakref

import pytest

from repro.core.controller import LrsController


@pytest.fixture
def seeded_redelivery_bug():
    """A seeded at-least-once bug for the mutation tests of ``swing
    verify``: every controller drops its first redelivery on the floor,
    once — the entry leaves the replay buffer with no eviction record
    and is never sent again.  The invariant checker must find it, shrink
    it and replay it.

    Yields the patch; ``seeded_redelivery_bug.undo()`` is "the fix":
    from then on every controller redelivers correctly.
    """
    redeliver = LrsController._redeliver_entry
    dropped = weakref.WeakSet()

    def drop_first(controller, entry):
        if controller in dropped:
            redeliver(controller, entry)
        else:
            dropped.add(controller)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LrsController, "_redeliver_entry", drop_first)
        yield patch
