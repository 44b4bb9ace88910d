"""Unit tests for the delivery-semantics building blocks."""

import pytest

from repro import metrics as metrics_mod
from repro.core.delivery import (AT_LEAST_ONCE, BEST_EFFORT, DedupWindow,
                                 DeliveryConfig, EVICT_BYTES, EVICT_CAPACITY,
                                 EVICT_EXPIRED, EVICT_SHED, ReplayBuffer)
from repro.core.exceptions import RuntimeStateError


def make_buffer(**kwargs):
    registry = metrics_mod.MetricsRegistry()
    defaults = dict(mode=AT_LEAST_ONCE)
    defaults.update(kwargs)
    config = DeliveryConfig(**defaults)
    return ReplayBuffer(config, registry, name="edge"), registry


def evictions(registry):
    return registry.values_by_label(metrics_mod.REPLAY_EVICTED_TOTAL,
                                    "reason")


class TestDeliveryConfig:
    def test_defaults_are_best_effort(self):
        config = DeliveryConfig()
        assert config.mode == BEST_EFFORT
        assert not config.at_least_once

    def test_at_least_once_flag(self):
        assert DeliveryConfig(mode=AT_LEAST_ONCE).at_least_once

    @pytest.mark.parametrize("kwargs", [
        {"mode": "exactly_once"},
        {"replay_capacity": 0},
        {"replay_bytes": 0},
        {"max_delivery_attempts": 0},
        {"redelivery_timeout": 0.0},
        {"dedup_window": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(RuntimeStateError):
            DeliveryConfig(**kwargs)


class TestReplayBuffer:
    def test_retain_release_roundtrip(self):
        buffer, registry = make_buffer()
        buffer.retain(1, "B", b"xxxx", now=0.0)
        assert buffer.holds(1)
        assert buffer.total_bytes == 4
        assert buffer.release(1)
        assert not buffer.holds(1)
        assert buffer.total_bytes == 0
        assert not buffer.release(1)  # double release is a no-op
        assert evictions(registry) == {}  # releases are not evictions

    def test_count_bound_evicts_oldest(self):
        buffer, registry = make_buffer(replay_capacity=3)
        for seq in range(5):
            buffer.retain(seq, "B", b"", now=float(seq))
        assert len(buffer) == 3
        assert not buffer.holds(0) and not buffer.holds(1)
        assert buffer.holds(4)
        assert evictions(registry) == {EVICT_CAPACITY: 2}

    def test_byte_bound_evicts_but_keeps_newest(self):
        buffer, registry = make_buffer(replay_capacity=100, replay_bytes=10)
        buffer.retain(1, "B", b"x" * 8, now=0.0)
        buffer.retain(2, "B", b"x" * 8, now=1.0)  # 16 bytes > 10: evict 1
        assert not buffer.holds(1)
        assert buffer.holds(2)
        assert evictions(registry) == {EVICT_BYTES: 1}
        # An oversized single entry is still retained (>= 1 entry kept).
        buffer.retain(3, "B", b"x" * 50, now=2.0)
        assert buffer.holds(3)

    def test_expired_entries_evicted_first(self):
        buffer, registry = make_buffer(replay_capacity=2)
        buffer.retain(1, "B", b"", now=0.0, deadline=0.5)   # expired by t=2
        buffer.retain(2, "B", b"", now=1.0)                 # older than 3...
        buffer.retain(3, "B", b"", now=2.0)
        # ...but the expired entry 1 goes first, not the oldest live one.
        assert not buffer.holds(1)
        assert buffer.holds(2) and buffer.holds(3)
        assert evictions(registry) == {EVICT_EXPIRED: 1}

    def test_explicit_evict_counts_reason(self):
        buffer, registry = make_buffer()
        buffer.retain(7, "B", b"abc", now=0.0)
        assert buffer.evict(7, EVICT_SHED)
        assert not buffer.evict(7, EVICT_SHED)
        assert evictions(registry) == {EVICT_SHED: 1}
        assert buffer.total_bytes == 0

    def test_take_for_pops_only_that_downstream(self):
        buffer, _ = make_buffer()
        buffer.retain(1, "B", b"", now=0.0)
        buffer.retain(2, "C", b"", now=0.0)
        buffer.retain(3, "B", b"", now=0.0)
        taken = buffer.take_for("B")
        assert sorted(entry.seq for entry in taken) == [1, 3]
        assert not buffer.holds(1) and not buffer.holds(3)
        assert buffer.holds(2)

    def test_take_stale_includes_unassigned(self):
        buffer, _ = make_buffer()
        buffer.retain(1, "B", b"", now=0.0)    # stale at cutoff 1.0
        buffer.retain(2, "B", b"", now=5.0)    # fresh
        buffer.retain(3, None, b"", now=5.0)   # unassigned: always stale
        taken = buffer.take_stale(1.0)
        assert sorted(entry.seq for entry in taken) == [1, 3]
        assert buffer.holds(2)

    def test_re_retain_replaces_accounting(self):
        buffer, _ = make_buffer()
        buffer.retain(1, "B", b"x" * 10, now=0.0)
        buffer.retain(1, "C", b"x" * 4, now=1.0, attempt=2)
        assert len(buffer) == 1
        assert buffer.total_bytes == 4
        (entry,) = buffer.take_for("C")
        assert entry.attempt == 2


class TestDedupWindow:
    def test_first_sight_then_duplicate(self):
        window = DedupWindow(capacity=8)
        assert not window.seen(("src", 1))
        assert window.seen(("src", 1))
        assert window.duplicates == 1

    def test_window_bounded_and_forgets_oldest(self):
        window = DedupWindow(capacity=3)
        for seq in range(5):
            assert not window.seen(seq)
        assert len(window) == 3
        # 0 fell out of the window: redelivery would be accepted again —
        # at-least-once, not exactly-once.
        assert not window.seen(0)
        assert window.seen(4)

    def test_capacity_validated(self):
        with pytest.raises(RuntimeStateError):
            DedupWindow(capacity=0)
