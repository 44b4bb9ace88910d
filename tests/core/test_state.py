"""Partitioned operator state: stores, primitives, snapshot codec."""

import pytest

from repro.core.exceptions import RuntimeStateError, SerializationError
from repro.core.keyed import KEY_SPACE, KeyRange, hash_key
from repro.core.state import (STATE_SNAPSHOT_VERSION, InMemoryStateStore,
                              SessionTracker, StateSnapshot, WindowAggregator,
                              decode_state_snapshot, encode_state_snapshot,
                              snapshot_range)
from repro.runtime.serialization import encode_value


class TestInMemoryStateStore:
    def test_load_store_delete(self):
        store = InMemoryStateStore()
        assert store.load("k") is None
        store.store("k", {"n": 1})
        assert store.load("k") == {"n": 1}
        store.delete("k")
        assert store.load("k") is None
        assert len(store) == 0

    def test_extract_range_removes_matching_keys(self):
        store = InMemoryStateStore()
        keys = ["user-%d" % i for i in range(32)]
        for key in keys:
            store.store(key, {"k": key})
        half = KeyRange(0, KEY_SPACE // 2)
        moved = dict(store.extract_range(half))
        # the store partitions exactly: moved ∪ remaining == original
        assert all(half.contains(hash_key(k)) for k in moved)
        assert all(not half.contains(hash_key(k)) for k in store.keys())
        assert len(moved) + len(store) == len(keys)

    def test_install_rejects_collision(self):
        store = InMemoryStateStore()
        store.store("k", {"n": 1})
        with pytest.raises(RuntimeStateError):
            store.install([("k", {"n": 2})])

    def test_install_is_all_or_nothing(self):
        store = InMemoryStateStore()
        store.store("k", {"n": 1})
        with pytest.raises(RuntimeStateError):
            store.install([("fresh", {"n": 2}), ("k", {"n": 3})])
        # the collision on the second entry kept the first one out too
        assert store.keys() == ("k",)
        assert store.load("k") == {"n": 1}


class TestWindowAggregator:
    def test_window_closes_on_boundary(self):
        aggregator = WindowAggregator(InMemoryStateStore(), window=1.0)
        assert aggregator.observe("u", 2.0, 0.1) is None
        assert aggregator.observe("u", 4.0, 0.9) is None
        closed = aggregator.observe("u", 7.0, 1.1)  # crosses the boundary
        assert closed is not None
        assert closed.count == 2 and closed.total == 6.0
        assert closed.mean == 3.0
        assert closed.minimum == 2.0 and closed.maximum == 4.0
        assert closed.window_start == 0.0

    def test_keys_are_independent(self):
        aggregator = WindowAggregator(InMemoryStateStore(), window=1.0)
        aggregator.observe("a", 1.0, 0.5)
        assert aggregator.observe("b", 1.0, 1.5) is None  # b's first window

    def test_flush_closes_open_window(self):
        aggregator = WindowAggregator(InMemoryStateStore(), window=1.0)
        aggregator.observe("u", 5.0, 0.5)
        closed = aggregator.flush("u")
        assert closed is not None and closed.count == 1
        assert aggregator.flush("u") is None

    def test_state_survives_store_migration(self):
        # The working window lives in the store, so moving the store's
        # entries moves the in-progress aggregation with them.
        source, target = InMemoryStateStore(), InMemoryStateStore()
        WindowAggregator(source, window=1.0).observe("u", 5.0, 0.5)
        target.install(source.extract_range(KeyRange(0, KEY_SPACE)))
        closed = WindowAggregator(target, window=1.0).observe("u", 1.0, 1.5)
        assert closed is not None and closed.count == 1 and closed.total == 5.0

    def test_rejects_bad_window(self):
        with pytest.raises(RuntimeStateError):
            WindowAggregator(InMemoryStateStore(), window=0.0)


class TestSessionTracker:
    def test_gap_closes_session(self):
        tracker = SessionTracker(InMemoryStateStore(), timeout=1.0)
        assert tracker.observe("u", 0.0) is None
        assert tracker.observe("u", 0.5) is None
        closed = tracker.observe("u", 2.0)  # gap > timeout
        assert closed is not None
        assert closed.events == 2 and closed.duration == 0.5

    def test_flush(self):
        tracker = SessionTracker(InMemoryStateStore(), timeout=1.0)
        tracker.observe("u", 0.0)
        closed = tracker.flush("u")
        assert closed is not None and closed.events == 1
        assert tracker.flush("u") is None

    def test_rejects_bad_timeout(self):
        with pytest.raises(RuntimeStateError):
            SessionTracker(InMemoryStateStore(), timeout=0.0)


class TestSnapshotCodec:
    def _snapshot(self):
        store = InMemoryStateStore()
        for i in range(8):
            store.store("user-%d" % i, {"count": i, "total": float(i)})
        return snapshot_range(store, "", "aggregate", KeyRange(0, KEY_SPACE))

    def test_round_trip(self):
        snapshot = self._snapshot()
        decoded = decode_state_snapshot(encode_state_snapshot(snapshot))
        assert decoded.unit == "aggregate" and decoded.tenant == ""
        assert decoded.key_range == snapshot.key_range
        assert dict(decoded.entries) == dict(snapshot.entries)

    def test_install_round_trip(self):
        snapshot = self._snapshot()
        target = InMemoryStateStore()
        target.install(
            decode_state_snapshot(encode_state_snapshot(snapshot)).entries)
        assert len(target) == len(snapshot.entries)

    def test_foreign_version_rejected(self):
        frame = encode_value({"version": STATE_SNAPSHOT_VERSION + 1,
                              "unit": "u", "lo": 0, "hi": 16, "entries": []})
        with pytest.raises(SerializationError, match="version"):
            decode_state_snapshot(frame)

    def test_unknown_field_rejected(self):
        frame = encode_value({"version": STATE_SNAPSHOT_VERSION, "unit": "u",
                              "lo": 0, "hi": 16, "entries": [],
                              "surprise": 1})
        with pytest.raises(SerializationError, match="version skew"):
            decode_state_snapshot(frame)

    def test_entry_outside_range_rejected(self):
        # A frame claiming range R but carrying a key hashing outside R
        # would corrupt the target's routing invariant — strict decode
        # catches it before install.
        store = InMemoryStateStore()
        store.store("user-1", {"n": 1})
        h = hash_key("user-1")
        bad_range = (KeyRange(0, 2) if h >= 2
                     else KeyRange(KEY_SPACE // 2, KEY_SPACE))
        frame = encode_value({"version": STATE_SNAPSHOT_VERSION, "unit": "u",
                              "tenant": "", "lo": bad_range.lo,
                              "hi": bad_range.hi,
                              "entries": [["user-1", {"n": 1}]]})
        with pytest.raises(SerializationError, match="outside range"):
            decode_state_snapshot(frame)

    def test_malformed_range_rejected(self):
        frame = encode_value({"version": STATE_SNAPSHOT_VERSION, "unit": "u",
                              "lo": 16, "hi": 0, "entries": []})
        with pytest.raises(SerializationError, match="malformed"):
            decode_state_snapshot(frame)

    def test_empty_unit_rejected(self):
        frame = encode_value({"version": STATE_SNAPSHOT_VERSION, "unit": "",
                              "lo": 0, "hi": 16, "entries": []})
        with pytest.raises(SerializationError):
            decode_state_snapshot(frame)

    def test_non_mapping_rejected(self):
        with pytest.raises(SerializationError):
            decode_state_snapshot(encode_value([1, 2, 3]))


class TestExtractInstallMoveSemantics:
    def test_entries_leave_the_source(self):
        store = InMemoryStateStore()
        store.store("user-3", {"n": 3})
        snapshot = snapshot_range(store, "", "u", KeyRange(0, KEY_SPACE))
        assert len(store) == 0  # moved, not copied
        assert snapshot.entries == (("user-3", {"n": 3}),)
