"""Tests for control-plane crash recovery: checkpoints, stores, manager."""

import os
import threading

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError, SerializationError
from repro.core.recovery import (CheckpointManager, ControlPlaneCheckpoint,
                                 FileCheckpointStore, InMemoryCheckpointStore,
                                 RecoveryConfig, RetainedEntry, SessionState,
                                 load_checkpoint, retention_entries)
from repro.runtime.serialization import encode_value


def sample_checkpoint() -> ControlPlaneCheckpoint:
    return ControlPlaneCheckpoint(
        epoch=3,
        workers=("B", "G", "H"),
        sessions=(
            SessionState(tenant="", started=True,
                         assignments=(("detect", ("B", "G")),
                                      ("sink", ("A",)))),
            SessionState(tenant="t1", started=False,
                         assignments=(("detect", ("H",)),)),
        ),
        retention=(
            ("A>detect", (
                RetainedEntry(seq=7, attempt=2, deadline=12.5,
                              frame=b"\x01\x02\x03"),
                RetainedEntry(seq=9, attempt=1, deadline=None,
                              frame=b"batchframe", seqs=(9, 10, 11)),
            )),
        ),
        dedup=(("sink", 5), ("sink", 6), ("sink", 7)),
    )


class TestRecoveryConfig:
    def test_defaults_are_valid(self):
        RecoveryConfig()

    @pytest.mark.parametrize("kwargs", [
        {"checkpoint_interval": -1.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(RuntimeStateError):
            RecoveryConfig(**kwargs)

    def test_frozen(self):
        config = RecoveryConfig()
        with pytest.raises(Exception):
            config.checkpoint_interval = 9.0


class TestCheckpointCodec:
    def test_round_trip(self):
        checkpoint = sample_checkpoint()
        assert ControlPlaneCheckpoint.decode(checkpoint.encode()) \
            == checkpoint

    def test_empty_round_trip(self):
        checkpoint = ControlPlaneCheckpoint()
        assert ControlPlaneCheckpoint.decode(checkpoint.encode()) \
            == checkpoint

    def test_foreign_version_rejected(self):
        payload = encode_value({"version": 2, "epoch": 0})
        with pytest.raises(SerializationError, match="version"):
            ControlPlaneCheckpoint.decode(payload)

    def test_unknown_top_level_field_rejected_loudly(self):
        # A future master may add fields this build cannot honor;
        # silently dropping them would break the delivery guarantee.
        payload = encode_value({"version": 1, "epoch": 0,
                                "quorum": ["A", "B"]})
        with pytest.raises(SerializationError, match="quorum"):
            ControlPlaneCheckpoint.decode(payload)

    def test_unknown_session_field_rejected(self):
        payload = encode_value({
            "version": 1,
            "sessions": [{"tenant": "", "started": True,
                          "assignments": {}, "leases": []}]})
        with pytest.raises(SerializationError, match="leases"):
            ControlPlaneCheckpoint.decode(payload)

    def test_unknown_entry_field_rejected(self):
        payload = encode_value({
            "version": 1,
            "retention": {"A>detect": [
                {"seq": 1, "frame": b"x", "priority": 9}]}})
        with pytest.raises(SerializationError, match="priority"):
            ControlPlaneCheckpoint.decode(payload)

    def test_non_mapping_rejected(self):
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(encode_value([1, 2, 3]))

    def test_negative_epoch_rejected(self):
        payload = encode_value({"version": 1, "epoch": -1})
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(payload)

    def test_empty_worker_id_rejected(self):
        payload = encode_value({"version": 1, "workers": ["B", ""]})
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(payload)

    def test_garbage_rejected(self):
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(b"not a checkpoint")


class TestCheckpointKeyRanges:
    def test_round_trip(self):
        checkpoint = ControlPlaneCheckpoint(
            epoch=1, workers=("B", "C"),
            key_ranges=(("sensor>aggregate",
                         ((0, 32768, "aggregate@B"),
                          (32768, 65536, "aggregate@C"))),))
        assert ControlPlaneCheckpoint.decode(checkpoint.encode()) \
            == checkpoint

    def test_absent_at_default_stays_byte_identical(self):
        # A deployment with no keyed edges must write exactly the bytes
        # a pre-keyed build wrote, so rolling upgrades can exchange
        # checkpoints in both directions on the stateless path.
        checkpoint = sample_checkpoint()
        assert checkpoint.key_ranges == ()
        frame = checkpoint.encode()
        assert b"key_ranges" not in frame
        legacy = encode_value({
            "version": 1,
            "epoch": checkpoint.epoch,
            "workers": list(checkpoint.workers),
            "sessions": [{
                "tenant": session.tenant,
                "started": session.started,
                "assignments": {unit: list(hosts)
                                for unit, hosts in session.assignments},
            } for session in checkpoint.sessions],
            "retention": {edge: [{
                "seq": entry.seq,
                "attempt": entry.attempt,
                "deadline": entry.deadline,
                "frame": entry.frame,
                "seqs": list(entry.seqs),
            } for entry in entries]
                for edge, entries in checkpoint.retention},
            "dedup": [[edge, seq] for edge, seq in checkpoint.dedup],
        })
        assert frame == legacy

    def test_malformed_range_entries_rejected(self):
        payload = encode_value({
            "version": 1,
            "key_ranges": {"sensor>aggregate": [[0, "oops", "B"]]}})
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(payload)

    def test_truncated_range_triple_rejected(self):
        payload = encode_value({
            "version": 1, "key_ranges": {"sensor>aggregate": [[0, 100]]}})
        with pytest.raises(SerializationError):
            ControlPlaneCheckpoint.decode(payload)

    def test_version_skew_still_rejected_with_ranges(self):
        payload = encode_value({
            "version": 2,
            "key_ranges": {"sensor>aggregate": [[0, 100, "B"]]}})
        with pytest.raises(SerializationError, match="version"):
            ControlPlaneCheckpoint.decode(payload)


class TestStores:
    def test_in_memory_latest_wins(self):
        store = InMemoryCheckpointStore()
        assert store.load() is None
        store.save(b"one")
        store.save(b"two")
        assert store.load() == b"two"
        assert store.writes == 2

    def test_file_store_round_trip(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path / "swing.ckpt"))
        assert store.load() is None
        store.save(b"payload")
        assert store.load() == b"payload"
        # The temp file must not linger after the atomic publish.
        assert not os.path.exists(store.path + ".tmp")

    def test_file_store_overwrites_atomically(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path / "swing.ckpt"))
        store.save(b"old")
        store.save(b"new")
        assert store.load() == b"new"

    def test_load_checkpoint_helper(self, tmp_path):
        store = FileCheckpointStore(str(tmp_path / "swing.ckpt"))
        assert load_checkpoint(store) is None
        checkpoint = sample_checkpoint()
        store.save(checkpoint.encode())
        assert load_checkpoint(store) == checkpoint


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestCheckpointManager:
    def make(self, **kwargs):
        clock = FakeClock()
        store = InMemoryCheckpointStore()
        registry = metrics_mod.MetricsRegistry()
        manager = CheckpointManager(sample_checkpoint, store,
                                    config=RecoveryConfig(**kwargs),
                                    registry=registry, clock=clock)
        return manager, store, clock, registry

    def test_write_persists_and_loads(self):
        manager, store, _clock, _registry = self.make()
        manager.write()
        assert store.writes == 1
        assert manager.load() == sample_checkpoint()

    def test_periodic_cadence(self):
        manager, store, clock, _registry = self.make(checkpoint_interval=1.0)
        assert manager.maybe_checkpoint() is True  # first call writes
        assert manager.maybe_checkpoint() is False  # too soon
        clock.advance(0.5)
        assert manager.maybe_checkpoint() is False
        clock.advance(0.6)
        assert manager.maybe_checkpoint() is True
        assert store.writes == 2

    def test_interval_zero_disables_periodic(self):
        manager, store, clock, _registry = self.make(checkpoint_interval=0.0)
        clock.advance(100.0)
        assert manager.maybe_checkpoint() is False
        assert store.writes == 0

    def test_mutation_writes_when_configured(self):
        # On-mutation writes are always on.
        manager, store, _clock, _registry = self.make()
        manager.mutation()
        assert store.writes == 1

    def test_age_gauge_exported(self):
        manager, _store, clock, registry = self.make()
        assert manager.age() is None
        manager.write()
        clock.advance(2.5)
        manager.maybe_checkpoint()  # writes again (interval elapsed)
        assert manager.age() == 0.0
        clock.advance(0.4)
        manager.maybe_checkpoint()  # refreshes the gauge without writing
        assert registry.gauge_value(metrics_mod.CHECKPOINT_AGE_SECONDS) == \
            pytest.approx(0.4)

    def test_concurrent_writes_stay_coherent(self):
        manager, store, _clock, _registry = self.make()
        threads = [threading.Thread(target=manager.write)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.writes == 8
        assert manager.load() == sample_checkpoint()


class TestRetentionEntries:
    class FakeBatch:
        def __init__(self, frame):
            self.frame = frame

    def test_bytes_and_batch_contexts_survive(self):
        exported = [
            (1, 1, 2.0, b"plain", ()),
            (2, 3, None, self.FakeBatch(b"batch"), (2, 3, 4)),
        ]
        entries = retention_entries(exported)
        assert entries == (
            RetainedEntry(seq=1, attempt=1, deadline=2.0, frame=b"plain"),
            RetainedEntry(seq=2, attempt=3, deadline=None, frame=b"batch",
                          seqs=(2, 3, 4)),
        )

    def test_opaque_contexts_skipped(self):
        # Simulator contexts are engine objects, not wire bytes; the
        # simulator mirrors recovery itself, so they never checkpoint.
        entries = retention_entries([(1, 1, None, object(), ())])
        assert entries == ()
