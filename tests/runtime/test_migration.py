"""Worker-hosted keyed state and the live range-migration path."""

import time

import pytest

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.exceptions import DeploymentError, RuntimeStateError
from repro.core.keyed import KEY_SPACE, KeyedConfig, KeyRange, hash_key
from repro.apps.sensing import build_sensing_graph
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
from repro.runtime.dispatcher import instance_id
from repro.runtime.migration import migrate_range

HALF = KEY_SPACE // 2


def _keyed_runtime(registry=None, reading_count=400, split_enabled=False):
    graph = build_sensing_graph(reading_count=reading_count, key_count=8,
                                alpha=1.2, window=0.2, seed=7)
    return SwingRuntime(
        graph, worker_ids=["B", "C"], master_id="A", source_rate=200.0,
        registry=registry,
        config=PolicyConfig(
            policy="RR", seed=3, control_interval=CONTROL_INTERVAL,
            delivery=DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=4096,
                                    dedup_window=8192,
                                    max_delivery_attempts=6),
            keyed=KeyedConfig(key_count=8, zipf_alpha=1.2,
                              split_enabled=split_enabled)))


class TestKeyedBootstrap:
    def test_deploy_builds_even_table_over_instances(self):
        runtime = _keyed_runtime(reading_count=4)
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            table = disp.controller.key_table
            assert table is not None
            assert table.snapshot() == (
                (0, HALF, instance_id("aggregate", "B")),
                (HALF, KEY_SPACE, instance_id("aggregate", "C")))
        finally:
            runtime.stop()

    def test_unkeyed_runtime_gets_no_table(self):
        graph = build_sensing_graph(reading_count=4)
        runtime = SwingRuntime(graph, worker_ids=["B", "C"],
                               source_rate=200.0,
                               config=PolicyConfig(
                                   policy="RR", seed=3,
                                   control_interval=CONTROL_INTERVAL))
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            assert disp.controller.key_table is None
        finally:
            runtime.stop()


class TestWorkerKeyState:
    def test_export_import_moves_entries(self):
        runtime = _keyed_runtime()
        runtime.start()
        try:
            worker_b = runtime.workers["B"]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    if len(worker_b.state_store("aggregate")) > 0:
                        break
                except DeploymentError:
                    pass
                time.sleep(0.05)
            store_b = worker_b.state_store("aggregate")
            keys_before = set(store_b.keys())
            assert keys_before, "B accumulated no keyed state"
            frame = worker_b.export_key_state("aggregate", KeyRange(0, HALF))
            moved = runtime.workers["C"].import_key_state(frame)
            assert moved == len(keys_before)  # B owns exactly [0, HALF)
            assert not set(store_b.keys()) & keys_before  # left the source
            store_c = runtime.workers["C"].state_store("aggregate")
            assert keys_before <= set(store_c.keys())
        finally:
            runtime.stop()

    def test_import_for_unhosted_unit_rejected(self):
        runtime = _keyed_runtime(reading_count=4)
        runtime.start()
        try:
            worker_b = runtime.workers["B"]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                try:
                    worker_b.state_store("aggregate")
                    break
                except DeploymentError:
                    time.sleep(0.05)
            frame = worker_b.export_key_state("aggregate",
                                              KeyRange(0, KEY_SPACE))
            # the master hosts sensor + collect, never the aggregate
            with pytest.raises(DeploymentError, match="not.*hosted"):
                runtime.master.runtime.import_key_state(frame)
        finally:
            runtime.stop()

    def test_key_range_checkpoint_round_trip(self):
        runtime = _keyed_runtime(reading_count=4)
        runtime.start()
        try:
            master_runtime = runtime.master.runtime
            exported = master_runtime.export_key_ranges()
            assert "sensor>aggregate" in exported
            entries = exported["sensor>aggregate"]
            # mutate, restore, and confirm the restore wins
            assert master_runtime.import_key_ranges("sensor>aggregate",
                                                    entries)
            table = master_runtime.dispatcher(
                "sensor", "aggregate").controller.key_table
            assert table.snapshot() == tuple(tuple(e) for e in entries)
            assert not master_runtime.import_key_ranges("no>edge", entries)
        finally:
            runtime.stop()


class TestMigrateRange:
    def test_mid_run_migration_keeps_stream_flowing(self):
        registry = metrics_mod.MetricsRegistry()
        runtime = _keyed_runtime(registry=registry)
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            table = disp.controller.key_table
            time.sleep(0.5)
            source_owner = instance_id("aggregate", "B")
            ranges = table.ranges_owned_by(source_owner)
            assert ranges
            moved = migrate_range(
                disp, ranges[0], runtime.workers["B"], runtime.workers["C"],
                instance_id("aggregate", "C"), "aggregate",
                reason="drain", registry=registry)
            assert moved >= 0
            assert table.owner(ranges[0]) == instance_id("aggregate", "C")
            assert not table.is_paused(ranges[0])
            # the stream keeps closing windows after the flip
            sink = runtime.sink_unit()
            before = len(sink.results)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if len(sink.results) > before:
                    break
                time.sleep(0.1)
            assert len(sink.results) > before
            assert registry.value(metrics_mod.KEY_RANGE_MOVES_TOTAL,
                                  reason="drain",
                                  edge="sensor>aggregate") == 1
        finally:
            runtime.stop()

    def test_overlapping_or_misowned_migration_refused(self):
        # The guards the simulator's mirror has had since PR 10: a range
        # that is already migrating, or that *source* does not own, is
        # refused before anything is paused — table untouched.
        runtime = _keyed_runtime(reading_count=4)
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            table = disp.controller.key_table
            b_range = table.ranges_owned_by(instance_id("aggregate", "B"))[0]
            before = table.snapshot()

            def migrate(source_id, target_id):
                return migrate_range(
                    disp, b_range, runtime.workers[source_id],
                    runtime.workers[target_id],
                    instance_id("aggregate", target_id), "aggregate")

            # C does not host the owner (B does).
            with pytest.raises(RuntimeStateError, match="owned by"):
                migrate("C", "B")
            assert table.snapshot() == before
            assert not table.is_paused(b_range)
            # Another migration holds the range: its resume must not be
            # pre-empted, and its pause must survive our refusal.
            disp.controller.pause_range(b_range)
            with pytest.raises(RuntimeStateError, match="already migrating"):
                migrate("B", "C")
            assert table.snapshot() == before
            assert table.is_paused(b_range)
            disp.controller.resume_range(b_range)
            assert migrate("B", "C") >= 0
            assert table.owner(b_range) == instance_id("aggregate", "C")
        finally:
            runtime.stop()

    def test_unhosted_target_loses_no_state(self):
        # The master hosts sensor + collect, never the aggregate: the
        # install cannot happen, and the range's state must stay put.
        runtime = _keyed_runtime()
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            table = disp.controller.key_table
            worker_b = runtime.workers["B"]
            b_range = table.ranges_owned_by(instance_id("aggregate", "B"))[0]
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline \
                    and len(runtime.sink_unit().results) < 5:
                time.sleep(0.05)
            before = table.snapshot()
            with pytest.raises(DeploymentError):
                migrate_range(disp, b_range, worker_b,
                              runtime.master.runtime,
                              instance_id("aggregate", "C"), "aggregate")
            assert table.snapshot() == before
            assert not table.is_paused(b_range)
            store_b = worker_b.state_store("aggregate")
            held = [key for key in store_b.keys()
                    if b_range.contains(hash_key(key))]
            assert held, "B lost its range's state to a failed install"
            assert all(store_b.load(key) is not None for key in held)
        finally:
            runtime.stop()

    def test_source_that_never_goes_quiet_is_not_snapshotted(self):
        runtime = _keyed_runtime(reading_count=40)
        runtime.start()
        try:
            disp = runtime.master.runtime.dispatcher("sensor", "aggregate")
            table = disp.controller.key_table
            worker_b = runtime.workers["B"]
            b_range = table.ranges_owned_by(instance_id("aggregate", "B"))[0]
            worker_b.busy = lambda key_range=None: True
            before = table.snapshot()
            with pytest.raises(RuntimeStateError, match="still busy") \
                    as error:
                migrate_range(disp, b_range, worker_b, runtime.workers["C"],
                              instance_id("aggregate", "C"), "aggregate",
                              quiet=0.05, timeout=0.2)
            assert repr(b_range) in str(error.value)
            assert table.snapshot() == before
            assert not table.is_paused(b_range)
        finally:
            runtime.stop()
