"""Integration tests for the swarm simulation harness."""

import pytest

from repro import profiles
from repro.core.exceptions import RuntimeStateError, SimulationError
from repro.core.faults import JOIN, FaultEvent, FaultSchedule
from repro.core.multitenant import TenantSpec
from repro.simulation import scenarios
from repro.simulation.metrics import (DROP_CONN_OVERFLOW, DROP_DEVICE_LEFT,
                                      DROP_LINK_DOWN, DROP_SOURCE_QUEUE)
from repro.simulation.network import RSSI_GOOD, RSSI_POOR
from repro.simulation.swarm import (SwarmConfig, SwarmSimulation,
                                    UNBOUNDED_QUEUE, run_swarm)
from repro.simulation.workload import face_workload


def small_config(**overrides):
    defaults = dict(
        workload=face_workload(),
        workers=profiles.worker_profiles(["G", "H", "I"]),
        source=profiles.device_profile("A"),
        policy="LRS",
        duration=10.0,
        seed=1,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


class TestConfigValidation:
    def test_duration_positive(self):
        with pytest.raises(SimulationError):
            small_config(duration=0.0).validate()

    def test_needs_workers(self):
        with pytest.raises(SimulationError):
            small_config(workers={}).validate()

    def test_join_conflicts_with_initial(self):
        config = small_config(schedule=FaultSchedule(events=(
            FaultEvent(1.0, JOIN, "G"),)))
        with pytest.raises(RuntimeStateError):
            config.validate()

    def test_window_frames_at_least_two(self):
        config = small_config(socket_window_bytes=100)
        assert config.window_frames() == 2

    def test_window_frames_from_bytes(self):
        config = small_config(socket_window_bytes=30_000)
        assert config.window_frames() == 5  # 6 kB frames

    def test_source_queue_default_two_seconds(self):
        assert small_config().resolved_source_queue() == 48

    def test_source_queue_unbounded(self):
        config = small_config(source_queue_frames=UNBOUNDED_QUEUE)
        assert config.resolved_source_queue() is None

    def test_source_queue_negative_rejected(self):
        with pytest.raises(SimulationError):
            small_config(source_queue_frames=-1).resolved_source_queue()

    def test_source_queue_is_what_the_engine_sizes_egress_with(self):
        # Per tenant: two seconds of that tenant's own input rate.
        config = small_config(tenants=(
            TenantSpec(tenant_id="t0", input_rate=6.0),
            TenantSpec(tenant_id="t1")))
        swarm = SwarmSimulation(config)
        capacities = {tenant: state.egress.capacity
                      for tenant, state in swarm._states.items()}
        assert capacities == {"t0": 12,
                              "t1": config.resolved_source_queue()}


class TestBasicOperation:
    def test_fast_trio_meets_24fps(self):
        result = run_swarm(small_config())
        assert result.throughput >= 22.0
        assert result.meets_input_rate()

    def test_frames_conserved(self):
        result = run_swarm(small_config())
        metrics = result.metrics
        completed = len(metrics.completed_frames())
        in_flight = metrics.generated - completed - metrics.loss_count()
        assert in_flight >= 0
        # Bounded by the queues: source egress + per-connection windows.
        assert in_flight < 48 + 3 * 12

    def test_latency_stats_present(self):
        result = run_swarm(small_config())
        assert result.latency is not None
        assert result.latency.minimum > 0.0
        assert result.latency.mean < 2.0

    def test_decisions_recorded_every_interval(self):
        result = run_swarm(small_config(duration=5.0))
        assert len(result.decisions) == 5

    def test_energy_reported_for_all_workers(self):
        result = run_swarm(small_config())
        assert set(result.energy.per_device) == {"G", "H", "I"}
        assert result.energy.aggregate_w > 0

    def test_reproducible_with_same_seed(self):
        first = run_swarm(small_config(seed=5))
        second = run_swarm(small_config(seed=5))
        assert first.throughput == second.throughput
        assert first.latency.mean == second.latency.mean

    def test_different_seeds_differ(self):
        first = run_swarm(small_config(seed=5))
        second = run_swarm(small_config(seed=6))
        assert first.latency.mean != second.latency.mean


class TestOverload:
    def test_single_slow_device_sheds_load(self):
        config = small_config(workers=profiles.worker_profiles(["E"]),
                              policy="RR", duration=10.0)
        result = run_swarm(config)
        # E can do ~2 FPS of the offered 24: most frames must drop.
        assert result.throughput < 4.0
        assert result.frames_lost > 100

    def test_unbounded_queue_has_no_source_drops(self):
        config = small_config(workers=profiles.worker_profiles(["E"]),
                              policy="RR",
                              source_queue_frames=UNBOUNDED_QUEUE,
                              socket_window_bytes=1 << 30,
                              duration=5.0)
        result = run_swarm(config)
        assert result.metrics.dropped.get(DROP_SOURCE_QUEUE, 0) == 0
        assert result.metrics.dropped.get(DROP_CONN_OVERFLOW, 0) == 0

    def test_delay_builds_up_when_overloaded(self):
        config = small_config(workers=profiles.worker_profiles(["E"]),
                              policy="RR",
                              source_queue_frames=UNBOUNDED_QUEUE,
                              socket_window_bytes=1 << 30,
                              duration=5.0)
        result = run_swarm(config)
        completed = result.metrics.completed_frames()
        delays = [record.total_delay for record in completed]
        # Fig. 1 behaviour: later frames wait behind a growing queue.
        assert delays[-1] > delays[0] * 3


class TestWeakSignal:
    def test_poor_signal_worker_has_higher_latency(self):
        config = small_config(workers=profiles.worker_profiles(["B", "H"]),
                              rssi={"B": RSSI_POOR, "H": RSSI_GOOD},
                              policy="RR", duration=10.0)
        result = run_swarm(config)
        frames = result.metrics.completed_frames()
        by_device = {}
        for record in frames:
            if record.tx_started_at is None:
                continue
            # Post-dispatch delay isolates the per-connection effect from
            # the shared source queue both devices' frames wait in.
            by_device.setdefault(record.device_id, []).append(
                record.sink_arrived_at - record.tx_started_at)
        mean = lambda values: sum(values) / len(values)
        assert mean(by_device["B"]) > 2 * mean(by_device["H"])

    def test_lrs_avoids_poor_signal_worker(self):
        config = small_config(
            workers=profiles.worker_profiles(["B", "G", "H", "I"]),
            rssi={"B": RSSI_POOR}, policy="LRS", duration=15.0)
        result = run_swarm(config)
        rates = result.input_rates()
        assert rates["B"] < rates["H"] / 2


class TestDynamics:
    def test_join_increases_throughput(self):
        config = scenarios.joining(duration=24.0, join_time=12.0, seed=2)
        result = run_swarm(config)
        series = result.throughput_series()
        before = sum(series[6:12]) / 6
        after = sum(series[18:24]) / 6
        assert after > before + 2.0

    def test_join_reaches_target_rate(self):
        config = scenarios.joining(duration=30.0, join_time=10.0, seed=2)
        result = run_swarm(config)
        series = result.throughput_series()
        assert max(series[12:]) >= 22.0

    def test_leave_loses_some_frames_then_recovers(self):
        config = scenarios.leaving(duration=30.0, leave_time=15.0, seed=3)
        result = run_swarm(config)
        lost = (result.metrics.dropped.get(DROP_DEVICE_LEFT, 0)
                + result.metrics.dropped.get(DROP_LINK_DOWN, 0))
        assert 1 <= lost <= 40  # paper: 13 frames lost
        series = result.throughput_series()
        # Recovers to what B+H can still sustain.
        assert sum(series[20:28]) / 8 >= 12.0

    def test_leaver_gets_no_traffic_after_detection(self):
        config = scenarios.leaving(duration=30.0, leave_time=10.0, seed=3)
        result = run_swarm(config)
        per_device = result.metrics.per_device_throughput_series(30.0)
        assert sum(per_device["G"][12:]) == 0.0

    def test_mobility_shifts_load_away_from_mover(self):
        config = scenarios.moving(duration=90.0, dwell=30.0, seed=4)
        result = run_swarm(config)
        per_device = result.metrics.per_device_throughput_series(90.0)
        g_early = sum(per_device["G"][5:25]) / 20
        g_late = sum(per_device["G"][65:85]) / 20
        assert g_late < g_early / 2

    def test_mobility_overall_throughput_recovers(self):
        config = scenarios.moving(duration=90.0, dwell=30.0, seed=4)
        result = run_swarm(config)
        series = result.throughput_series()
        late = sum(series[75:88]) / 13
        # B+H sustain most of the load once LRS routes around G.
        assert late >= 15.0


class TestReordering:
    def test_playback_monotonic(self):
        result = run_swarm(small_config())
        assert result.reorder.is_monotonic()

    def test_most_frames_played(self):
        result = run_swarm(small_config())
        played = len(result.reorder.playback)
        completed = len(result.metrics.completed_frames())
        assert played >= completed * 0.95
