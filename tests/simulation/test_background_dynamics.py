"""Tests for run-time background-load changes (paper Sec. III dynamism).

"the performance of the real-time sensing apps might be affected by ...
changes in applications running in the devices (captured by variations
in CPU usage)" — Swing must "steer frames to accommodate the reduced
computing capability when processor usage changes".
"""

import pytest

from repro import profiles
from repro.core.exceptions import RuntimeStateError
from repro.core.faults import LOAD_BURST, FaultEvent, FaultSchedule
from repro.simulation.swarm import (SwarmConfig, SwarmSimulation,
                                    run_swarm)
from repro.simulation.workload import face_workload


def burst(device_id, load, start, end):
    """Another app runs on *device_id* from *start* to *end*."""
    return FaultSchedule(events=(FaultEvent(
        start, LOAD_BURST, device_id, duration=end - start, value=load),))


def config_with_event(policy="LRS", load=0.9, at=15.0, duration=30.0):
    return SwarmConfig(
        workload=face_workload(),
        workers=profiles.worker_profiles(["G", "H", "I"]),
        source=profiles.device_profile("A"),
        policy=policy,
        duration=duration,
        seed=2,
        schedule=burst("H", load, at, duration),
    )


class TestLoadBursts:
    def test_loaded_device_slows_down(self):
        result = run_swarm(config_with_event(policy="RR"))
        per_device = result.metrics.per_device_throughput_series(30.0)
        before = sum(per_device["H"][5:14]) / 9
        after = sum(per_device["H"][20:29]) / 9
        # H keeps receiving an equal share under RR, but completes less.
        assert after < before

    def test_lrs_steers_frames_away_from_loaded_device(self):
        result = run_swarm(config_with_event(policy="LRS"))
        rates_series = result.metrics.per_device_throughput_series(30.0)
        h_before = sum(rates_series["H"][5:14]) / 9
        h_after = sum(rates_series["H"][20:29]) / 9
        g_before = sum(rates_series["G"][5:14]) / 9
        g_after = sum(rates_series["G"][20:29]) / 9
        assert h_after < h_before * 0.75   # H sheds load
        assert g_after > g_before          # G absorbs it

    def test_overall_throughput_recovers_under_lrs(self):
        result = run_swarm(config_with_event(policy="LRS", duration=40.0))
        series = result.throughput_series()
        late = sum(series[30:39]) / 9
        assert late >= 18.0

    def test_load_can_be_lifted_again(self):
        config = config_with_event(policy="LRS", duration=40.0)
        # The window's end restores H's configured (zero) load.
        config.schedule = burst("H", 0.9, 10.0, 25.0)
        result = run_swarm(config)
        per_device = result.metrics.per_device_throughput_series(40.0)
        loaded = sum(per_device["H"][15:24]) / 9
        recovered = sum(per_device["H"][32:39]) / 7
        assert recovered > loaded

    def test_event_for_unknown_device_rejected(self):
        # A burst on a device that is never a member used to be dropped
        # silently; the schedule's validation now refuses it up front.
        config = config_with_event()
        config.schedule = burst("Z", 0.5, 5.0, 30.0)
        with pytest.raises(RuntimeStateError):
            run_swarm(config)

    def test_burst_end_restores_the_configured_load(self):
        # ... not 0.0: a device that was already busy stays busy.
        config = config_with_event()
        config.background_load = {"H": 0.6}
        config.schedule = burst("H", 0.9, 5.0, 15.0)
        swarm = SwarmSimulation(config)
        swarm.sim.run(10.0)
        assert swarm.nodes["H"].cpu.background_load == 0.9
        swarm.sim.run(20.0)
        assert swarm.nodes["H"].cpu.background_load == 0.6
