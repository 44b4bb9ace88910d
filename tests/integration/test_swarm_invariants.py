"""Property-based invariants of the swarm simulation.

Whatever the configuration — policy, device mix, signal map, rate —
certain things must always hold: frames are conserved, playback is
monotonic, nobody processes more than time allows, energy is positive
and bounded, and per-device accounting sums to the system totals.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import profiles
from repro.core.controller import PolicyConfig
from repro.core.policies import POLICY_NAMES
from repro.simulation.network import RSSI_FAIR, RSSI_GOOD, RSSI_POOR
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import face_workload

DEVICE_POOL = ["B", "C", "E", "G", "H", "I"]

config_strategy = st.builds(
    dict,
    policy=st.sampled_from(POLICY_NAMES),
    worker_ids=st.lists(st.sampled_from(DEVICE_POOL), min_size=1,
                        max_size=4, unique=True),
    rssi_level=st.sampled_from([RSSI_GOOD, RSSI_FAIR, RSSI_POOR]),
    input_rate=st.floats(min_value=2.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=50),
)


def build_config(params):
    worker_ids = params["worker_ids"]
    rssi = {worker_ids[0]: params["rssi_level"]}  # first device varies
    return SwarmConfig(
        workload=face_workload(input_rate=params["input_rate"]),
        workers=profiles.worker_profiles(worker_ids),
        source=profiles.device_profile("A"),
        policy_config=PolicyConfig(policy=params["policy"]),
        duration=6.0,
        seed=params["seed"],
        rssi=rssi,
    )


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=config_strategy)
# 14 frames released before t = 6 s, all completed: 2.333/s, above a 5 %
# margin over the rate (2.330/s) but within the timetable's ceil bound
@example(params=dict(policy="RR", worker_ids=["H"], rssi_level=RSSI_GOOD,
                     input_rate=2.21875, seed=0))
@example(params=dict(policy="LRS", worker_ids=["H"], rssi_level=RSSI_GOOD,
                     input_rate=2.21875, seed=0))
def test_swarm_invariants(params):
    config = build_config(params)
    result = run_swarm(config)
    metrics = result.metrics
    duration = config.duration

    completed = len(metrics.completed_frames())
    lost = metrics.loss_count()
    # Conservation: completed + lost + in-flight == generated.
    in_flight = metrics.generated - completed - lost
    assert in_flight >= 0
    assert completed + lost <= metrics.generated

    # Throughput is bounded by the offered rate: the deterministic
    # timetable releases frames at t = 0, 1/rate, 2/rate, ..., so no
    # more than ceil(rate * duration) exist before the run ends.
    assert completed <= math.ceil(config.workload.input_rate * duration)

    # Playback through the reorder buffer is strictly monotonic.
    assert result.reorder.is_monotonic()

    # Nobody computes more than wall-clock allows (one in-progress
    # service time of slack: busy time is committed at service start).
    for device_id, counters in metrics.devices.items():
        assert counters.busy_time <= duration + 1.5
        assert counters.frames_completed <= counters.frames_received

    # Per-device receive counts sum to at least the completions.
    received = sum(counters.frames_received
                   for counters in metrics.devices.values())
    assert received >= completed

    # Latency statistics are sane when present.
    if result.latency is not None:
        assert 0.0 < result.latency.minimum <= result.latency.mean \
            <= result.latency.maximum
        assert result.latency.variance >= 0.0

    # Energy accounting: non-negative, bounded by every device at peak.
    assert result.energy.aggregate_w >= 0.0
    peak = sum(profile.power.peak_cpu_w + profile.power.peak_wifi_w
               for profile in config.workers.values())
    assert result.energy.aggregate_w <= peak + 1e-9
