"""Tests for the replication/statistics harness."""

import pytest

from repro import profiles
from repro.core.controller import PolicyConfig
from repro.core.exceptions import SimulationError
from repro.simulation.replication import (MetricSummary, compare_policies,
                                          replicate)
from repro.simulation.swarm import SwarmConfig
from repro.simulation.workload import face_workload


def small_config(policy="LRS"):
    return SwarmConfig(workload=face_workload(),
                       workers=profiles.worker_profiles(["G", "H"]),
                       source=profiles.device_profile("A"),
                       policy_config=PolicyConfig(policy=policy),
                       duration=8.0, seed=0)


class TestMetricSummary:
    def test_mean_and_stddev(self):
        summary = MetricSummary("x", (1.0, 2.0, 3.0))
        assert summary.mean == pytest.approx(2.0)
        assert summary.stddev == pytest.approx(1.0)
        assert summary.count == 3

    def test_single_sample_has_zero_spread(self):
        summary = MetricSummary("x", (5.0,))
        assert summary.stddev == 0.0
        assert summary.ci95_halfwidth == 0.0

    def test_interval_contains_mean(self):
        summary = MetricSummary("x", (1.0, 2.0, 3.0, 4.0))
        low, high = summary.interval()
        assert low <= summary.mean <= high

    def test_ci_shrinks_with_samples(self):
        narrow = MetricSummary("x", tuple([1.0, 2.0] * 8))
        wide = MetricSummary("x", (1.0, 2.0))
        assert narrow.ci95_halfwidth < wide.ci95_halfwidth


class TestReplicate:
    def test_runs_once_per_seed(self):
        replicated = replicate(small_config(), seeds=[0, 1, 2])
        assert len(replicated.results) == 3
        seeds = [result.config.seed for result in replicated.results]
        assert seeds == [0, 1, 2]

    def test_original_config_untouched(self):
        config = small_config()
        replicate(config, seeds=[5])
        assert config.seed == 0

    def test_summaries_available(self):
        replicated = replicate(small_config(), seeds=[0, 1])
        assert replicated.throughput().count == 2
        assert replicated.latency_mean().mean > 0
        assert replicated.aggregate_power().mean > 0
        assert replicated.fps_per_watt().mean > 0

    def test_empty_seeds_rejected(self):
        with pytest.raises(SimulationError):
            replicate(small_config(), seeds=[])

    def test_custom_metric(self):
        replicated = replicate(small_config(), seeds=[0, 1])
        summary = replicated.summarize("lost", lambda r: float(r.frames_lost))
        assert summary.count == 2


class TestComparePolicies:
    def test_one_replicated_result_per_policy(self):
        outcomes = compare_policies(small_config, ["RR", "LRS"], seeds=[0, 1])
        assert set(outcomes) == {"RR", "LRS"}
        assert all(len(rep.results) == 2 for rep in outcomes.values())


class TestWelchT:
    def test_identical_summaries_zero(self):
        a = MetricSummary("x", (1.0, 2.0, 3.0))
        assert a.welch_t(a) == pytest.approx(0.0)

    def test_clearly_separated_means_large_t(self):
        a = MetricSummary("x", (10.0, 10.1, 9.9, 10.0))
        b = MetricSummary("x", (1.0, 1.1, 0.9, 1.0))
        assert a.welch_t(b) > 10.0
        assert b.welch_t(a) < -10.0

    def test_zero_spread_different_means_infinite(self):
        a = MetricSummary("x", (5.0, 5.0))
        b = MetricSummary("x", (1.0, 1.0))
        assert a.welch_t(b) == float("inf")

    def test_lrs_vs_rr_significant(self):
        outcomes = compare_policies(small_config, ["RR", "LRS"],
                                    seeds=[0, 1, 2])
        t = outcomes["LRS"].throughput().welch_t(
            outcomes["RR"].throughput())
        assert abs(t) > 2.0
