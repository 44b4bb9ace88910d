"""Ablation: latency-estimator choice (Sec. V-B).

The paper estimates L_i as "a moving average of latency estimates".
This bench sweeps the moving-average window and compares against one
EWMA run at :class:`EwmaEstimator`'s default smoothing factor (the only
alpha a ``PolicyConfig`` builds), measuring how the estimator's memory
affects LRS.
"""

import inspect
from dataclasses import replace

from repro.core.latency import EwmaEstimator
from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm

WINDOWS = [5, 20, 80]
EWMA_ALPHA = inspect.signature(EwmaEstimator).parameters["alpha"].default


def run_sweep():
    out = {}
    for window in WINDOWS:
        config = scenarios.testbed(policy="LRS", duration=60.0)
        config.policy_config = replace(config.policy_config,
                                       estimator="moving-average",
                                       estimator_window=window)
        out[("ma", window)] = run_swarm(config)
    config = scenarios.testbed(policy="LRS", duration=60.0)
    config.policy_config = replace(config.policy_config, estimator="ewma")
    out[("ewma", EWMA_ALPHA)] = run_swarm(config)
    return out


def test_ablation_estimators(benchmark, report):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report.line("Ablation — latency estimator for LRS (face, 60 s)")
    rows = []
    for (kind, param), result in results.items():
        label = ("MA w=%d" % param) if kind == "ma" else ("EWMA a=%s" % param)
        rows.append((label,
                     "%.1f" % result.throughput,
                     "%.0f" % (result.latency.mean * 1000),
                     "%.2f" % result.latency.variance))
    report.table(["estimator", "thr fps", "lat ms", "var"], rows)

    # The algorithm is robust to the estimator choice: all variants stay
    # near the target.
    for result in results.values():
        assert result.throughput > 20.0
        assert result.latency.mean < 2.0
