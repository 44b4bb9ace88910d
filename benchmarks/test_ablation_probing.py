"""Ablation: round-robin probing of unselected workers (Sec. V-B).

The paper keeps unselected workers' estimates fresh by "switching
periodically every few rounds to round robin mode for a short time".
This bench sweeps the probing period and burst size, including probing
disabled entirely, and reports LRS throughput/latency under each — the
design-choice ablation DESIGN.md calls out.
"""

from dataclasses import replace

import pytest

from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm

#: (probe_every rounds, probe tuples per burst)
SETTINGS = [(5, 0), (2, 4), (5, 4), (10, 4), (5, 12)]


def run_sweep():
    out = {}
    for probe_every, probe_tuples in SETTINGS:
        config = scenarios.testbed(policy="LRS", duration=60.0)
        config.policy_config = replace(config.policy_config,
                                       probe_every=probe_every,
                                       probe_tuples=probe_tuples)
        out[(probe_every, probe_tuples)] = run_swarm(config)
    return out


def test_ablation_probing(benchmark, report):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report.line("Ablation — probing period/burst for LRS (face, 60 s)")
    rows = []
    for (probe_every, probe_tuples), result in results.items():
        label = ("off" if probe_tuples == 0
                 else "every %dr x%d" % (probe_every, probe_tuples))
        rows.append((label,
                     "%.1f" % result.throughput,
                     "%.0f" % (result.latency.mean * 1000),
                     "%d" % result.frames_lost))
    report.table(["probing", "thr fps", "lat ms", "lost"], rows)

    # Every configuration keeps the system near the 24 FPS target: the
    # probing overhead itself must be small.
    for result in results.values():
        assert result.throughput > 20.0
    # Aggressive probing (large bursts onto weak links) costs latency
    # relative to moderate probing.
    moderate = results[(5, 4)]
    aggressive = results[(5, 12)]
    assert moderate.latency.mean <= aggressive.latency.mean * 1.5
