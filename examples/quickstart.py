#!/usr/bin/env python
"""Quickstart: define a Swing app, run it on a swarm, inspect results.

Covers the whole workflow in miniature:

1. compose a dataflow graph with the Swing API (paper Sec. IV-A);
2. run it on an in-process swarm of worker threads with the LRS policy;
3. run the same workload through the calibrated swarm *simulator* and
   compare LRS against the round-robin baseline.

Run with:  python examples/quickstart.py
"""

from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime import SwingRuntime
from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm


def build_app(item_count=30):
    """A toy sensing app: source -> feature extractor -> sink."""
    payloads = [{"reading": float(i)} for i in range(item_count)]
    return (GraphBuilder("quickstart")
            .source("sensor", lambda: IterableSource(payloads))
            .unit("feature",
                  lambda: LambdaUnit(lambda v: {"energy": v["reading"] ** 2}))
            .sink("display", CollectingSink)
            .chain("sensor", "feature", "display")
            .build())


def run_threaded_swarm():
    print("== 1. Running on a swarm of worker threads (LRS) ==")
    runtime = SwingRuntime(build_app(), worker_ids=["B", "G", "H"],
                           source_rate=120.0,
                           slowdowns={"B": 20.0})  # B is a slow device
    results = runtime.run(until_idle=0.5, timeout=30.0)
    energies = [data.get_value("energy") for data in results]
    print("results delivered: %d (in order: %s)"
          % (len(results), energies == sorted(energies)))
    for worker_id, worker in runtime.workers.items():
        print("  device %s processed %d tuples"
              % (worker_id, worker.processed_count))
    print()


def run_simulated_swarm():
    print("== 2. Simulating the paper's testbed (face recognition) ==")
    for policy in ("RR", "LRS"):
        result = run_swarm(scenarios.testbed(policy=policy, duration=30.0))
        print("  %-3s throughput %5.1f FPS   mean latency %6.0f ms   "
              "power %.2f W" % (policy, result.throughput,
                                result.latency.mean * 1000,
                                result.energy.aggregate_w))
    print()
    print("LRS reaches the 24 FPS smooth-video target; RR collapses on the")
    print("weak-signal devices — the paper's headline result.")


if __name__ == "__main__":
    run_threaded_swarm()
    run_simulated_swarm()
