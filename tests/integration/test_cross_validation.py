"""Cross-validation: the threaded runtime and the simulator must agree.

The same policy objects drive both worlds; here we put the *same
qualitative scenario* — one slow device, one fast device — through both
the real threaded runtime (wall-clock time, real ACK messages) and the
discrete-event simulator (virtual time), and check that the resource
manager reaches the same verdicts in each.
"""

import pytest

from repro import profiles
from repro.core.controller import PolicyConfig
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import face_workload
from tests.integration.waiting import wait_until


def runtime_shares(policy, items=120):
    """Work split between a fast and a 40x-slower worker (threads).

    The counts are read once the sink holds every tuple.  The slowed
    worker sleeps 400x its *measured* call time, so one call the OS
    preempts can sleep for most of a second: an idle-window stop could
    fall inside that sleep and cut the slow worker's share short.
    """
    graph = (GraphBuilder("xval")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(items)]))
             .unit("f", lambda: LambdaUnit(lambda v: {"y": v["x"]}))
             .sink("snk", CollectingSink)
             .chain("src", "f", "snk")
             .build())
    runtime = SwingRuntime(graph, worker_ids=["fast", "slow"],
                           source_rate=250.0, slowdowns={"slow": 400.0},
                           config=PolicyConfig(
                               policy=policy, seed=3,
                               control_interval=CONTROL_INTERVAL))
    runtime.start()
    try:
        sink = runtime.sink_unit()
        wait_until(lambda: len(sink.results) >= items, timeout=60.0,
                   message="%d results at the sink" % items)
    finally:
        runtime.stop()
    return {worker_id: worker.processed_count
            for worker_id, worker in runtime.workers.items()}


def simulator_shares(policy):
    """Work split between fast H and slow E in the simulator."""
    config = SwarmConfig(workload=face_workload(input_rate=12.0),
                         workers=profiles.worker_profiles(["E", "H"]),
                         source=profiles.device_profile("A"),
                         policy_config=PolicyConfig(policy=policy),
                         duration=20.0, seed=3)
    result = run_swarm(config)
    rates = result.input_rates()
    return {"fast": rates["H"], "slow": rates["E"]}


class TestCrossValidation:
    def test_rr_splits_evenly_in_both_worlds(self):
        threads = runtime_shares("RR")
        simulated = simulator_shares("RR")
        # RR ignores capability everywhere: shares within 25% of equal.
        assert threads["fast"] == pytest.approx(threads["slow"], rel=0.25)
        assert simulated["fast"] == pytest.approx(simulated["slow"],
                                                  rel=0.25)

    def test_lrs_prefers_fast_device_in_both_worlds(self):
        threads = runtime_shares("LRS")
        simulated = simulator_shares("LRS")
        assert threads["fast"] > 1.5 * max(1, threads["slow"])
        assert simulated["fast"] > 1.5 * max(0.1, simulated["slow"])

    def test_lrs_beats_rr_in_both_worlds(self):
        # In each world, the fast device's share under LRS exceeds its
        # share under RR — the adaptation direction matches.
        threads_rr = runtime_shares("RR")
        threads_lrs = runtime_shares("LRS")
        fraction = lambda shares: (shares["fast"]
                                   / max(1e-9, shares["fast"]
                                         + shares["slow"]))
        assert fraction(threads_lrs) > fraction(threads_rr)
        sim_rr = simulator_shares("RR")
        sim_lrs = simulator_shares("LRS")
        assert fraction(sim_lrs) > fraction(sim_rr)
