"""Simulator-side coverage for the batched data plane.

The simulator consumes the same :class:`BatchConfig` as the threaded
runtime, so two properties must hold: batch size 1 is a byte-for-byte
no-op (identical routing decisions and delivered frames as an unbatched
run), and real batching still meets the workload's input rate while the
shared ``swing_batch_size`` histogram records multi-tuple batches.
"""

from repro import profiles
from repro.core.batching import BatchConfig
from repro.core.controller import PolicyConfig
from repro.metrics import BATCH_SIZE
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import face_workload


def small_config(**overrides):
    defaults = dict(
        workload=face_workload(),
        workers=profiles.worker_profiles(["G", "H", "I"]),
        source=profiles.device_profile("A"),
        duration=10.0,
        seed=1,
    )
    defaults.update(overrides)
    return SwarmConfig(**defaults)


def batch_size_histograms(result):
    return [h for h in result.registry.histograms() if h.name == BATCH_SIZE]


class TestBatchSizeOneParity:
    """max_tuples=1 must be indistinguishable from no batching at all."""

    def test_identical_decisions_and_delivery(self):
        base = run_swarm(small_config())
        batched = run_swarm(small_config(policy_config=PolicyConfig(
            batching=BatchConfig(max_tuples=1))))
        assert batched.throughput == base.throughput
        assert batched.frames_lost == base.frames_lost
        assert batched.decisions == base.decisions

    def test_size_one_batches_not_counted_as_batched_dispatch(self):
        result = run_swarm(small_config(policy_config=PolicyConfig(
            batching=BatchConfig(max_tuples=1))))
        # The batch path is never entered, so no histogram is created.
        assert batch_size_histograms(result) == []


class TestBatchedRun:
    def test_batched_run_keeps_up_with_the_source(self):
        base = run_swarm(small_config())
        batched = run_swarm(small_config(policy_config=PolicyConfig(
            batching=BatchConfig(max_tuples=8, max_delay=0.01))))
        assert batched.meets_input_rate(tolerance=0.15)
        assert batched.throughput >= 0.8 * base.throughput

    def test_batch_size_histogram_populated(self):
        # The collection window must span several frame inter-arrivals
        # (24 fps -> ~42 ms apart) for multi-tuple batches to form.
        result = run_swarm(small_config(policy_config=PolicyConfig(
            batching=BatchConfig(max_tuples=8, max_delay=0.2))))
        histograms = batch_size_histograms(result)
        assert histograms, "batched run must record swing_batch_size"
        total_batches = sum(h.count for h in histograms)
        total_tuples = sum(h.total for h in histograms)
        assert total_batches > 0
        # Strictly fewer batches than tuples proves multi-tuple batches
        # actually formed (not 8x size-1 flushes).
        assert total_tuples > total_batches

    def test_deterministic_given_seed(self):
        config = dict(policy_config=PolicyConfig(
            batching=BatchConfig(max_tuples=8, max_delay=0.2)))
        first = run_swarm(small_config(**config))
        second = run_swarm(small_config(**config))
        assert first.throughput == second.throughput
        assert first.decisions == second.decisions
