"""Tests for the multi-stage pipeline simulation (Fig. 3 deployments)."""

import pytest

from repro import profiles
from repro.core.controller import PolicyConfig
from repro.core.exceptions import SimulationError
from repro.simulation.network import RSSI_POOR
from repro.simulation.pipeline import (PipelineConfig, StageSpec,
                                       face_pipeline_config, run_pipeline)
from repro.simulation.workload import face_workload


class TestStageSpec:
    def test_valid(self):
        StageSpec("s", 0.5, 1000, ("B",))

    @pytest.mark.parametrize("kwargs", [
        dict(name="s", compute_fraction=0.0, output_bytes=1, hosts=("B",)),
        dict(name="s", compute_fraction=1.5, output_bytes=1, hosts=("B",)),
        dict(name="s", compute_fraction=0.5, output_bytes=0, hosts=("B",)),
        dict(name="s", compute_fraction=0.5, output_bytes=1, hosts=()),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(SimulationError):
            StageSpec(**kwargs)


class TestConfigValidation:
    def test_needs_stages(self):
        config = PipelineConfig(workload=face_workload(), stages=(),
                                devices={}, source_id="A")
        with pytest.raises(SimulationError):
            config.validate()

    def test_duplicate_stage_names_rejected(self):
        stage = StageSpec("s", 0.5, 100, ("B",))
        config = PipelineConfig(workload=face_workload(),
                                stages=(stage, stage),
                                devices=profiles.worker_profiles(["B"]),
                                source_id="A")
        with pytest.raises(SimulationError):
            config.validate()

    def test_policy_seed_rejected(self):
        config = face_pipeline_config(["B"], ["B"])
        config.policy_config = PolicyConfig(seed=4)
        with pytest.raises(SimulationError):
            config.validate()

    def test_unknown_host_rejected(self):
        config = PipelineConfig(
            workload=face_workload(),
            stages=(StageSpec("s", 0.5, 100, ("Z",)),),
            devices=profiles.worker_profiles(["B"]), source_id="A")
        with pytest.raises(SimulationError):
            config.validate()

    def test_stage_input_bytes(self):
        config = face_pipeline_config(["G"], ["H"])
        assert config.stage_input_bytes(0) == 6000   # the camera frame
        assert config.stage_input_bytes(1) == 6200   # frame + boxes


class TestExecution:
    @pytest.fixture(scope="class")
    def fast_trio(self):
        return run_pipeline(face_pipeline_config(
            ["G", "H", "I"], ["G", "H", "I"], duration=20.0, seed=1))

    def test_meets_target_rate(self, fast_trio):
        assert fast_trio.throughput > 22.0

    def test_low_latency(self, fast_trio):
        assert fast_trio.mean_latency < 0.5

    def test_playback_ordered(self, fast_trio):
        assert fast_trio.ordered

    def test_both_stages_distributed(self, fast_trio):
        detector_hosts = {instance for instance, count
                          in fast_trio.per_instance_frames.items()
                          if instance.startswith("detector@") and count > 0}
        recognizer_hosts = {instance for instance, count
                            in fast_trio.per_instance_frames.items()
                            if instance.startswith("recognizer@")
                            and count > 0}
        assert len(detector_hosts) >= 2
        assert len(recognizer_hosts) >= 2

    def test_tuple_conservation_per_stage(self, fast_trio):
        detector_in = sum(count for instance, count
                          in fast_trio.per_instance_frames.items()
                          if instance.startswith("detector@"))
        recognizer_in = sum(count for instance, count
                            in fast_trio.per_instance_frames.items()
                            if instance.startswith("recognizer@"))
        # Stage 2 receives at most what stage 1 received, and completion
        # count at most what stage 2 received.
        assert recognizer_in <= detector_in
        assert fast_trio.completed <= recognizer_in

    def test_disjoint_deployment_works(self):
        result = run_pipeline(face_pipeline_config(
            ["G", "H"], ["I", "F"], duration=20.0, seed=2))
        assert result.throughput > 18.0
        assert all(not instance.startswith("recognizer@G")
                   for instance in result.per_instance_frames)

    def test_single_stage_pipeline(self):
        config = PipelineConfig(
            workload=face_workload(input_rate=12.0),
            stages=(StageSpec("analyze", 1.0, 200, ("G", "H")),),
            devices=profiles.worker_profiles(["G", "H"]),
            source_id="A", duration=15.0, seed=0)
        result = run_pipeline(config)
        assert result.throughput > 10.0

    def test_weak_link_recognizer_avoided(self):
        result = run_pipeline(face_pipeline_config(
            ["G", "H"], ["B", "I"], duration=25.0, seed=3,
            rssi={"B": RSSI_POOR}))
        frames = result.per_instance_frames
        assert frames["recognizer@B"] < frames["recognizer@I"] / 2

    def test_shared_device_serializes_compute(self):
        # Both stages only on H: H's busy time cannot exceed wall time.
        result = run_pipeline(face_pipeline_config(
            ["H"], ["H"], duration=10.0, input_rate=24.0, seed=0))
        assert result.per_device_busy["H"] <= 10.0 + 1e-6
        # H alone cannot sustain 24 FPS through both stages.
        assert result.throughput < 20.0

    def test_reproducible(self):
        first = run_pipeline(face_pipeline_config(["G", "H"], ["I"],
                                                  duration=10.0, seed=5))
        second = run_pipeline(face_pipeline_config(["G", "H"], ["I"],
                                                   duration=10.0, seed=5))
        assert first.throughput == second.throughput
        assert first.mean_latency == second.mean_latency
