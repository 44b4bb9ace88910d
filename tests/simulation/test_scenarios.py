"""Tests for the canned paper scenarios."""

import pytest

from repro import profiles
from repro.core.exceptions import SimulationError
from repro.core.faults import DISCONNECT, JOIN, KILL, LOAD_BURST, REJOIN
from repro.simulation import scenarios
from repro.simulation.network import RSSI_GOOD, RSSI_POOR
from repro.simulation.workload import FACE_APP, TRANSLATE_APP


class TestWorkloadForApp:
    def test_face(self):
        workload = scenarios.workload_for_app(FACE_APP)
        assert workload.input_rate == 24.0

    def test_translation(self):
        workload = scenarios.workload_for_app(TRANSLATE_APP)
        assert workload.frame_bytes == 72_000

    def test_custom_rate(self):
        assert scenarios.workload_for_app(FACE_APP, 10.0).input_rate == 10.0

    def test_unknown_app(self):
        with pytest.raises(SimulationError):
            scenarios.workload_for_app("weather")


class TestTestbed:
    def test_default_layout_matches_paper(self):
        config = scenarios.testbed()
        assert sorted(config.workers) == profiles.WORKER_IDS
        assert config.source.device_id == "A"
        for device_id in ("B", "C", "D"):
            assert config.rssi[device_id] == RSSI_POOR
        for device_id in ("E", "F", "G", "H", "I"):
            assert config.rssi[device_id] == RSSI_GOOD

    def test_policy_passthrough(self):
        assert scenarios.testbed(policy="PR").policy == "PR"

    def test_worker_subset(self):
        config = scenarios.testbed(worker_ids=["G", "H"])
        assert sorted(config.workers) == ["G", "H"]
        assert all(rssi == RSSI_GOOD for rssi in config.rssi.values())

    def test_config_validates(self):
        scenarios.testbed().validate()


class TestSingleDevice:
    def test_defaults_to_unbounded_queue(self):
        config = scenarios.single_device("B")
        assert config.resolved_source_queue() is None
        assert config.thermal_throttling is False

    def test_bounded_variant(self):
        config = scenarios.single_device("B", bounded_queue=True)
        assert config.resolved_source_queue() is not None

    def test_signal_and_load_applied(self):
        config = scenarios.single_device("B", rssi=RSSI_POOR,
                                         background_load=0.6)
        assert config.rssi["B"] == RSSI_POOR
        assert config.background_load["B"] == 0.6


class TestDynamicsScenarios:
    def test_joining_has_one_join_event(self):
        config = scenarios.joining()
        assert [(event.action, event.target)
                for event in config.schedule] == [(JOIN, "G")]
        assert sorted(config.workers) == ["B", "D"]

    def test_leaving_has_one_leave_event(self):
        config = scenarios.leaving()
        assert [(event.action, event.target)
                for event in config.schedule] == [(DISCONNECT, "G")]
        assert sorted(config.workers) == ["B", "G", "H"]

    def test_moving_builds_walk_for_mover(self):
        config = scenarios.moving(dwell=60.0)
        trace = config.mobility.traces["G"]
        assert trace.rssi_at(0.0) == RSSI_GOOD
        assert trace.rssi_at(130.0) == RSSI_POOR
        stationary = config.mobility.traces["B"]
        assert stationary.change_points() == []


class TestSkewScenario:
    def test_shape(self):
        config = scenarios.skew()
        assert sorted(config.workers) == ["B", "D", "G", "H"]
        assert config.policy == "LRS"
        keyed = config.keyed_config()
        assert keyed.key_count == 64
        assert keyed.zipf_alpha == 1.2
        assert keyed.split_enabled
        assert config.delivery_config().at_least_once

    def test_static_variant_disables_splitting(self):
        config = scenarios.skew(split_enabled=False)
        assert not config.keyed_config().split_enabled

    def test_best_effort_variant(self):
        config = scenarios.skew(at_least_once=False)
        assert not config.delivery_config().at_least_once

    def test_validates(self):
        scenarios.skew().validate()

    def test_needs_two_workers(self):
        with pytest.raises(SimulationError):
            scenarios.skew(worker_ids=("B",))

    def test_needs_a_key(self):
        with pytest.raises(SimulationError):
            scenarios.skew(key_count=0)


class TestOverloadScenario:
    def test_shape(self):
        config = scenarios.overload()
        assert sorted(config.workers) == ["B", "G", "H"]
        # Every worker starts loaded, and every load lifts at the same
        # instant so the recovery phase is well-defined.
        assert all(load > 0.0 for load in config.background_load.values())
        lifts = {event.target: event for event in config.schedule
                 if event.action == LOAD_BURST}
        assert sorted(lifts) == sorted(config.workers)
        assert all(event.value == 0.0 and event.time == 14.0
                   and event.end == config.duration
                   for event in lifts.values())
        assert config.thermal_throttling is False

    def test_overload_protection_enabled(self):
        config = scenarios.overload(ttl=1.5, queue_capacity=4)
        overload = config.overload_config()
        assert overload.enabled
        assert overload.ttl == 1.5
        assert overload.queue_capacity == 4

    def test_kill_and_revive_events(self):
        config = scenarios.overload()
        membership = [event for event in config.schedule
                      if event.action != LOAD_BURST]
        assert [event.action for event in membership] == [KILL, REJOIN]
        assert all(event.target == "G" for event in membership)

    def test_kill_optional(self):
        config = scenarios.overload(kill_id=None)
        assert {event.action for event in config.schedule} == {LOAD_BURST}

    def test_validation(self):
        with pytest.raises(SimulationError):
            scenarios.overload(overload_until=40.0, duration=30.0)
        with pytest.raises(SimulationError):
            scenarios.overload(kill_id="Z")
        with pytest.raises(SimulationError):
            scenarios.overload(kill_time=10.0, revive_time=5.0)
