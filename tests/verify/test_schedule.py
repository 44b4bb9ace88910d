"""Tests for the FaultSchedule vocabulary, generator and validator."""

import json

import pytest

from repro.core import faults
from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (CHAOS_CORRUPT, CHAOS_DROP, KILL, KILL_MASTER,
                               LOAD_BURST, PARTITION, REJOIN,
                               RESTART_MASTER, FaultEvent)
from repro.verify.schedule import FaultSchedule, RunProfile, ScheduleSpec


class TestFaultEvent:
    def test_point_event_round_trips(self):
        event = FaultEvent(time=4.0, action=KILL, target="B")
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unknown_action_rejected(self):
        with pytest.raises(RuntimeStateError):
            FaultEvent(time=1.0, action="meteor_strike", target="B")

    def test_window_needs_positive_duration(self):
        with pytest.raises(RuntimeStateError):
            FaultEvent(time=1.0, action=CHAOS_DROP, target="A>B",
                       duration=0.0, value=0.1)

    def test_point_action_rejects_duration(self):
        with pytest.raises(RuntimeStateError):
            FaultEvent(time=1.0, action=KILL, target="B",
                       duration=2.0)

    def test_probability_bounds(self):
        with pytest.raises(RuntimeStateError):
            FaultEvent(time=1.0, action=CHAOS_DROP, target="A>B",
                       duration=2.0, value=1.5)

    def test_end_property(self):
        event = FaultEvent(time=3.0, action=CHAOS_DROP, target="A>B",
                           duration=2.5, value=0.1)
        assert event.end == pytest.approx(5.5)


class TestGenerateDeterminism:
    def test_same_seed_byte_identical_json(self):
        for seed in range(25):
            first = FaultSchedule.generate(seed).to_json()
            second = FaultSchedule.generate(seed).to_json()
            assert first == second, "seed %d not deterministic" % seed

    def test_json_round_trip_is_identity(self):
        schedule = FaultSchedule.generate(11)
        clone = FaultSchedule.from_json(schedule.to_json())
        assert clone.to_json() == schedule.to_json()
        assert list(clone) == list(schedule)
        assert clone.profile == schedule.profile

    def test_different_seeds_differ_somewhere(self):
        stories = {FaultSchedule.generate(seed).to_json()
                   for seed in range(25)}
        assert len(stories) > 1

    def test_unknown_version_rejected(self):
        data = FaultSchedule.generate(1).to_dict()
        data["version"] = 99
        with pytest.raises(RuntimeStateError):
            FaultSchedule.from_dict(data)


class TestGeneratedSchedulesValidate:
    def test_first_sixty_seeds_compose_legally(self):
        for seed in range(60):
            schedule = FaultSchedule.generate(seed)
            schedule.validate()  # must not raise
            assert len(schedule) >= 1
            assert schedule.end_time() <= schedule.spec.duration

    def test_events_stay_inside_fault_window(self):
        for seed in range(30):
            schedule = FaultSchedule.generate(seed)
            spec = schedule.spec
            for event in schedule:
                assert event.time >= spec.start_after
                assert max(event.time, event.end) <= spec.window_end


class TestProjections:
    def test_extends_the_core_schedule(self):
        # No projection layer any more: the generated schedule IS a core
        # schedule, point events and windows in one sequence.
        schedule = FaultSchedule.generate(13)
        assert isinstance(schedule, faults.FaultSchedule)
        points = [event for event in schedule if not event.duration]
        window_count = len(list(schedule.window_events()))
        assert len(points) + window_count == len(schedule)

    def test_atoms_partition_the_schedule(self):
        schedule = FaultSchedule.generate(13)
        assert schedule.subset(schedule.atoms()).to_json() == \
            schedule.to_json()
        assert len(FaultSchedule.generate(13).subset(()).events) == 0

    def test_subset_keeps_pairs_together(self):
        # Find a seed whose schedule carries a kill+rejoin pair.
        for seed in range(40):
            schedule = FaultSchedule.generate(seed)
            kills = [event for event in schedule
                     if event.action == KILL]
            if not kills:
                continue
            atom = kills[0].atom
            subset = schedule.subset((atom,))
            actions = sorted(event.action for event in subset)
            assert actions == sorted([KILL, REJOIN])
            subset.validate()
            return
        pytest.fail("no seed under 40 produced a kill pair")


class TestCompositionRules:
    def _spec(self):
        return ScheduleSpec()

    def test_unpaired_partition_rejected(self):
        schedule = FaultSchedule(
            events=(FaultEvent(time=10.0, action=PARTITION,
                               target="A>B"),),
            spec=self._spec())
        with pytest.raises(RuntimeStateError):
            schedule.validate()

    def test_master_outage_must_not_overlap_other_faults(self):
        events = (
            FaultEvent(time=10.0, action=KILL_MASTER, target="A"),
            FaultEvent(time=11.0, action=KILL, target="B", atom=1),
            FaultEvent(time=13.0, action=RESTART_MASTER,
                       target="A"),
            FaultEvent(time=14.0, action=REJOIN, target="B",
                       atom=1),
        )
        with pytest.raises(RuntimeStateError):
            FaultSchedule(events=events, spec=self._spec()).validate()

    def test_all_workers_churned_rejected(self):
        spec = self._spec()
        events = []
        for index, worker in enumerate(spec.workers):
            events.append(FaultEvent(time=10.0 + index, action=KILL,
                                     target=worker, atom=index))
            events.append(FaultEvent(time=20.0 + index,
                                     action=REJOIN, target=worker,
                                     atom=index))
        with pytest.raises(RuntimeStateError):
            FaultSchedule(events=tuple(events), spec=spec).validate()

    def test_load_burst_must_target_a_known_worker(self):
        schedule = FaultSchedule(
            events=(FaultEvent(time=10.0, action=LOAD_BURST, target="Z",
                               duration=3.0, value=0.5),),
            spec=self._spec())
        with pytest.raises(RuntimeStateError):
            schedule.validate()

    def test_window_past_fault_window_rejected(self):
        spec = self._spec()
        schedule = FaultSchedule(
            events=(FaultEvent(time=spec.window_end - 1.0,
                               action=CHAOS_CORRUPT, target="A>B",
                               duration=5.0, value=0.05),),
            spec=spec)
        with pytest.raises(RuntimeStateError):
            schedule.validate()

    def test_keyed_profile_excludes_tenants(self):
        with pytest.raises(RuntimeStateError):
            RunProfile(keyed=True, tenant_count=2)


class TestCanonicalJson:
    def test_json_is_sorted_and_compact(self):
        encoded = FaultSchedule.generate(5).to_json()
        decoded = json.loads(encoded)
        assert json.dumps(decoded, sort_keys=True,
                          separators=(",", ":")) == encoded
