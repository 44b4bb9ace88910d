"""The one fault vocabulary: events, schedules, and what each substrate
applies of them."""

import hashlib

import pytest

from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (ACTIONS, CHAOS_CORRUPT, CHAOS_DELAY,
                               CHAOS_DROP, CHAOS_DUPLICATE, DISCONNECT,
                               EVERY_LINK, HEAL, JOIN, KILL, KILL_MASTER,
                               LEAVE, LOAD_BURST, PARTITION, REJOIN,
                               RESTART_MASTER, FaultEvent, FaultSchedule)
from repro.runtime.chaos import ChurnHarness
from repro.simulation import scenarios
from repro.simulation.swarm import SwarmSimulation
from repro.verify.schedule import FaultSchedule as VerifySchedule


class TestFaultEvent:
    def test_validates_action_time_device(self):
        with pytest.raises(RuntimeStateError):
            FaultEvent(1.0, "explode", "B")
        with pytest.raises(RuntimeStateError):
            FaultEvent(-1.0, KILL, "B")
        with pytest.raises(RuntimeStateError):
            FaultEvent(1.0, KILL, "")


class TestFaultSchedule:
    def test_generate_is_deterministic(self):
        first = FaultSchedule.churn(seed=7, device_ids=("D", "G"),
                                    duration=40.0)
        second = FaultSchedule.churn(seed=7, device_ids=("D", "G"),
                                     duration=40.0)
        assert first.events == second.events
        different = FaultSchedule.churn(seed=8, device_ids=("D", "G"),
                                        duration=40.0)
        assert first.events != different.events

    def test_generate_events_inside_window(self):
        schedule = FaultSchedule.churn(seed=3, device_ids=("B", "C", "D"),
                                       duration=60.0, start_after=5.0,
                                       settle=8.0)
        assert len(schedule) == 6  # one departure + one rejoin per device
        for event in schedule:
            assert 5.0 <= event.time <= 52.0

    def test_generate_validates_against_initial_ids(self):
        schedule = FaultSchedule.churn(seed=7, device_ids=("D", "G"),
                                       duration=40.0)
        schedule.validate({"B", "D", "G", "H"})  # must not raise

    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(events=(
            FaultEvent(5.0, REJOIN, "B"),
            FaultEvent(1.0, KILL, "B"),
        ))
        assert [event.time for event in schedule] == [1.0, 5.0]

    def test_same_timestamp_orders_by_action_then_target(self):
        schedule = FaultSchedule(events=(
            FaultEvent(2.0, REJOIN, "B"),
            FaultEvent(2.0, KILL, "G"),
            FaultEvent(2.0, KILL, "D"),
        ))
        assert [(event.action, event.target) for event in schedule] == [
            (KILL, "D"), (KILL, "G"), (REJOIN, "B")]

    def test_validate_rejects_departing_absent_device(self):
        for action in (KILL, LEAVE, DISCONNECT):
            schedule = FaultSchedule(events=(FaultEvent(1.0, action, "Z"),))
            with pytest.raises(RuntimeStateError):
                schedule.validate({"B"})

    def test_validate_rejects_rejoin_of_present_device(self):
        schedule = FaultSchedule(events=(FaultEvent(1.0, REJOIN, "B"),))
        with pytest.raises(RuntimeStateError):
            schedule.validate({"B"})

    def test_validate_rejects_join_of_present_device(self):
        schedule = FaultSchedule(events=(FaultEvent(1.0, JOIN, "B"),))
        with pytest.raises(RuntimeStateError):
            schedule.validate({"B"})
        schedule.validate({"G"})  # a newcomer is fine

    def test_validate_rejects_emptying_the_swarm(self):
        schedule = FaultSchedule(events=(FaultEvent(1.0, LEAVE, "B"),))
        with pytest.raises(RuntimeStateError):
            schedule.validate({"B"})
        # A crash may hit the last device: all-downstreams-dead is a
        # scenario, not a malformed schedule.
        FaultSchedule(events=(FaultEvent(1.0, KILL, "B"),)).validate({"B"})

    def test_too_short_duration_rejected(self):
        with pytest.raises(RuntimeStateError):
            FaultSchedule.churn(seed=0, device_ids=("B",), duration=5.0,
                                start_after=5.0, settle=8.0)

    def test_link_actions_need_a_directed_link(self):
        for action, window in ((PARTITION, False), (HEAL, False),
                               (CHAOS_DROP, True), (CHAOS_DELAY, True),
                               (CHAOS_DUPLICATE, True),
                               (CHAOS_CORRUPT, True)):
            for target in ("B", ">B", "A>"):
                schedule = FaultSchedule(events=(FaultEvent(
                    1.0, action, target, duration=2.0 if window else 0.0,
                    value=0.1),))
                with pytest.raises(RuntimeStateError):
                    schedule.validate({"B"})

    def test_message_chaos_may_target_every_link(self):
        FaultSchedule(events=(
            FaultEvent(1.0, CHAOS_DROP, EVERY_LINK, duration=2.0,
                       value=0.5),)).validate({"B"})
        with pytest.raises(RuntimeStateError):
            FaultSchedule(events=(
                FaultEvent(1.0, PARTITION, EVERY_LINK),)).validate({"B"})

    def test_load_burst_must_target_a_member(self):
        burst = FaultEvent(1.0, LOAD_BURST, "G", duration=2.0, value=0.5)
        with pytest.raises(RuntimeStateError):
            FaultSchedule(events=(burst,)).validate({"B"})
        # ... at some point of the run: a later joiner counts.
        FaultSchedule(events=(burst, FaultEvent(5.0, JOIN, "G"),)
                      ).validate({"B"})


def _one_of_each() -> FaultSchedule:
    """A valid schedule holding every action constant exactly once."""
    return FaultSchedule(events=(
        FaultEvent(1.0, JOIN, "G"),
        FaultEvent(2.0, KILL, "B"),
        FaultEvent(3.0, REJOIN, "B"),
        FaultEvent(4.0, LEAVE, "D"),
        FaultEvent(5.0, DISCONNECT, "G"),
        FaultEvent(6.0, KILL_MASTER, "A"),
        FaultEvent(7.0, RESTART_MASTER, "A"),
        FaultEvent(8.0, PARTITION, "A>B"),
        FaultEvent(9.0, HEAL, "A>B"),
        FaultEvent(10.0, CHAOS_DROP, "A>B", duration=1.0, value=0.1),
        FaultEvent(10.0, CHAOS_DELAY, "A>B", duration=1.0, value=0.1),
        FaultEvent(10.0, CHAOS_DUPLICATE, "A>B", duration=1.0, value=0.1),
        FaultEvent(10.0, CHAOS_CORRUPT, "A>B", duration=1.0, value=0.1),
        FaultEvent(10.0, LOAD_BURST, "B", duration=1.0, value=0.5),
    ))


class TestSubstrateCoverage:
    """Every action is either in a substrate's handler table or in what
    ``unapplied`` reports for it — nothing can be skipped silently.  (An
    unknown action never gets that far: ``TestFaultEvent`` pins its
    rejection at construction.)"""

    TABLES = {
        "simulator": (SwarmSimulation.FAULT_HANDLERS,
                      {CHAOS_DUPLICATE, CHAOS_CORRUPT}),
        "runtime": (ChurnHarness.FAULT_HANDLERS, {DISCONNECT, LOAD_BURST}),
    }

    def test_one_of_each_covers_the_vocabulary(self):
        schedule = _one_of_each()
        schedule.validate({"B", "D"})
        assert {event.action for event in schedule} == ACTIONS

    @pytest.mark.parametrize("substrate", sorted(TABLES))
    def test_table_plus_unapplied_is_exhaustive(self, substrate):
        table, expected_gap = self.TABLES[substrate]
        assert set(table) <= ACTIONS
        reported = {event.action
                    for event in _one_of_each().unapplied(table)}
        assert reported == ACTIONS - set(table) == expected_gap


class TestGoldenPins:
    """Captured at the parent commit of the vocabulary collapse."""

    @staticmethod
    def _story(schedule):
        return [(event.time, event.action, event.target)
                for event in schedule]

    def test_churn_scenario_seed_7(self):
        assert self._story(scenarios.churn(seed=7).schedule) == [
            (9.159, "leave", "G"), (13.181, "kill", "D"),
            (13.256, "rejoin", "G"), (18.134, "rejoin", "D")]

    def test_failover_scenario(self):
        assert self._story(scenarios.failover().schedule) == [
            (12.0, "kill_master", "A"), (16.0, "restart_master", "A")]

    def test_generated_schedule_documents(self):
        digest = hashlib.sha256()
        for seed in range(1, 21):
            digest.update(VerifySchedule.generate(seed).to_json().encode())
        assert digest.hexdigest() == ("9fe368cf4012beaaec860056f9cb3c48"
                                      "1fbbc92e22f0f69976b85c8359f1da03")

    def test_action_spellings(self):
        # The strings are a wire format: schedule documents and repro
        # files written by ``swing verify --out`` carry them.
        assert sorted(ACTIONS) == [
            "chaos_corrupt", "chaos_delay", "chaos_drop", "chaos_duplicate",
            "disconnect", "heal", "join", "kill", "kill_master", "leave",
            "load_burst", "partition", "rejoin", "restart_master"]
