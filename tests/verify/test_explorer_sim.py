"""Explorer sweeps on the discrete-event substrate.

Includes the mutation test the acceptance bar demands: with the seeded
at-least-once bug enabled (the ``seeded_redelivery_bug`` fixture), the
explorer must find a violating schedule within 50 seeds and shrink it
to a handful of fault events that reproduce deterministically.
"""

import json

import pytest

from repro.verify import adapters, explorer
from repro.verify.invariants import InvariantChecker
from repro.verify.schedule import FaultSchedule


class TestCleanSweep:
    def test_small_sweep_is_clean(self):
        report = explorer.explore(6, seed=1)
        assert len(report.runs) == 6
        assert report.ok
        assert all(record.substrate == adapters.SIM
                   for record in report.runs)

    def test_same_seed_same_schedule_and_verdict(self):
        # The determinism pin: one seed => byte-identical schedule and
        # an identical verdict, twice over.
        seed = 9
        first_schedule = FaultSchedule.generate(seed)
        second_schedule = FaultSchedule.generate(seed)
        assert first_schedule.to_json() == second_schedule.to_json()
        first, first_notes = explorer.check_run(first_schedule,
                                                adapters.SIM)
        second, second_notes = explorer.check_run(second_schedule,
                                                  adapters.SIM)
        assert [violation.to_dict() for violation in first] == \
            [violation.to_dict() for violation in second]
        assert first_notes == second_notes

    def test_unknown_substrate_rejected(self):
        from repro.core.exceptions import RuntimeStateError
        with pytest.raises(RuntimeStateError):
            explorer.explore(1, seed=1, substrates=("quantum",))


class TestMutationHasTeeth:
    @pytest.fixture
    def seeded_bug(self, seeded_redelivery_bug):
        return seeded_redelivery_bug

    def test_bug_found_within_50_seeds_and_shrinks_small(self, seeded_bug):
        case = None
        for offset in range(50):
            report = explorer.explore(1, seed=1 + offset)
            if not report.ok:
                case = report.failures[0]
                break
        assert case is not None, \
            "seeded redelivery bug survived 50 schedules undetected"
        invariants = {violation.invariant
                      for violation in case.violations}
        assert invariants & {"tuple_conservation",
                             "at_least_once_completeness"}
        # Minimal repro: the shrunk schedule must be tiny and still
        # structurally valid.
        assert len(case.shrunk) <= 5
        case.shrunk.validate()

    def test_shrunk_repro_replays_deterministically(self, seeded_bug,
                                                    tmp_path):
        report = explorer.explore(1, seed=1)
        assert not report.ok
        path = str(tmp_path / "repro.json")
        explorer.write_repro(report.failures[0], path)
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["substrate"] == adapters.SIM
        first_case, first = explorer.replay(path)
        second_case, second = explorer.replay(path)
        assert first and second
        assert [violation.to_dict() for violation in first] == \
            [violation.to_dict() for violation in second]
        assert first_case.shrunk.to_json() == second_case.shrunk.to_json()

    def test_fix_clears_the_repro(self, seeded_bug, tmp_path):
        report = explorer.explore(1, seed=1)
        path = str(tmp_path / "repro.json")
        explorer.write_repro(report.failures[0], path)
        # "Apply the fix" (unset the seeded bug): the repro must go
        # clean, which is exactly how a real fix is confirmed.
        seeded_bug.undo()
        _case, violations = explorer.replay(path)
        assert violations == ()


class TestShrink:
    def test_shrink_drops_irrelevant_atoms(self, seeded_redelivery_bug):
        schedule = FaultSchedule.generate(2)
        assert len(schedule.atoms()) >= 2
        shrunk = explorer.shrink(schedule, adapters.SIM)
        assert len(shrunk.atoms()) <= len(schedule.atoms())
        # The result must still fail — shrinking never loses the bug.
        violations, _ = explorer.check_run(shrunk, adapters.SIM,
                                           InvariantChecker())
        assert violations
