"""Explorer runs on the threaded runtime substrate.

A couple of real schedules through ``SwingRuntime`` + ``ChaosFabric``;
the 200-schedule soak lives in ``test_sweep_slow.py`` (slow marker) and
the nightly CI job.
"""

from repro.verify import adapters, explorer


class TestRuntimeSubstrate:
    def test_small_runtime_sweep_is_clean(self):
        report = explorer.explore(2, seed=1,
                                  substrates=(adapters.RUNTIME,))
        assert len(report.runs) == 2
        for record in report.runs:
            assert record.substrate == adapters.RUNTIME
            assert record.ok, \
                "seed %d: %s" % (record.seed,
                                 [violation.message
                                  for violation in record.violations])

    def test_master_failover_schedule_survives_checks(self):
        # Seed 2 includes a master kill/restart pair: the history must
        # show a fenced recovery and still satisfy every invariant.
        schedule = None
        from repro.core.faults import KILL_MASTER
        from repro.verify.schedule import FaultSchedule
        for seed in range(1, 20):
            candidate = FaultSchedule.generate(seed)
            if any(event.action == KILL_MASTER
                   for event in candidate):
                schedule = candidate
                break
        assert schedule is not None
        history = adapters.run_runtime(schedule)
        assert history.substrate == adapters.RUNTIME
        assert history.expected_recoveries >= 1
        assert history.recoveries >= history.expected_recoveries
        assert len(history.epochs) >= 2
        violations, _ = explorer.check_run(schedule, adapters.RUNTIME)
        assert violations == ()
