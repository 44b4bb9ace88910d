"""The drain/migration protocol on its own: fake hosts, fake clock.

No threads, no engine, no sleeps — the generators are stepped by hand
(or by ``migration.run`` with a clock that only advances) and observed
through a real ``LrsController`` whose range operations are recorded.
"""

import pytest

from repro import metrics as metrics_mod
from repro.core import migration
from repro.core.controller import LrsController, PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.exceptions import (DeploymentError, MigrationAborted,
                                   RuntimeStateError)
from repro.core.keyed import (KEY_SPACE, KeyedConfig, KeyRange,
                              KeyRangeTable, hash_key)
from repro.core.state import InMemoryStateStore

HALF = KEY_SPACE // 2
LOWER = KeyRange(0, HALF)
KEYS = ["user-%d" % i for i in range(24)]
LOWER_KEYS = [key for key in KEYS if LOWER.contains(hash_key(key))]
POLL, QUIET = 0.05, 0.10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, delay):
        self.now += delay


class RecordingStore(InMemoryStateStore):
    def __init__(self, name, log):
        super().__init__()
        self._name, self._log = name, log

    def extract_range(self, key_range):
        self._log.append("extract:%s" % self._name)
        return super().extract_range(key_range)


class FakeHost(migration.MigrationHost):
    """A host whose ``busy`` answers come from a script.

    *script* yields one bool per poll (exhausted: not busy); a callable
    entry is run first — that is how a test makes churn happen mid-drain.
    """

    def __init__(self, name, log, script=(), hosted=True):
        self.name = name
        self.up = True
        self.hosted = hosted
        self.store = RecordingStore(name, log)
        self._script = iter(script)
        self.polls = []

    def alive(self):
        return self.up

    def busy(self, key_range=None):
        self.polls.append(key_range)
        step = next(self._script, False)
        if callable(step):
            step()
            return False
        return step

    def state_store(self, unit, tenant=""):
        if not self.hosted:
            raise DeploymentError("no keyed state for %r on %s"
                                  % (unit, self.name))
        return self.store


class RecordingController(LrsController):
    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self._log = log

    def pause_range(self, key_range):
        self._log.append("pause")
        super().pause_range(key_range)

    def move_range(self, key_range, new_owner, reason):
        self._log.append("move:%s" % new_owner)
        super().move_range(key_range, new_owner, reason)

    def resume_range(self, key_range):
        self._log.append("resume")
        super().resume_range(key_range)


class Swarm:
    """Three hosts B, C, D behind one keyed controller; B owns LOWER."""

    def __init__(self, source_script=(), **hosts):
        self.log = []
        self.clock = FakeClock()
        self.registry = metrics_mod.MetricsRegistry()
        self.controller = RecordingController(
            self.log,
            config=PolicyConfig(
                policy="RR", seed=1, keyed=KeyedConfig(split_enabled=False),
                delivery=DeliveryConfig(mode=AT_LEAST_ONCE)),
            clock=self.clock, registry=self.registry, name="src>agg")
        self.controller.set_downstreams(["B", "C", "D"])
        table = KeyRangeTable()
        table.assign(LOWER, "B")
        table.assign(KeyRange(HALF, KEY_SPACE), "C")
        self.controller.set_key_table(table)
        self.table = table
        self.B = FakeHost("B", self.log, script=source_script)
        self.C = FakeHost("C", self.log, **hosts)
        self.D = FakeHost("D", self.log)
        for key in KEYS:
            owner = self.B if LOWER.contains(hash_key(key)) else self.C
            owner.store.store(key, {"count": len(key)})

    def steps(self, source="B", target="C", timeout=None, retarget=None):
        return migration.migrate_range(
            self.controller, LOWER, getattr(self, source),
            getattr(self, target), source, target, "agg", "", "drain",
            quiet=QUIET, poll=POLL, timeout=timeout, retarget=retarget,
            registry=self.registry)

    def migrate(self, **kwargs):
        return migration.run(self.steps(**kwargs), self.clock.sleep)

    def assert_not_moved(self):
        assert self.table.owner(LOWER) == "B"
        assert not self.table.is_paused(LOWER)
        assert sorted(k for k in self.B.store.keys()
                      if LOWER.contains(hash_key(k))) == sorted(LOWER_KEYS)
        assert not any(entry.startswith("move") for entry in self.log)
        assert self.registry.value(metrics_mod.KEY_RANGE_MOVES_TOTAL,
                                   reason="drain", edge="src>agg") == 0


class TestQuiesce:
    def test_quiet_for_the_whole_period(self):
        clock = FakeClock()
        assert migration.run(migration.quiesce(lambda: False, QUIET, POLL),
                             clock.sleep) is True
        assert clock.now == pytest.approx(QUIET)

    def test_zero_quiet_returns_on_first_calm_poll_without_waiting(self):
        steps = migration.quiesce(lambda: False, 0.0, POLL)
        with pytest.raises(StopIteration) as done:
            next(steps)
        assert done.value.value is True

    def test_a_busy_poll_restarts_the_quiet_period(self):
        clock = FakeClock()
        answers = iter([True, False, True])
        assert migration.run(
            migration.quiesce(lambda: next(answers, False), QUIET, POLL),
            clock.sleep) is True
        # last busy answer at 2 polls, then a full quiet period
        assert clock.now == pytest.approx(2 * POLL + QUIET)

    def test_gives_up_at_timeout(self):
        clock = FakeClock()
        assert migration.run(
            migration.quiesce(lambda: True, QUIET, POLL, timeout=1.0),
            clock.sleep) is False
        assert clock.now == pytest.approx(1.0)


class TestTransferRange:
    def _stores(self):
        source, target = InMemoryStateStore(), InMemoryStateStore()
        for key in KEYS:
            source.store(key, {"count": 1})
        return source, target

    def test_entries_change_hands(self):
        source, target = self._stores()
        moved = migration.transfer_range(source, target, "", "agg", LOWER)
        assert moved == len(LOWER_KEYS) > 0
        assert sorted(target.keys()) == sorted(LOWER_KEYS)
        assert not set(source.keys()) & set(LOWER_KEYS)

    def test_drained_owner_overrides_a_stale_replica(self):
        source, target = self._stores()
        target.store(LOWER_KEYS[0], {"count": 99})  # left by a re-drain
        migration.transfer_range(source, target, "", "agg", LOWER)
        assert target.load(LOWER_KEYS[0]) == {"count": 1}

    def test_failed_install_puts_the_snapshot_back(self):
        class Failing(InMemoryStateStore):
            def store(self, key, state):
                if len(self) >= 1:
                    raise OSError("disk full")
                super().store(key, state)

        source, target = self._stores()
        assert len(LOWER_KEYS) > 1
        with pytest.raises(OSError):
            migration.transfer_range(source, Failing(), "", "agg", LOWER)
        assert sorted(source.keys()) == sorted(KEYS)
        assert all(source.load(key) == {"count": 1} for key in KEYS)


class TestMigrateRange:
    def test_order_count_and_histogram(self):
        swarm = Swarm()
        moved = swarm.migrate()
        assert moved == len(LOWER_KEYS)
        log = swarm.log
        assert log.index("pause") < log.index("extract:B")
        assert log.index("extract:B") < log.index("move:C") \
            < log.index("resume")
        assert log.count("pause") == log.count("resume") == 1
        assert swarm.table.owner(LOWER) == "C"
        assert not swarm.table.is_paused(LOWER)
        assert sorted(k for k in swarm.C.store.keys()
                      if LOWER.contains(hash_key(k))) == sorted(LOWER_KEYS)
        assert not swarm.B.store.keys()
        # the source was asked about this range, not about everything
        assert set(swarm.B.polls) == {LOWER}
        histogram = swarm.registry.histogram(
            metrics_mod.STATE_MIGRATION_SECONDS, edge="src>agg")
        assert histogram.count == 1
        assert histogram.total == pytest.approx(QUIET)
        assert swarm.registry.value(metrics_mod.KEY_RANGE_MOVES_TOTAL,
                                    reason="drain", edge="src>agg") == 1

    def test_parked_tuples_follow_the_range(self):
        swarm = Swarm(source_script=[True])
        sent = []

        class Egress:
            def send(self, downstream_id, seq, context, attempt):
                sent.append((downstream_id, seq))
                return swarm.clock()

        swarm.controller._egress = Egress()
        steps = swarm.steps()
        next(steps)  # paused, draining
        key_hash = hash_key(LOWER_KEYS[0])
        assert swarm.controller.dispatch(7, context="frame-7",
                                         key_hash=key_hash) is None
        assert sent == []
        migration.run(steps, swarm.clock.sleep)
        assert sent == [("C", 7)]

    def test_already_migrating_refused_untouched(self):
        swarm = Swarm()
        swarm.controller.pause_range(LOWER)
        swarm.log.clear()
        with pytest.raises(MigrationAborted, match="already migrating"):
            swarm.migrate()
        assert swarm.log == []  # not paused again, not resumed
        assert swarm.table.is_paused(LOWER)  # the other one's pause
        assert swarm.table.owner(LOWER) == "B"

    def test_misowned_refused_untouched(self):
        swarm = Swarm()
        before = swarm.table.snapshot()
        with pytest.raises(MigrationAborted, match="owned by B"):
            swarm.migrate(source="D", target="C")
        assert swarm.log == []
        assert swarm.table.snapshot() == before
        swarm.assert_not_moved()

    def test_refusals_are_runtime_state_errors(self):
        assert issubclass(MigrationAborted, RuntimeStateError)

    def test_source_dies_mid_drain(self):
        swarm = Swarm()
        swarm.B._script = iter([True, lambda: setattr(swarm.B, "up", False)])
        with pytest.raises(MigrationAborted, match="left or lost"):
            swarm.migrate()
        assert "extract:B" not in swarm.log
        assert swarm.log[-1] == "resume"
        swarm.assert_not_moved()

    def test_range_reowned_mid_drain(self):
        swarm = Swarm()
        swarm.B._script = iter(
            [lambda: swarm.table.assign(LOWER, "D")])
        with pytest.raises(MigrationAborted, match="left or lost"):
            swarm.migrate()
        assert swarm.table.owner(LOWER) == "D"
        assert not swarm.table.is_paused(LOWER)
        assert "extract:B" not in swarm.log

    @pytest.mark.parametrize("leave", [
        lambda swarm: setattr(swarm.C, "up", False),
        lambda swarm: swarm.controller.remove_downstream("C"),
    ], ids=["receiver-down", "receiver-left-the-edge"])
    def test_receiver_leaves_mid_drain_without_retarget(self, leave):
        swarm = Swarm()
        swarm.B._script = iter([lambda: leave(swarm)])
        with pytest.raises(MigrationAborted, match="receiver C left"):
            swarm.migrate()
        assert "extract:B" not in swarm.log
        assert swarm.log[-1] == "resume"
        swarm.assert_not_moved()

    def test_receiver_leaves_mid_drain_with_retarget(self):
        swarm = Swarm()
        swarm.B._script = iter([lambda: setattr(swarm.C, "up", False)])
        moved = swarm.migrate(retarget=lambda: (swarm.D, "D"))
        assert moved == len(LOWER_KEYS)
        assert swarm.table.owner(LOWER) == "D"
        assert sorted(swarm.D.store.keys()) == sorted(LOWER_KEYS)
        assert not any(LOWER.contains(hash_key(k))
                       for k in swarm.C.store.keys())
        assert swarm.log[-2:] == ["move:D", "resume"]

    def test_source_that_never_goes_quiet_aborts_loudly(self):
        swarm = Swarm(source_script=iter(lambda: True, None))
        with pytest.raises(MigrationAborted) as error:
            swarm.migrate(timeout=1.0)
        assert repr(LOWER) in str(error.value)
        assert "1.00s" in str(error.value)
        assert swarm.clock.now == pytest.approx(1.0)
        assert "extract:B" not in swarm.log
        swarm.assert_not_moved()

    def test_unhosted_receiver_loses_nothing(self):
        swarm = Swarm(hosted=False)
        with pytest.raises(DeploymentError):
            swarm.migrate()
        assert swarm.log[-1] == "resume"
        swarm.assert_not_moved()
        assert all(swarm.B.store.load(key) == {"count": len(key)}
                   for key in LOWER_KEYS)

    def test_resume_runs_when_the_driver_is_killed(self):
        swarm = Swarm(source_script=[True, True])
        steps = swarm.steps()
        assert next(steps) == POLL
        assert swarm.table.is_paused(LOWER)
        steps.close()  # what the engine's Process.kill does
        assert swarm.log == ["pause", "resume"]
        swarm.assert_not_moved()
