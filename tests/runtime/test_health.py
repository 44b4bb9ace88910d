"""Tests for the runtime's liveness rules: the send gate's backoff
windows (``HealthMonitor``) and the master pool's silence sweep."""

import random
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError
from repro.runtime import messages
from repro.runtime.fabric import InProcFabric
from repro.runtime.health import HealthMonitor
from repro.runtime.master import Master, SwarmPool


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def make_monitor(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("base_backoff", 0.1)
    kwargs.setdefault("max_backoff", 1.0)
    monitor = HealthMonitor(clock=clock, **kwargs)
    return monitor, clock


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_backoff": -0.1},
        {"base_backoff": 2.0, "max_backoff": 1.0},
        {"jitter": -0.1},
        {"jitter": 1.0},
        {"max_backoff": -1.0},
        {"jitter": 1.5},
    ])
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(RuntimeStateError):
            HealthMonitor(**kwargs)


class TestFailureCounting:
    def test_success_resets_everything(self):
        monitor, _clock = make_monitor(jitter=0.0)
        monitor.record_failure("B")
        monitor.record_failure("B")
        assert not monitor.should_attempt("B")
        monitor.record_success("B")
        assert monitor.should_attempt("B")
        assert monitor.backoff_for("B") == 0.0
        # The streak is gone too: the next failure opens a base window.
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.1)

    def test_unknown_peer_is_not_dead(self):
        monitor, _clock = make_monitor()
        assert monitor.should_attempt("nobody")
        assert monitor.backoff_for("nobody") == 0.0


class TestBackoff:
    def test_backoff_doubles_and_caps(self):
        monitor, _clock = make_monitor(base_backoff=0.1, max_backoff=0.35,
                                       jitter=0.0)
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.1)
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.2)
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.35)  # capped
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.35)

    def test_jitter_stays_within_bounds(self):
        monitor, _clock = make_monitor(base_backoff=0.4, max_backoff=0.4,
                                       jitter=0.25, rng=random.Random(7))
        monitor.record_failure("B")
        samples = [monitor.backoff_for("B") for _ in range(200)]
        assert all(0.3 <= value <= 0.5 for value in samples)
        # Jitter actually varies the window (not a constant scaling).
        assert max(samples) - min(samples) > 0.01

    def test_jitter_is_deterministic_under_a_seeded_rng(self):
        samples = []
        for _ in range(2):
            monitor, _clock = make_monitor(base_backoff=0.4, jitter=0.25,
                                           rng=random.Random(13))
            monitor.record_failure("B")
            samples.append([monitor.backoff_for("B") for _ in range(20)])
        assert samples[0] == samples[1]

    def test_zero_jitter_returns_the_nominal_window(self):
        monitor, _clock = make_monitor(base_backoff=0.1, jitter=0.0)
        monitor.record_failure("B")
        assert monitor.backoff_for("B") == pytest.approx(0.1)

    def test_healthy_peer_has_no_jittered_backoff(self):
        monitor, _clock = make_monitor(jitter=0.5)
        assert monitor.backoff_for("B") == 0.0

    def test_should_attempt_gates_on_backoff_window(self):
        monitor, clock = make_monitor(base_backoff=0.5)
        monitor.record_failure("B")
        assert not monitor.should_attempt("B")
        clock.advance(0.49)
        assert not monitor.should_attempt("B")
        clock.advance(0.02)
        assert monitor.should_attempt("B")


def make_pool(timeout=1.0):
    registry = metrics_mod.MetricsRegistry()
    pool = SwarmPool("A", InProcFabric(), heartbeat_timeout=timeout,
                     registry=registry)
    return pool, registry


def join(pool, worker_id):
    pool.handle_control(worker_id, messages.join_message(worker_id))
    return pool._heard[worker_id]


def beat(pool, worker_id):
    pool.handle_control(worker_id, messages.Message(
        messages.HEARTBEAT, {"worker_id": worker_id}))
    return pool._heard[worker_id]


class TestTimeouts:
    """The pool's sweep is the swarm's one silence detector.  Stamps
    are real ``time.monotonic`` readings; each sweep is run at a time
    chosen relative to them."""

    def test_evict_silent_evicts_only_aged_members(self):
        pool, registry = make_pool(timeout=1.0)
        joined = join(pool, "B")
        join(pool, "C")
        time.sleep(0.05)
        assert beat(pool, "C") >= joined + 0.05  # only C stays fresh
        pool.evict_silent(joined + 1.01)
        assert pool.worker_ids == ["C"]
        assert registry.value(metrics_mod.HEARTBEAT_MISS_TOTAL,
                              downstream="B") == 1
        # Gone: not reported twice.
        pool.evict_silent(joined + 1.02)
        assert registry.value(metrics_mod.HEARTBEAT_MISS_TOTAL,
                              downstream="B") == 1
        # The sweep never declares a downstream dead: the edge
        # controller counts those, per instance.
        assert registry.values_by_label(metrics_mod.MARKED_DEAD_TOTAL,
                                        "downstream") == {}

    def test_forget(self):
        pool, _registry = make_pool()
        join(pool, "B")
        pool.handle_leave("B")
        assert "B" not in pool._heard
        assert pool.worker_ids == []

    def test_silent_from_birth_peer_is_evicted(self):
        # A worker that joins and never beats is on the clock from its
        # JOIN: it ages out like any other.
        pool, registry = make_pool(timeout=1.0)
        joined = join(pool, "B")
        pool.evict_silent(joined + 1.1)
        assert pool.worker_ids == []
        assert registry.value(metrics_mod.HEARTBEAT_MISS_TOTAL,
                              downstream="B") == 1

    def test_silent_peer_not_evicted_before_timeout(self):
        pool, registry = make_pool(timeout=1.0)
        joined = join(pool, "B")
        pool.evict_silent(joined + 0.9)
        assert pool.worker_ids == ["B"]
        assert registry.value(metrics_mod.HEARTBEAT_MISS_TOTAL,
                              downstream="B") == 0

    def test_a_member_never_heard_is_not_on_the_clock(self):
        # Admitted by an explicit deploy, never joined nor beat.
        pool, _registry = make_pool(timeout=1.0)
        pool.admit(["B"])
        pool.evict_silent(time.monotonic() + 3600.0)
        assert pool.worker_ids == ["B"]

    def test_timeout_zero_disables_sweep(self):
        # heartbeat_timeout=0 schedules no sweep on the master's loop.
        master = Master("A", InProcFabric(), None, heartbeat_timeout=0.0)
        join(master.pool, "B")
        assert master.tick(time.monotonic() + 1000.0) == float("inf")
        assert master.worker_ids == ["B"]
        master.stop()
