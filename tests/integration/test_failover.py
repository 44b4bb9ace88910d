"""Master crash-recovery: checkpointing, epoch fencing, zero-loss failover.

The recovery guarantee under a mid-run master kill + restart:

- **at-least-once × master crash**: workers keep their units through the
  outage; the successor master restores the checkpoint (membership,
  dedup high-water marks, replay retention), waits for survivors to
  re-register, and redelivers only unacknowledged retention.  The union
  of what reached the sink before and after the crash covers the whole
  stream with no duplicate — zero end-to-end loss.
- **epoch fencing**: control traffic stamped with a stale epoch after a
  recovery is rejected and counted (``swing_fenced_messages_total``) —
  a zombie predecessor cannot stop or re-deploy a worker that already
  follows the successor.
- **many pipelines**: a successor re-attaches every tenant's pipeline
  (fair-share budgets on its fresh mailbox included), so each tenant
  loses nothing and a tenant stopped before the crash stays stopped.
- **simulator parity**: the same kill/restart trace on the discrete
  engine (``scenarios.failover``) recovers with zero loss.
- **rejoin during drain**: a re-registration racing the previous
  incarnation's LEAVING drain starts from a clean slate — no stale
  failure history, no lost or duplicated tuples.
"""

import threading
import time

import pytest

from tests.integration.waiting import wait_quiescent, wait_until

from repro import metrics as metrics_mod
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.faults import (KILL_MASTER, RESTART_MASTER, FaultEvent,
                               FaultSchedule)
from repro.core.function_unit import CollectingSink, IterableSource, LambdaUnit
from repro.core.graph import GraphBuilder
from repro.core.multitenant import TenantSpec, tenant_budgets
from repro.core.overload import OverloadConfig
from repro.core.recovery import InMemoryCheckpointStore, RecoveryConfig
from repro.runtime import messages
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.chaos import ChurnHarness
from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm

TUPLES = 150
DURATION = 40.0
SETTLE = 10.0
HORIZON = DURATION - SETTLE / 2.0


def _build_runtime(store, sleep_per_tuple=0.01):
    def work(value):
        time.sleep(sleep_per_tuple)
        return {"y": value["x"] * 2}

    graph = (GraphBuilder("failover-app")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(TUPLES)]))
             .unit("double", lambda: LambdaUnit(work))
             .sink("snk", CollectingSink)
             .chain("src", "double", "snk")
             .build())
    registry = metrics_mod.MetricsRegistry()
    delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=1024,
                              dedup_window=4096, redelivery_timeout=0.4)
    runtime = SwingRuntime(
        graph, worker_ids=["B", "C"], policy="RR", source_rate=60.0,
        seed=5, registry=registry, delivery=delivery,
        heartbeat_interval=0.1, heartbeat_timeout=0.6,
        recovery=RecoveryConfig(checkpoint_interval=0.2),
        checkpoint_store=store)
    return runtime, registry


def _await_seqs(sinks, expected, timeout=40.0):
    """Poll the union of several sink instances for *expected* seqs."""
    wait_until(
        lambda: len({data.seq for sink in sinks
                     for data in sink.results}) >= expected,
        timeout=timeout, poll=0.05,
        message="%d distinct seqs across %d sink(s)"
                % (expected, len(sinks)))
    # Straggling duplicates may still be in flight; wait for the sinks
    # to go quiet instead of sleeping a fixed grace period.
    wait_quiescent(lambda: sum(len(sink.results) for sink in sinks))
    return [data.seq for sink in sinks for data in sink.results]


class TestThreadedFailover:
    def test_master_kill_and_restart_loses_nothing(self):
        store = InMemoryCheckpointStore()
        runtime, registry = _build_runtime(store)
        runtime.start()
        try:
            old_sink = runtime.sink_unit()
            # Mid-run: some tuples delivered, plenty still in flight.
            wait_until(lambda: len(old_sink.results) >= 10,
                       message="partial delivery before the crash")
            runtime.crash_master()
            assert store.load() is not None  # WAL stand-in written
            # Outage: workers keep running; nothing routes new capture.
            time.sleep(0.5)
            imported = runtime.restart_master()
            assert imported >= 0
            new_sink = runtime.sink_unit()
            assert new_sink is not old_sink  # a real successor
            got = _await_seqs([old_sink, new_sink], TUPLES)
        finally:
            runtime.stop()
        missing = sorted(set(range(TUPLES)) - set(got))
        assert missing == []
        # The restored dedup window absorbs every cross-incarnation
        # duplicate: each seq reached a sink exactly once overall.
        assert len(got) == len(set(got)) == TUPLES
        assert registry.value(metrics_mod.MASTER_RECOVERIES_TOTAL,
                              device="A") == 1
        assert registry.gauge_value(
            metrics_mod.CHECKPOINT_AGE_SECONDS) >= 0.0

    def test_workers_adopt_the_successor_epoch(self):
        store = InMemoryCheckpointStore()
        runtime, _registry = _build_runtime(store)
        runtime.start()
        try:
            assert all(worker.master_epoch == 0
                       for worker in runtime.workers.values())
            wait_until(lambda: runtime.sink_unit().results,
                       message="first delivery before the crash")
            runtime.crash_master()
            checkpointed_epoch = 0  # first incarnation never recovered
            runtime.restart_master()
            assert runtime.master.pool.epoch == checkpointed_epoch + 1
            wait_until(
                lambda: all(worker.master_epoch == runtime.master.pool.epoch
                            for worker in runtime.workers.values()),
                message="workers adopting the successor epoch")
        finally:
            runtime.stop()

    def test_stale_epoch_control_message_is_fenced(self):
        store = InMemoryCheckpointStore()
        runtime, registry = _build_runtime(store)
        runtime.start()
        try:
            wait_until(lambda: runtime.sink_unit().results,
                       message="first delivery before the crash")
            runtime.crash_master()
            runtime.restart_master()
            worker = runtime.workers["B"]
            wait_until(
                lambda: worker.master_epoch >= runtime.master.pool.epoch,
                message="worker B adopting the successor epoch")
            assert worker.master_epoch >= 1
            before = registry.value(metrics_mod.FENCED_TOTAL,
                                    device="B", kind=messages.STOP)
            # A zombie of the dead incarnation (epoch 0) orders a STOP.
            runtime.fabric.send("A", "B", messages.stop_message())
            wait_until(
                lambda: registry.value(metrics_mod.FENCED_TOTAL,
                                       device="B",
                                       kind=messages.STOP) > before,
                message="the stale STOP being fenced")
            assert registry.value(metrics_mod.FENCED_TOTAL,
                                  device="B", kind=messages.STOP) \
                == before + 1
            # The worker ignored the zombie: still serving the successor.
            assert worker.hosted_units()
        finally:
            runtime.stop()


class TestRejoinDuringDrain:
    def test_rejoin_racing_a_drain_starts_clean(self):
        store = InMemoryCheckpointStore()
        runtime, _registry = _build_runtime(store)
        runtime.start()
        try:
            sink = runtime.sink_unit()
            pool = runtime.master.pool
            wait_until(lambda: sink.results,
                       message="first delivery before the drain")
            drained = {}

            def drain():
                drained["elapsed"] = runtime.drain_worker("B", quiet=0.3)

            drain_thread = threading.Thread(target=drain)
            drain_thread.start()
            # Wait for the LEAVING to land: B leaves the routing tables
            # while its old incarnation is still draining its queue.
            wait_until(lambda: "B" not in pool.worker_ids, poll=0.01,
                       message="the LEAVING to land")
            assert "B" not in pool.worker_ids
            assert drain_thread.is_alive()  # the drain is mid-flight
            # A new incarnation re-registers during the drain.
            rejoined_at = time.monotonic()
            runtime.fabric.send("B", "A", messages.join_message("B"))
            wait_until(lambda: "B" in pool.worker_ids, poll=0.01,
                       message="the rejoin registration")
            assert "B" in pool.worker_ids
            # Clean slate: the rejoin re-stamped B's last-heard time, so
            # the silence sweep does not judge the new incarnation by
            # the departed one's last beat.
            assert pool._heard["B"] >= rejoined_at
            drain_thread.join(timeout=15.0)
            assert not drain_thread.is_alive()
            assert drained["elapsed"] >= 0.0
            got = _await_seqs([sink], TUPLES)
        finally:
            runtime.stop()
        assert sorted(set(got)) == list(range(TUPLES))
        assert len(got) == len(set(got)) == TUPLES


def _tenant_pipeline(tag, count):
    return (GraphBuilder("failover-%s" % tag)
            .source("src", lambda: IterableSource(
                [{"x": i, "tag": tag} for i in range(count)]))
            .unit("double", lambda: LambdaUnit(
                lambda value: {"y": value["x"] * 2, "tag": value["tag"]}))
            .sink("snk", CollectingSink)
            .chain("src", "double", "snk")
            .build())


def _two_tenant_runtime(store, counts):
    """Two tenant pipelines on one pool: at-least-once, checkpointed,
    heartbeating, with fair-share bounded mailboxes."""
    registry = metrics_mod.MetricsRegistry()
    delivery = DeliveryConfig(mode=AT_LEAST_ONCE, replay_capacity=1024,
                              dedup_window=4096, redelivery_timeout=0.4)
    pipelines = [(TenantSpec(tenant, input_rate=40.0),
                  _tenant_pipeline(tenant, count))
                 for tenant, count in sorted(counts.items())]
    runtime = SwingRuntime(
        pipelines, worker_ids=["B", "C"], policy="RR", seed=5,
        registry=registry, delivery=delivery,
        overload=OverloadConfig(queue_capacity=12),
        heartbeat_interval=0.1, heartbeat_timeout=0.6,
        recovery=RecoveryConfig(checkpoint_interval=0.2),
        checkpoint_store=store)
    return runtime, registry, [spec for spec, _graph in pipelines]


class TestMultiTenantFailover:
    """A master kill + restart re-attaches every tenant's pipeline."""

    def test_every_tenant_survives_a_master_outage(self):
        counts = {"alpha": 60, "beta": 60}
        runtime, registry, specs = _two_tenant_runtime(
            InMemoryCheckpointStore(), counts)
        budgets = tenant_budgets(specs, 12)
        schedule = FaultSchedule(events=(
            FaultEvent(0.5, KILL_MASTER, "A"),
            FaultEvent(1.0, RESTART_MASTER, "A")))
        runtime.start()
        try:
            old_sinks = {tenant: runtime.sink_unit(tenant)
                         for tenant in counts}
            ChurnHarness(runtime, schedule).run()
            assert registry.value(metrics_mod.MASTER_RECOVERIES_TOTAL,
                                  device="A") == 1
            assert runtime.master.runtime.mailbox.tenant_budgets == budgets
            runtime.spawn_worker("D")
            assert runtime.workers["D"].mailbox.tenant_budgets == budgets
            got = {}
            for tenant, count in counts.items():
                sinks = [old_sinks[tenant], runtime.sink_unit(tenant)]
                assert sinks[1] is not sinks[0]  # a real successor
                got[tenant] = (sinks, _await_seqs(sinks, count))
        finally:
            runtime.stop()
        for tenant, (sinks, seqs) in got.items():
            assert sorted(set(seqs)) == list(range(counts[tenant])), tenant
            # ...and each tuple reached its own tenant's sink.
            assert {data.values["tag"] for sink in sinks
                    for data in sink.results} == {tenant}

    def test_a_stopped_tenant_stays_stopped_after_failover(self):
        counts = {"alpha": 400, "beta": 60}
        runtime, _registry, _specs = _two_tenant_runtime(
            InMemoryCheckpointStore(), counts)
        runtime.start()
        try:
            wait_until(lambda: runtime.results("alpha"),
                       message="alpha's first delivery")
            runtime.stop_tenant("alpha")
            source = runtime.master.runtime.dispatcher("src", tenant="alpha")
            emitted = wait_quiescent(lambda: source.dispatched)
            old_sinks = {tenant: runtime.sink_unit(tenant)
                         for tenant in counts}
            runtime.crash_master()
            runtime.restart_master()
            sinks = {tenant: [old_sinks[tenant], runtime.sink_unit(tenant)]
                     for tenant in counts}
            _await_seqs(sinks["beta"], counts["beta"])
            seqs = set(_await_seqs(sinks["alpha"], 1))
        finally:
            runtime.stop()
        # Beta's source was restarted, alpha's was not: what alpha
        # delivered is what it had emitted before it was stopped.
        assert emitted < counts["alpha"]
        assert seqs <= set(range(emitted))


class TestSimulatorFailover:
    @pytest.fixture(scope="class")
    def at_least_once(self):
        return run_swarm(scenarios.failover(seed=11, duration=DURATION,
                                            settle=SETTLE))

    def test_schedule_kills_and_restarts_the_master(self, at_least_once):
        actions = [event.action for event in at_least_once.config.schedule]
        assert actions == ["kill_master", "restart_master"]

    def test_master_recovery_happened(self, at_least_once):
        assert at_least_once.master_recoveries == 1

    def test_zero_tuple_loss(self, at_least_once):
        assert at_least_once.end_to_end_losses(HORIZON) == []

    def test_sink_never_double_counts(self, at_least_once):
        frames = at_least_once.metrics.frames
        arrived = [seq for seq, record in frames.items()
                   if record.sink_arrived_at is not None]
        assert arrived  # the pipeline actually delivered something
        assert len(arrived) == len(set(arrived))

    def test_outage_pauses_capture(self, at_least_once):
        # No new frames are captured while the master is down; the
        # captured timeline must have a hole covering the outage.
        frames = at_least_once.metrics.frames
        config = at_least_once.config
        kill = next(e.time for e in config.schedule
                    if e.action == "kill_master")
        restart = next(e.time for e in config.schedule
                       if e.action == "restart_master")
        captured_during_outage = [
            seq for seq, record in frames.items()
            if kill + 0.5 < record.created_at < restart - 0.5]
        assert captured_during_outage == []

    def test_best_effort_still_recovers_the_master(self):
        result = run_swarm(scenarios.failover(seed=11, duration=DURATION,
                                              settle=SETTLE,
                                              at_least_once=False))
        assert result.master_recoveries == 1
        assert result.redelivered == 0  # machinery stays cold
