"""Tests for worker/master deployment and membership."""

import time

import pytest

from repro import metrics as metrics_mod
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master, Placement
from repro.runtime.worker import WorkerRuntime


def build_graph(items=10):
    return (GraphBuilder("app")
            .source("src", lambda: IterableSource(
                [{"x": i} for i in range(items)]))
            .unit("f", lambda: LambdaUnit(lambda v: {"y": v["x"] + 1}))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


class TestPlacement:
    def test_default_puts_io_on_master(self):
        placement = Placement.default(build_graph(), "A", ["B", "C"])
        assert placement.workers_for("src") == ["A"]
        assert placement.workers_for("snk") == ["A"]
        assert placement.workers_for("f") == ["B", "C"]

    def test_no_workers_falls_back_to_master(self):
        placement = Placement.default(build_graph(), "A", [])
        assert placement.workers_for("f") == ["A"]

    def test_units_on(self):
        placement = Placement.default(build_graph(), "A", ["B"])
        assert placement.units_on("A") == ["snk", "src"]
        assert placement.units_on("B") == ["f"]

    def test_instances_of(self):
        placement = Placement.default(build_graph(), "A", ["B", "C"])
        assert placement.instances_of("f") == ["f@B", "f@C"]

    def test_add_remove_worker(self):
        placement = Placement.default(build_graph(), "A", ["B"])
        placement.add_worker(build_graph(), "C")
        assert placement.workers_for("f") == ["B", "C"]
        placement.remove_worker("B")
        assert placement.workers_for("f") == ["C"]

    def test_unknown_unit_rejected(self):
        from repro.core.exceptions import DeploymentError
        placement = Placement.default(build_graph(), "A", [])
        with pytest.raises(DeploymentError):
            placement.workers_for("ghost")


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestMasterWorkerFlow:
    def _swarm(self, worker_ids=("B", "C"), items=10):
        fabric = InProcFabric()
        graph = build_graph(items)
        master = Master("A", fabric, graph, policy="RR", source_rate=500.0,
                        control_interval=0.1)
        workers = {worker_id: WorkerRuntime(worker_id, fabric, graph,
                                            policy="RR")
                   for worker_id in worker_ids}
        master.runtime.start()
        for worker in workers.values():
            worker.start()
            worker.join_master("A")
        assert wait_until(lambda: set(worker_ids) <= set(master.worker_ids))
        return fabric, master, workers

    def _teardown(self, master, workers):
        master.stop()
        for worker in workers.values():
            worker.stop()
        master.runtime.stop()

    def test_join_registers_workers(self):
        _fabric, master, workers = self._swarm()
        try:
            assert sorted(master.worker_ids) == ["B", "C"]
        finally:
            self._teardown(master, workers)

    def test_deploy_activates_units(self):
        _fabric, master, workers = self._swarm()
        try:
            master.deploy()
            assert wait_until(lambda: workers["B"].hosted_units() == ["f"])
            assert wait_until(
                lambda: master.runtime.hosted_units() == ["snk", "src"])
        finally:
            self._teardown(master, workers)

    def test_start_before_deploy_rejected(self):
        from repro.core.exceptions import DeploymentError
        _fabric, master, workers = self._swarm()
        try:
            with pytest.raises(DeploymentError):
                master.start()
        finally:
            self._teardown(master, workers)

    def test_end_to_end_results(self):
        _fabric, master, workers = self._swarm(items=8)
        try:
            master.deploy()
            assert wait_until(lambda: workers["B"].deployed.is_set())
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) == 8, timeout=10.0)
            values = sorted(data.get_value("y") for data in sink.results)
            assert values == list(range(1, 9))
        finally:
            self._teardown(master, workers)

    def test_work_spread_across_workers(self):
        _fabric, master, workers = self._swarm(items=20)
        try:
            master.deploy()
            assert wait_until(lambda: workers["C"].deployed.is_set())
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) == 20, timeout=10.0)
            # RR must have split the 20 tuples between B and C.
            assert workers["B"].processed_count == 10
            assert workers["C"].processed_count == 10
        finally:
            self._teardown(master, workers)

    def test_late_join_deployed_and_routed(self):
        fabric, master, workers = self._swarm(worker_ids=("B",), items=0)
        try:
            master.deploy()
            late = WorkerRuntime("D", fabric, build_graph(), policy="RR")
            late.start()
            late.join_master("A")
            assert wait_until(lambda: "D" in master.worker_ids)
            assert wait_until(lambda: late.hosted_units() == ["f"])
            dispatcher = master.runtime.dispatcher("src")
            assert wait_until(
                lambda: "f@D" in dispatcher.downstream_instances())
            late.stop()
        finally:
            self._teardown(master, workers)

    def test_leave_removes_instances(self):
        _fabric, master, workers = self._swarm(items=0)
        try:
            master.deploy()
            assert wait_until(lambda: master.runtime.deployed.is_set())
            master.handle_leave("C")
            dispatcher = master.runtime.dispatcher("src")
            assert wait_until(
                lambda: dispatcher.downstream_instances() == ["f@B"])
        finally:
            self._teardown(master, workers)

    def test_unsendable_control_frame_is_counted_not_fatal(self):
        fabric, master, workers = self._swarm(worker_ids=("B", "C", "D"),
                                              items=0)
        try:
            master.deploy()
            assert wait_until(lambda: workers["C"].deployed.is_set())
            # B's endpoint vanishes without a LEAVE; D's departure then
            # re-sends DEPLOY to A, B (gone) and C, in that order.
            fabric.unregister("B")
            workers["C"].deployed.clear()
            master.handle_leave("D")
            assert wait_until(lambda: workers["C"].deployed.is_set())
            assert master.registry.value(
                metrics_mod.DROPPED_TOTAL, reason="control_unsent",
                link="A>B") == 1
            dispatcher = master.runtime.dispatcher("src")
            assert wait_until(lambda: dispatcher.downstream_instances()
                              == ["f@B", "f@C"])
        finally:
            self._teardown(master, workers)

    def test_duplicate_join_ignored(self):
        _fabric, master, workers = self._swarm()
        try:
            master.handle_join("B")
            assert master.worker_ids.count("B") == 1
        finally:
            self._teardown(master, workers)


class TestSourcePumpShutdown:
    def test_stop_does_not_wait_out_the_source_interval(self):
        # Regression: the source pump used to pace with time.sleep(), so
        # stop() blocked for up to a full source interval (5 s here).
        fabric = InProcFabric()
        graph = build_graph(items=1000)
        master = Master("A", fabric, graph, policy="RR", source_rate=0.2,
                        control_interval=0.1)
        master.runtime.start()
        try:
            master.deploy()
            assert wait_until(lambda: master.runtime.deployed.is_set())
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) >= 1, timeout=5.0)
        finally:
            started = time.monotonic()
            master.stop()
            master.runtime.stop()
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
