"""Edge-case tests for worker/master lifecycle paths."""

import time

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import DeploymentError, RuntimeStateError
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource, LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime import messages
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime


def build_graph(items=0):
    return (GraphBuilder("edges")
            .source("src", lambda: IterableSource(
                [{"x": i} for i in range(items)]))
            .unit("f", lambda: LambdaUnit(lambda v: v))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWorkerLifecycle:
    def test_double_start_rejected(self):
        worker = WorkerRuntime("B", InProcFabric(), build_graph())
        worker.start()
        try:
            with pytest.raises(RuntimeStateError):
                worker.start()
        finally:
            worker.stop()

    def test_negative_slowdown_rejected(self):
        with pytest.raises(RuntimeStateError):
            WorkerRuntime("B", InProcFabric(), build_graph(), slowdown=-1.0)

    def test_stop_idempotent(self):
        worker = WorkerRuntime("B", InProcFabric(), build_graph())
        worker.start()
        worker.stop()
        worker.stop()  # no error

    @pytest.mark.parametrize("stuck", [False, True])
    def test_leave_at_its_timeout_is_not_a_clean_drain(self, stuck):
        fabric = InProcFabric()
        fabric.register("A")  # somewhere for LEAVING to go
        registry = metrics_mod.MetricsRegistry()
        worker = WorkerRuntime("B", fabric, build_graph(), registry=registry)
        worker.start()
        if stuck:
            worker.busy = lambda key_range=None: True
        worker.leave("A", quiet=0.02, timeout=0.1)
        assert not worker.alive()  # it departs either way
        assert registry.value(metrics_mod.DRAIN_TIMEOUTS_TOTAL,
                              device="B") == (1 if stuck else 0)
        assert registry.histogram(metrics_mod.DRAIN_SECONDS,
                                  device="B").count == 1

    def test_unit_accessor_before_deploy_raises(self):
        worker = WorkerRuntime("B", InProcFabric(), build_graph())
        with pytest.raises(DeploymentError):
            worker.unit("f")
        with pytest.raises(DeploymentError):
            worker.dispatcher("f")

    def test_edge_key_format(self):
        assert WorkerRuntime.edge_key("src", "f") == "src>f"

    def test_bad_factory_rejected_at_activation(self):
        graph = (GraphBuilder("bad")
                 .source("src", lambda: IterableSource([]))
                 .unit("f", lambda: object())  # not a FunctionUnit
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        fabric = InProcFabric()
        worker = WorkerRuntime("B", fabric, graph)
        worker.start()
        try:
            fabric.send("X", "B", messages.deploy_message("B", ["f"], {}))
            time.sleep(0.2)
            # The deploy failed inside the loop; the unit never activated
            # and the worker thread survived the exception.
            assert worker.hosted_units() == []
            assert worker._thread.is_alive()
        finally:
            worker.stop()


class TestRedeployment:
    def test_redeploy_removes_stale_units(self):
        fabric = InProcFabric()
        worker = WorkerRuntime("B", fabric, build_graph())
        worker.start()
        try:
            fabric.send("X", "B", messages.deploy_message("B", ["f"], {}))
            assert wait_until(lambda: worker.hosted_units() == ["f"])
            worker.deployed.clear()
            fabric.send("X", "B", messages.deploy_message("B", [], {}))
            assert wait_until(lambda: worker.deployed.is_set())
            assert worker.hosted_units() == []
        finally:
            worker.stop()

    def test_redeploy_is_idempotent_for_existing_units(self):
        fabric = InProcFabric()
        worker = WorkerRuntime("B", fabric, build_graph())
        worker.start()
        try:
            for _ in range(2):
                fabric.send("X", "B", messages.deploy_message("B", ["f"], {}))
            assert wait_until(lambda: worker.hosted_units() == ["f"])
            unit_before = worker.unit("f")
            fabric.send("X", "B", messages.deploy_message("B", ["f"], {}))
            time.sleep(0.2)
            # The same instance survives repeated deploys (state kept).
            assert worker.unit("f") is unit_before
        finally:
            worker.stop()


class TestMasterEdges:
    def test_join_before_deploy_waits(self):
        fabric = InProcFabric()
        master = Master("A", fabric, build_graph())
        master.runtime.start()
        worker = WorkerRuntime("B", fabric, build_graph())
        worker.start()
        try:
            worker.join_master("A")
            assert wait_until(lambda: "B" in master.worker_ids)
            # No deploy yet: the worker hosts nothing.
            time.sleep(0.1)
            assert worker.hosted_units() == []
            master.deploy()
            assert wait_until(lambda: worker.hosted_units() == ["f"])
        finally:
            master.stop()
            worker.stop()
            master.runtime.stop()

    def test_leave_of_unknown_worker_harmless(self):
        master = Master("A", InProcFabric(), build_graph())
        master.handle_leave("ghost")  # no error
        master.stop()

    def test_stop_unreachable_worker_tolerated(self):
        fabric = InProcFabric()
        master = Master("A", fabric, build_graph())
        master.runtime.start()
        worker = WorkerRuntime("B", fabric, build_graph())
        worker.start()
        try:
            worker.join_master("A")
            assert wait_until(lambda: "B" in master.worker_ids)
            master.deploy()
            fabric.unregister("B")  # B's endpoint vanishes
            master.stop()           # must not raise on the dead send
        finally:
            worker.stop()
            master.runtime.stop()
