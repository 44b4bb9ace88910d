"""Tests for heartbeat-based failure detection.

The paper's master "constantly listens for incoming connections" and
upstreams detect broken links; the runtime implements the complementary
liveness mechanism — each worker's loop beats a heartbeat, the master
evicts silent ones and refreshes every routing table.
"""

import threading
import time

import pytest

from repro import metrics as metrics_mod
from repro.core.exceptions import DeploymentError
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource, LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.serialization import encode_tuple
from repro.runtime.worker import WorkerRuntime


def build_graph():
    return (GraphBuilder("hb")
            .source("src", lambda: IterableSource([]))
            .unit("f", lambda: LambdaUnit(lambda v: v))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


class _Wedge(FunctionUnit):
    """Holds its caller for *seconds* per tuple, then forwards it."""

    def __init__(self, seconds: float, returned: threading.Event) -> None:
        super().__init__()
        self._seconds = seconds
        self._returned = returned

    def process_data(self, data: DataTuple) -> None:
        time.sleep(self._seconds)
        self._returned.set()
        self.send(data.derive(dict(data.values)))


def wait_until(predicate, timeout=8.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestHeartbeats:
    def test_invalid_intervals_rejected(self):
        fabric = InProcFabric()
        with pytest.raises(Exception):
            WorkerRuntime("B", fabric, build_graph(), heartbeat_interval=-1.0)
        with pytest.raises(DeploymentError):
            Master("A", InProcFabric(), build_graph(),
                   heartbeat_timeout=-1.0)

    def test_worker_emits_heartbeats(self):
        fabric = InProcFabric()
        mailbox = fabric.register("A")
        worker = WorkerRuntime("B", fabric, build_graph(),
                               heartbeat_interval=0.05,
                               heartbeat_target="A")
        worker.start()
        try:
            seen = []

            def got_heartbeat():
                try:
                    sender, message = mailbox.get(timeout=0.01)
                except TimeoutError:
                    return False
                if message.kind == messages.HEARTBEAT:
                    seen.append(sender)
                return len(seen) >= 2

            assert wait_until(got_heartbeat)
            assert all(sender == "B" for sender in seen)
        finally:
            worker.stop()

    def test_silent_worker_evicted(self):
        fabric = InProcFabric()
        graph = build_graph()
        master = Master("A", fabric, graph, heartbeat_timeout=0.3)
        master.runtime.start()
        alive = WorkerRuntime("B", fabric, graph, heartbeat_interval=0.05,
                              heartbeat_target="A")
        silent = WorkerRuntime("C", fabric, graph)  # no heartbeats
        try:
            for worker in (alive, silent):
                worker.start()
                worker.join_master("A")
            assert wait_until(lambda: {"B", "C"} <= set(master.worker_ids))
            master.deploy()
            # C never beacons: the failure detector must evict it, and B
            # must survive.
            assert wait_until(lambda: "C" not in master.worker_ids,
                              timeout=5.0)
            assert "B" in master.worker_ids
            dispatcher = master.runtime.dispatcher("src")
            assert wait_until(
                lambda: dispatcher.downstream_instances() == ["f@B"])
        finally:
            master.stop()
            alive.stop()
            silent.stop()
            master.runtime.stop()

    def test_detector_disabled_by_default(self):
        # No heartbeat timeout (and no checkpoint store): the master
        # schedules no failure sweep, so its loop has nothing to wake for.
        master = Master("A", InProcFabric(), build_graph())
        assert master.tick(time.monotonic() + 3600.0) == float("inf")
        master.stop()

    def test_a_beating_worker_runs_only_its_loop_thread(self):
        fabric = InProcFabric()
        mailbox = fabric.register("A")
        before = set(threading.enumerate())
        worker = WorkerRuntime("B", fabric, build_graph(),
                               heartbeat_interval=0.05,
                               heartbeat_target="A")
        worker.start()
        try:
            sender, message = mailbox.get(timeout=5.0)
            assert (sender, message.kind) == ("B", messages.HEARTBEAT)
            started = [thread.name
                       for thread in set(threading.enumerate()) - before]
            assert started == ["worker:B"]
        finally:
            worker.stop()

    def test_a_loop_wedged_in_a_unit_is_evicted(self):
        # The loop sends the beat, so a loop stuck in one unit call for
        # longer than the timeout goes silent, and the master's sweep
        # evicts the worker before the call returns.
        fabric = InProcFabric()
        registry = metrics_mod.MetricsRegistry()
        returned = threading.Event()
        graph = (GraphBuilder("wedge")
                 .source("src", lambda: IterableSource([]))
                 .unit("f", lambda: _Wedge(2.0, returned))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        master = Master("A", fabric, graph, heartbeat_timeout=0.4,
                        registry=registry)
        master.runtime.start()
        worker = WorkerRuntime("B", fabric, graph, heartbeat_interval=0.05,
                               heartbeat_target="A", registry=registry)
        try:
            worker.start()
            worker.join_master("A")
            assert wait_until(lambda: master.worker_ids == ["B"])
            master.deploy()
            assert worker.deployed.wait(5.0)
            message = messages.data_message(
                "f", encode_tuple(DataTuple(values={"x": 1}, seq=0)), 0,
                time.monotonic())
            message.payload["edge"] = "src>f"
            fabric.send("A", "B", message)
            assert wait_until(lambda: "B" not in master.worker_ids,
                              timeout=1.5)
            assert not returned.is_set()
            assert registry.value(metrics_mod.HEARTBEAT_MISS_TOTAL,
                                  downstream="B") == 1
        finally:
            master.stop()
            worker.stop()
            master.runtime.stop()

    def test_a_dead_downstream_is_marked_dead_per_instance_only(self):
        # B crashes: every send to f@B fails and its beats stop.  The
        # edge controller marks the instance dead; the master's sweep
        # evicts the worker but declares nothing dead under its id.
        registry = metrics_mod.MetricsRegistry()
        graph = (GraphBuilder("dead")
                 .source("src", lambda: IterableSource(
                     [{"x": i} for i in range(1000)]))
                 .unit("f", lambda: LambdaUnit(lambda v: v))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        runtime = SwingRuntime(graph, worker_ids=["B", "C"], policy="RR",
                               source_rate=100.0, control_interval=0.05,
                               heartbeat_interval=0.05,
                               heartbeat_timeout=0.3, registry=registry)
        runtime.start()
        try:
            sink = runtime.sink_unit()
            assert wait_until(lambda: len(sink.results) >= 5)
            runtime.crash_worker("B")
            assert wait_until(lambda: "B" not in runtime.master.worker_ids)
            assert wait_until(lambda: registry.values_by_label(
                metrics_mod.MARKED_DEAD_TOTAL, "downstream"))
            assert set(registry.values_by_label(
                metrics_mod.MARKED_DEAD_TOTAL, "downstream")) == {"f@B"}
        finally:
            runtime.stop()
