"""Tests for heartbeat-based failure detection.

The paper's master "constantly listens for incoming connections" and
upstreams detect broken links; the runtime implements the complementary
liveness mechanism — workers beacon heartbeats, the master evicts silent
ones and refreshes every routing table.
"""

import time

import pytest

from repro.core.exceptions import DeploymentError
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime


def build_graph():
    return (GraphBuilder("hb")
            .source("src", lambda: IterableSource([]))
            .unit("f", lambda: LambdaUnit(lambda v: v))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


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
                from repro.runtime import messages
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
