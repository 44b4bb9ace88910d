"""Each runtime has one timer: its worker loop.

The loop runs whatever is due — every edge's control round and partial
batch flush, the master's failure sweep and periodic checkpoint — and
then blocks on its mailbox until the earliest next deadline.  So a
round runs on an idle edge (at-least-once redelivery needs no live
traffic), an idle worker wakes only when something is due, and the
master owns no thread of its own.
"""

import threading
import time

from repro import metrics as metrics_mod
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.recovery import InMemoryCheckpointStore, RecoveryConfig
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.serialization import encode_tuple
from repro.runtime.worker import WorkerRuntime


def build_graph():
    return (GraphBuilder("clock")
            .source("src", lambda: IterableSource([]))
            .unit("f", lambda: LambdaUnit(lambda v: v))
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


def _deployed_f_on_b(fabric, **kwargs):
    """Worker B hosting ``f`` with the edge ``f>snk`` -> ``snk@A``."""
    worker = WorkerRuntime("B", fabric, build_graph(), **kwargs)
    worker.start()
    fabric.send("M", "B", messages.deploy_message("B", ["f"],
                                                  {"f>snk": ["snk@A"]}))
    assert worker.deployed.wait(2.0)
    return worker


class TestIdleEdgeRedelivery:
    def test_idle_edge_redelivers_an_unacked_result(self):
        # A is a bare mailbox that never ACKs, and nothing but the one
        # DATA ever reaches B: only a round run by B's own timer can
        # sweep the retained result into redelivery.
        fabric = InProcFabric()
        sink = fabric.register("A")
        upstream = fabric.register("S")
        fabric.register("M")
        worker = _deployed_f_on_b(
            fabric, control_interval=0.1,
            delivery=DeliveryConfig(mode=AT_LEAST_ONCE,
                                    redelivery_timeout=0.2))
        try:
            message = messages.data_message(
                "f", encode_tuple(DataTuple(values={"x": 1}, seq=0)), 0,
                time.monotonic())
            message.payload["edge"] = "src>f"
            fabric.send("S", "B", message)
            assert upstream.get(timeout=1.0)[1].kind == messages.ACK
            attempts = []
            deadline = time.monotonic() + 1.0
            while 2 not in attempts and time.monotonic() < deadline:
                try:
                    _sender, frame = sink.get(
                        timeout=max(0.0, deadline - time.monotonic()))
                except TimeoutError:
                    break
                if frame.kind == messages.DATA:
                    attempts.append(frame.payload.get("delivery_attempt", 1))
            assert attempts[:1] == [1]
            assert 2 in attempts
        finally:
            worker.stop()


class TestIdleWakeUps:
    def test_idle_worker_wakes_only_for_its_control_rounds(self):
        fabric = InProcFabric()
        fabric.register("A")
        fabric.register("M")
        worker = _deployed_f_on_b(fabric, control_interval=1.0)
        gets = []
        mailbox = worker.mailbox
        unwrapped = mailbox.get

        def counting_get(timeout=None):
            gets.append(timeout)
            return unwrapped(timeout=timeout)

        try:
            time.sleep(0.05)  # let the loop block after the DEPLOY
            mailbox.get = counting_get
            time.sleep(2.0)
            # One round per second on the one edge: two or three waits.
            assert len(gets) <= 4
        finally:
            worker.stop()


class TestMasterClock:
    def test_stop_is_prompt_and_leaves_no_detector_thread(self):
        master = Master("A", InProcFabric(), build_graph(),
                        heartbeat_timeout=10.0)
        master.runtime.start()
        try:
            started = time.monotonic()
            master.stop()
            assert time.monotonic() - started < 0.2
        finally:
            master.runtime.stop()
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("failure-detector")]

    def test_idle_master_keeps_its_checkpoint_cadence(self):
        # No heartbeats and no traffic: the periodic checkpoint is a
        # deadline on the master's loop, not a rider on control frames.
        store = InMemoryCheckpointStore()
        runtime = SwingRuntime(
            build_graph(), worker_ids=["B"], checkpoint_store=store,
            recovery=RecoveryConfig(checkpoint_interval=0.2),
            heartbeat_interval=0, registry=metrics_mod.MetricsRegistry())
        runtime.start()
        try:
            before = store.writes
            time.sleep(2.0)
            assert store.writes - before >= 5
        finally:
            runtime.stop()
