"""Failure-injection tests for the threaded runtime.

The paper's Background Service keeps Swing alive in hostile conditions;
these tests inject faults — poison tuples, crashing units, abrupt worker
death mid-stream — and assert the rest of the swarm keeps serving.
"""

import time

import pytest

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      IterableSource, LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.fabric import InProcFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class FlakyUnit(FunctionUnit):
    """Crashes on every tuple whose value is marked poisonous."""

    def process_data(self, data: DataTuple) -> None:
        if data.get_value("x") == "poison":
            raise ValueError("boom")
        self.send(data.derive({"y": data.get_value("x")}))


def flaky_graph(payloads):
    return (GraphBuilder("flaky")
            .source("src", lambda: IterableSource(payloads))
            .unit("f", FlakyUnit)
            .sink("snk", CollectingSink)
            .chain("src", "f", "snk")
            .build())


def start_swarm(graph, worker_ids=("B",), policy="RR", source_rate=200.0,
                registry=None):
    fabric = InProcFabric()
    master = Master("A", fabric, graph, policy=policy,
                    source_rate=source_rate, control_interval=0.1)
    workers = {wid: WorkerRuntime(wid, fabric, graph, policy=policy,
                                  registry=registry)
               for wid in worker_ids}
    master.runtime.start()
    for worker in workers.values():
        worker.start()
        worker.join_master("A")
    wait_until(lambda: set(worker_ids) <= set(master.worker_ids))
    master.deploy()
    wait_until(lambda: all(w.deployed.is_set() for w in workers.values()))
    return fabric, master, workers


def stop_swarm(master, workers):
    master.stop()
    for worker in workers.values():
        worker.stop()
    master.runtime.stop()


class TestPoisonTuples:
    def test_crashing_tuple_does_not_kill_worker(self):
        payloads = [{"x": 1}, {"x": "poison"}, {"x": 3}]
        registry = metrics_mod.MetricsRegistry()
        _f, master, workers = start_swarm(flaky_graph(payloads),
                                          registry=registry)
        try:
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) == 2)
            values = sorted(data.get_value("y") for data in sink.results)
            assert values == [1, 3]
            # The worker survived and keeps counting work.
            assert workers["B"].processed_count >= 2
            # The tuple it could not serve is counted, not silent.
            assert registry.value(metrics_mod.DROPPED_TOTAL,
                                  reason="handler_error", link="?>B") == 1
        finally:
            stop_swarm(master, workers)

    def test_malformed_control_message_ignored(self):
        _f, master, workers = start_swarm(flaky_graph([{"x": 7}]))
        try:
            fabric = master.fabric
            # Garbage DATA frame for an unknown unit: must be dropped.
            fabric.send("A", "B", messages.Message(
                messages.DATA, {"unit": "ghost", "tuple": b"\xff",
                                "seq": 0, "sent_at": 0.0}))
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) == 1)
        finally:
            stop_swarm(master, workers)


class TestWorkerDeath:
    def test_stream_survives_worker_dying_mid_run(self):
        items = 60
        payloads = [{"x": i} for i in range(items)]
        graph = (GraphBuilder("death")
                 .source("src", lambda: IterableSource(payloads))
                 .unit("f", lambda: LambdaUnit(lambda v: {"y": v["x"]}))
                 .sink("snk", CollectingSink)
                 .chain("src", "f", "snk")
                 .build())
        fabric, master, workers = start_swarm(graph, worker_ids=("B", "C"),
                                              policy="LRS", source_rate=80.0)
        try:
            master.start()
            sink = master.runtime.unit("snk")
            assert wait_until(lambda: len(sink.results) >= 10)
            # C dies abruptly: its endpoint vanishes from the fabric.
            workers["C"].stop()
            fabric.unregister("C")
            master.handle_leave("C")
            # The remaining worker finishes the stream (some in-flight
            # tuples on C may be lost, like the paper's 13 frames).
            assert wait_until(
                lambda: len(sink.results) >= items - 15, timeout=20.0)
            dispatcher = master.runtime.dispatcher("src")
            assert dispatcher.downstream_instances() == ["f@B"]
        finally:
            stop_swarm(master, workers)

    def test_send_failure_triggers_immediate_reroute(self):
        # Even before the master notices, the dispatcher reroutes a tuple
        # whose send raises (paper Sec. IV-C link-break handling).
        from repro.runtime.dispatcher import UpstreamDispatcher
        sent = []

        def send(worker_id, message):
            if worker_id == "dead":
                raise ConnectionError("gone")
            sent.append(worker_id)

        dispatcher = UpstreamDispatcher("src", send=send,
                                        config=PolicyConfig(policy="RR"))
        dispatcher.set_downstreams(["f@dead", "f@alive"])
        for seq in range(4):
            dispatcher.dispatch(DataTuple(values={}, seq=seq))
        assert sent and all(worker == "alive" for worker in sent)
