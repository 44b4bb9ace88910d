"""End-to-end tests for the high-level SwingRuntime."""

import pytest

from repro.core.controller import PolicyConfig
from repro.core.exceptions import RuntimeStateError
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime.app_runner import (CONTROL_INTERVAL, SwingRuntime,
                                      order_results)


def build_graph(items=20):
    return (GraphBuilder("app")
            .source("src", lambda: IterableSource(
                [{"x": i} for i in range(items)]))
            .unit("double", lambda: LambdaUnit(lambda v: {"y": v["x"] * 2}))
            .sink("snk", CollectingSink)
            .chain("src", "double", "snk")
            .build())


class TestValidation:
    def test_master_id_collision_rejected(self):
        with pytest.raises(RuntimeStateError):
            SwingRuntime(build_graph(), worker_ids=["A"], master_id="A")

    def test_needs_workers(self):
        with pytest.raises(RuntimeStateError):
            SwingRuntime(build_graph(), worker_ids=[])


class TestRun:
    @pytest.mark.parametrize("policy", ["RR", "LRS"])
    def test_all_results_delivered(self, policy):
        runtime = SwingRuntime(build_graph(items=15), worker_ids=["B", "C"],
                               source_rate=300.0,
                               config=PolicyConfig(
                                   policy=policy,
                                   control_interval=CONTROL_INTERVAL))
        results = runtime.run(until_idle=0.4, timeout=30.0)
        values = sorted(data.get_value("y") for data in results)
        assert values == [i * 2 for i in range(15)]

    def test_results_in_order_after_reordering(self):
        runtime = SwingRuntime(build_graph(items=30),
                               worker_ids=["B", "C", "D"],
                               source_rate=400.0, slowdowns={"B": 30.0},
                               config=PolicyConfig(
                                   policy="RR",
                                   control_interval=CONTROL_INTERVAL))
        results = runtime.run(until_idle=0.5, timeout=30.0)
        seqs = [data.seq for data in results]
        assert seqs == sorted(seqs)

    def test_slow_worker_gets_less_under_lrs(self):
        runtime = SwingRuntime(build_graph(items=120),
                               worker_ids=["fastw", "slobw"],
                               source_rate=300.0, slowdowns={"slobw": 400.0},
                               config=PolicyConfig(
                                   seed=1, control_interval=CONTROL_INTERVAL))
        runtime.run(until_idle=0.6, timeout=60.0)
        fast = runtime.workers["fastw"].processed_count
        slow = runtime.workers["slobw"].processed_count
        assert fast + slow > 0
        assert fast > slow

    def test_context_manager_stops(self):
        runtime = SwingRuntime(build_graph(items=5), worker_ids=["B"],
                               source_rate=200.0)
        with runtime as active:
            active.start()
        assert not runtime._running

    def test_double_start_rejected(self):
        runtime = SwingRuntime(build_graph(items=5), worker_ids=["B"],
                               source_rate=200.0)
        runtime.start()
        try:
            with pytest.raises(RuntimeStateError):
                runtime.start()
        finally:
            runtime.stop()


class TestOrderResults:
    def _tuples(self, seqs):
        return [DataTuple(values={"v": seq}, seq=seq) for seq in seqs]

    def test_orders_shuffled_results(self):
        results = order_results(self._tuples([3, 0, 2, 1]), source_rate=24.0)
        assert [data.seq for data in results] == [0, 1, 2, 3]

    def test_empty(self):
        assert order_results([], source_rate=24.0) == []

    def test_duplicates_collapsed(self):
        results = order_results(self._tuples([0, 0, 1]), source_rate=24.0)
        assert [data.seq for data in results] == [0, 1]


class TestPerformanceRequirement:
    def test_requirement_sets_source_rate(self):
        from repro.core.requirements import PerformanceRequirement
        runtime = SwingRuntime(build_graph(items=5), worker_ids=["B"],
                               requirement=PerformanceRequirement(
                                   input_rate=50.0))
        assert runtime.master.runtime.source_rate == 50.0
        assert runtime.requirement.reorder_capacity() == 50

    def test_default_requirement_from_source_rate(self):
        runtime = SwingRuntime(build_graph(items=5), worker_ids=["B"],
                               source_rate=12.0)
        assert runtime.requirement.input_rate == 12.0

    def test_meets_requirement(self):
        runtime = SwingRuntime(build_graph(items=5), worker_ids=["B"],
                               source_rate=24.0)
        assert runtime.meets_requirement(23.8)
        assert not runtime.meets_requirement(10.0)
