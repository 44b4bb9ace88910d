"""Non-chain graph shapes on the threaded runtime.

The paper's API supports units with "multiple upstream or downstream
units" (Sec. IV-A).  A tuple emitted by a unit goes to EVERY downstream
logical unit (one replica each, chosen by that edge's policy); a unit
with several upstreams receives the union of their outputs.
"""

import pytest

from repro.core.controller import PolicyConfig
from repro.core.function_unit import (CollectingSink, IterableSource,
                                      LambdaUnit)
from repro.core.graph import GraphBuilder
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime

ITEMS = 12


def fan_out_graph():
    """source -> {double, square} -> sink (a diamond)."""
    return (GraphBuilder("diamond")
            .source("src", lambda: IterableSource(
                [{"x": i} for i in range(ITEMS)]))
            .unit("double", lambda: LambdaUnit(
                lambda v: {"value": v["x"] * 2, "kind": "double"}))
            .unit("square", lambda: LambdaUnit(
                lambda v: {"value": v["x"] ** 2, "kind": "square"}))
            .sink("snk", CollectingSink)
            .connect("src", "double").connect("src", "square")
            .connect("double", "snk").connect("square", "snk")
            .build())


class TestDiamondGraph:
    @pytest.fixture(scope="class")
    def results(self):
        runtime = SwingRuntime(fan_out_graph(), worker_ids=["B", "C"],
                               source_rate=150.0,
                               config=PolicyConfig(
                                   policy="RR",
                                   control_interval=CONTROL_INTERVAL))
        return runtime.run(until_idle=0.6, timeout=60.0, reorder=False)

    def test_every_tuple_reaches_both_branches(self, results):
        # Each source tuple produces one result per branch: 2N total.
        assert len(results) == 2 * ITEMS

    def test_branch_outputs_correct(self, results):
        doubles = sorted(data.get_value("value") for data in results
                         if data.get_value("kind") == "double")
        squares = sorted(data.get_value("value") for data in results
                         if data.get_value("kind") == "square")
        assert doubles == [i * 2 for i in range(ITEMS)]
        assert squares == sorted(i ** 2 for i in range(ITEMS))

    def test_each_seq_arrives_exactly_twice(self, results):
        from collections import Counter
        counts = Counter(data.seq for data in results)
        assert all(count == 2 for count in counts.values())


class TestLongerChain:
    def test_four_stage_chain(self):
        graph = (GraphBuilder("deep")
                 .source("src", lambda: IterableSource(
                     [{"x": i} for i in range(8)]))
                 .unit("a", lambda: LambdaUnit(lambda v: {"x": v["x"] + 1}))
                 .unit("b", lambda: LambdaUnit(lambda v: {"x": v["x"] * 10}))
                 .unit("c", lambda: LambdaUnit(lambda v: {"x": v["x"] - 5}))
                 .sink("snk", CollectingSink)
                 .chain("src", "a", "b", "c", "snk")
                 .build())
        runtime = SwingRuntime(graph, worker_ids=["B", "C", "D"],
                               source_rate=150.0)
        results = runtime.run(until_idle=0.6, timeout=60.0)
        values = sorted(data.get_value("x") for data in results)
        assert values == sorted((i + 1) * 10 - 5 for i in range(8))
