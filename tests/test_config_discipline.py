"""One carrier for the control-plane settings.

:class:`~repro.core.controller.PolicyConfig` is the only object that
carries its fields: the simulator's experiment configs hold one, and the
threaded runtime hands the one it is given down to every edge's
dispatcher.  A layer that re-declares a field is a second copy that can
drift from the first, so the names each layer may still take are listed
here, one by one.
"""

import dataclasses
import inspect

import pytest

from repro.core.batching import BatchConfig
from repro.core.controller import PolicyConfig
from repro.core.function_unit import CollectingSink, IterableSource, LambdaUnit
from repro.core.graph import GraphBuilder
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.dispatcher import UpstreamDispatcher
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime
from repro.simulation.pipeline import PipelineConfig
from repro.simulation.swarm import SwarmConfig

POLICY_FIELDS = {field.name for field in dataclasses.fields(PolicyConfig)}

#: every PolicyConfig field name a layer still declares, and why
ALLOWED = {
    # the experiment's RNG root; the policy seed derives from it
    SwarmConfig: {"seed"},
    PipelineConfig: {"seed"},
    SwingRuntime: set(),
    UpstreamDispatcher: set(),
    # the benchmark builds both by hand with these four loose arguments;
    # they only fill in a PolicyConfig when no policy_config is given
    WorkerRuntime: {"policy", "seed", "control_interval", "delivery"},
    Master: {"policy", "seed", "control_interval", "delivery"},
}


def declared_names(layer):
    if dataclasses.is_dataclass(layer):
        return {field.name for field in dataclasses.fields(layer)}
    return set(inspect.signature(layer.__init__).parameters)


@pytest.mark.parametrize("layer", list(ALLOWED), ids=lambda layer:
                         layer.__name__)
def test_no_loose_copy_of_a_policy_config_field(layer):
    assert declared_names(layer) & POLICY_FIELDS == ALLOWED[layer]


def test_swing_runtime_hands_its_one_config_to_every_dispatcher():
    items = 40
    graph = (GraphBuilder("discipline")
             .source("src", lambda: IterableSource(
                 [{"x": i} for i in range(items)]))
             .unit("double", lambda: LambdaUnit(
                 lambda value: {"y": value["x"] * 2}))
             .sink("snk", CollectingSink)
             .chain("src", "double", "snk")
             .build())
    config = PolicyConfig(probe_every=2, ack_timeout=0.5,
                          batching=BatchConfig(8, 0.01))
    runtime = SwingRuntime(graph, worker_ids=["B", "C", "D"],
                           source_rate=400.0, config=config)
    results = runtime.run(until_idle=0.5, timeout=30.0)
    assert sorted(data.get_value("y") for data in results) == \
        [2 * i for i in range(items)]
    hosts = [runtime.master.runtime] + list(runtime.workers.values())
    dispatchers = [host.dispatcher(unit, downstream)
                   for host in hosts for unit in host.hosted_units()
                   for downstream in graph.downstreams(unit)]
    assert len(dispatchers) >= 2  # src>double, and double>snk on a worker
    for host in hosts:
        assert host.config is config
    for dispatcher in dispatchers:
        assert dispatcher.controller.config is config
