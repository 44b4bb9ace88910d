"""Acceptance tests for keyed stateful operators (ISSUE 9).

Two halves, mirroring the two substrates:

* **Simulator** — the Zipf(1.2) skew scenario on four workers: static
  hash routing collapses (the hot range's owner saturates and
  socket-window backpressure stalls the whole dispatch loop), while
  hot-range splitting recovers the SLO-bounded throughput, and every
  mid-run split/migration is lossless under at-least-once delivery.
* **Threaded runtime** — a real keyed pipeline on real threads: a
  mid-run split + state migration through ``migrate_range`` loses zero
  tuples, and the per-key state lands intact on the new owner.
"""

from collections import Counter

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import (CollectingSink, FunctionUnit,
                                      SourceUnit)
from repro.core.graph import GraphBuilder
from repro.core.keyed import KeyedConfig, hash_key
from repro.core.tuples import DataTuple, TupleSchema
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime
from repro.runtime.dispatcher import instance_id
from repro.runtime.migration import migrate_range
from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm

from tests.integration.waiting import wait_until

# -- simulator half ------------------------------------------------------

_DURATION = 40.0
_BOUND = 1.0  # p99-style SLO: completions within 1 s end-to-end
_WARMUP = 5.0
_RESULTS = {}


def _skew_result(split_enabled):
    """One sim run per variant, shared across the assertions below."""
    if split_enabled not in _RESULTS:
        _RESULTS[split_enabled] = run_swarm(scenarios.skew(
            duration=_DURATION, input_rate=16.0,
            split_enabled=split_enabled))
    return _RESULTS[split_enabled]


class TestSimSkewAcceptance:
    def test_static_routing_saturates_hot_owner(self):
        static = _skew_result(split_enabled=False)
        assert static.key_splits == 0
        # the hot range's owner is overloaded: almost nothing meets the
        # bound once queues build up
        assert static.bounded_throughput(_BOUND, warmup=_WARMUP) < 8.0

    def test_splitting_recovers_bounded_throughput_1_5x(self):
        static = _skew_result(split_enabled=False)
        split = _skew_result(split_enabled=True)
        recovered = split.bounded_throughput(_BOUND, warmup=_WARMUP)
        baseline = static.bounded_throughput(_BOUND, warmup=_WARMUP)
        assert split.key_splits >= 1, "hot-range detector never fired"
        assert recovered >= 1.5 * max(baseline, 0.1), (
            "splitting recovered %.2f FPS vs static %.2f FPS"
            % (recovered, baseline))

    def test_migrations_are_lossless(self):
        split = _skew_result(split_enabled=True)
        assert split.key_moves_by_reason.get("hot_split", 0) >= 1
        # judge only frames old enough for any redelivery to have landed
        assert split.end_to_end_losses(_DURATION - 10.0) == []

    def test_hot_ranges_counted(self):
        split = _skew_result(split_enabled=True)
        assert split.hot_ranges_detected >= 1


# -- threaded-runtime half -----------------------------------------------

_KEYED_SCHEMA = TupleSchema.of("user", "n")
_TUPLE_COUNT = 400
_KEY_COUNT = 8


class _KeyedSource(SourceUnit):
    """Seq-stamped keyed tuples cycling over a fixed user population."""

    def __init__(self):
        super().__init__()
        self._seq = 0

    def generate(self):
        if self._seq >= _TUPLE_COUNT:
            return None
        seq = self._seq
        self._seq += 1
        user = "user-%d" % (seq % _KEY_COUNT)
        return DataTuple(values={"user": user, "n": seq}, seq=seq,
                         schema=_KEYED_SCHEMA,
                         created_at=self.context.now(), key=user)


class _CountingUnit(FunctionUnit):
    """Stateful pass-through: counts per key, forwards every tuple."""

    stateful = True

    def process_data(self, data):
        user = data.get_value("user")
        state = self.context.state.load(user) or {"count": 0}
        state["count"] += 1
        self.context.state.store(user, state)
        self.send(data)


def _build_keyed_graph():
    return (GraphBuilder("keyed-count")
            .source("feed", _KeyedSource, output_schema=_KEYED_SCHEMA)
            .unit("count", _CountingUnit, output_schema=_KEYED_SCHEMA)
            .sink("collect", CollectingSink)
            .chain("feed", "count", "collect")
            .build())


class TestRuntimeSplitMigration:
    def test_mid_run_split_and_migration_lose_zero_tuples(self):
        registry = metrics_mod.MetricsRegistry()
        runtime = SwingRuntime(
            _build_keyed_graph(), worker_ids=["B", "C"], master_id="A",
            source_rate=200.0, registry=registry,
            config=PolicyConfig(
                policy="RR", seed=3, control_interval=CONTROL_INTERVAL,
                delivery=DeliveryConfig(mode=AT_LEAST_ONCE,
                                        replay_capacity=4096,
                                        dedup_window=8192,
                                        max_delivery_attempts=8),
                keyed=KeyedConfig(key_count=_KEY_COUNT,
                                  split_enabled=False)))
        runtime.start()
        try:
            dispatcher = runtime.master.runtime.dispatcher("feed", "count")
            table = dispatcher.controller.key_table
            assert table is not None
            sink = runtime.sink_unit()
            wait_until(lambda: len(sink.results) >= 20,
                       message="the stream reaching steady state")
            owner_b = instance_id("count", "B")
            whole = table.ranges_owned_by(owner_b)[0]
            # the load-driven shape: split B's range, migrate the upper
            # half (state included) to C while the source keeps emitting
            _, upper = dispatcher.controller.split_range(whole)
            moved = migrate_range(
                dispatcher, upper, runtime.workers["B"],
                runtime.workers["C"], instance_id("count", "C"), "count",
                reason="hot_split", registry=registry)
            assert table.owner(upper) == instance_id("count", "C")
            # zero loss: every sequence reaches the sink exactly once
            expected = set(range(_TUPLE_COUNT))
            wait_until(
                lambda: {data.seq for data in sink.results} >= expected,
                timeout=60.0, poll=0.1,
                message="the full stream surviving the migration")
            seen = [data.seq for data in sink.results]
            missing = expected - set(seen)
            assert not missing, "lost %d tuples across the migration: %s" \
                % (len(missing), sorted(missing)[:10])
            duplicates = [seq for seq, cnt in Counter(seen).items()
                          if cnt > 1]
            assert not duplicates, "sink dedup let duplicates through"
            # state landed intact: the migrated keys live on C only, and
            # per-key counts across both stores cover every tuple
            store_b = runtime.workers["B"].state_store("count")
            store_c = runtime.workers["C"].state_store("count")
            migrated = {key for key in store_c.keys()
                        if upper.contains(hash_key(key))}
            assert any(upper.contains(hash_key("user-%d" % i))
                       for i in range(_KEY_COUNT)), "split range held no key"
            assert migrated, "no migrated state on the new owner"
            assert not any(upper.contains(hash_key(key))
                           for key in store_b.keys())
            total = sum((store_b.load(key) or {"count": 0})["count"]
                        for key in store_b.keys())
            total += sum((store_c.load(key) or {"count": 0})["count"]
                        for key in store_c.keys())
            # at-least-once: every tuple counted at least once (cross-
            # worker redelivery may double-process, never lose)
            assert total >= _TUPLE_COUNT
            assert moved >= 0
            assert registry.value(metrics_mod.KEY_RANGE_MOVES_TOTAL,
                                  reason="hot_split",
                                  edge="feed>count") == 1
        finally:
            runtime.stop()
