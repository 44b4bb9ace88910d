"""The keyed per-user aggregation sensing app, units and end to end."""

from collections import Counter

from repro.apps.sensing.pipeline import (AGGREGATE_SCHEMA, ZipfKeyStream,
                                         WindowedAggregateUnit,
                                         build_sensing_graph)
from repro.core.controller import PolicyConfig
from repro.core.function_unit import UnitContext
from repro.core.keyed import KeyedConfig
from repro.core.tuples import DataTuple
from repro.runtime.app_runner import CONTROL_INTERVAL, SwingRuntime


class TestZipfKeyStream:
    def test_deterministic_per_seed(self):
        a = [ZipfKeyStream(16, seed=3).draw() for _ in range(50)]
        b = [ZipfKeyStream(16, seed=3).draw() for _ in range(50)]
        assert a == b

    def test_skew_favours_low_ranks(self):
        counts = Counter(ZipfKeyStream(16, alpha=1.2, seed=1).draw()
                         for _ in range(2000))
        assert counts["user-0"] > counts.get("user-8", 0)
        # the head of a Zipf(1.2) over 16 keys carries >20% of the mass
        assert counts["user-0"] / 2000 > 0.2

    def test_keys_stay_in_population(self):
        stream = ZipfKeyStream(4, seed=0)
        assert {stream.draw() for _ in range(200)} <= {
            "user-0", "user-1", "user-2", "user-3"}


class TestWindowedAggregateUnit:
    def _drive(self, unit, readings):
        emitted = []
        clock = {"now": 0.0}
        unit.bind(UnitContext(unit_name="aggregate", instance_id="aggregate@T",
                              emit=emitted.append, now=lambda: clock["now"]))
        for now, user, reading in readings:
            clock["now"] = now
            unit.process_data(DataTuple(
                values={"user": user, "reading": reading}, seq=len(emitted),
                created_at=now, key=user))
        return emitted

    def test_emits_closed_windows_per_user(self):
        unit = WindowedAggregateUnit(window=1.0)
        emitted = self._drive(unit, [(0.1, "user-0", 2.0),
                                     (0.5, "user-0", 4.0),
                                     (1.2, "user-0", 9.0)])
        assert len(emitted) == 1
        window = emitted[0]
        assert window.schema is AGGREGATE_SCHEMA
        assert window.get_value("count") == 2
        assert window.get_value("mean") == 3.0
        assert window.get_value("user") == "user-0"

    def test_keys_do_not_interfere(self):
        unit = WindowedAggregateUnit(window=1.0)
        emitted = self._drive(unit, [(0.1, "user-0", 1.0),
                                     (1.2, "user-1", 1.0)])
        assert emitted == []  # user-1's first window is still open

    def test_declares_stateful(self):
        # the hosting worker keys off this to provision migratable state
        assert WindowedAggregateUnit.stateful is True


class TestSensingGraph:
    def test_graph_shape(self):
        graph = build_sensing_graph()
        assert graph.stages() == ["sensor", "aggregate", "collect"]

    def test_end_to_end_keyed_runtime(self):
        graph = build_sensing_graph(reading_count=60, key_count=8,
                                    alpha=1.2, window=0.2, seed=7)
        runtime = SwingRuntime(
            graph, worker_ids=["B", "C"], source_rate=120.0,
            config=PolicyConfig(policy="RR", seed=3,
                                control_interval=CONTROL_INTERVAL,
                                keyed=KeyedConfig(key_count=8, zipf_alpha=1.2,
                                                  split_enabled=False)))
        results = runtime.run(until_idle=1.0, timeout=60.0)
        assert results, "no windows closed"
        # every closed window is a real aggregate over [min, max]
        for window in results:
            assert window.get_value("count") >= 1
            assert (window.get_value("minimum") <= window.get_value("mean")
                    <= window.get_value("maximum"))
