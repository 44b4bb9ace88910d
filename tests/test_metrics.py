"""Tests for the labelled counter registry."""

import threading

import pytest

from repro import metrics as metrics_mod
from repro.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_identity_includes_sorted_labels(self):
        counter = Counter("x_total", {"b": "2", "a": "1"})
        assert counter.identity() == "x_total{a=1,b=2}"

    def test_identity_without_labels(self):
        assert Counter("x_total", {}).identity() == "x_total"

    def test_inc(self):
        counter = Counter("x_total", {})
        counter.inc()
        counter.inc(2)
        assert counter.value == 3


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", downstream="B")
        second = registry.counter("x_total", downstream="B")
        assert first is second

    def test_distinct_labels_distinct_counters(self):
        registry = MetricsRegistry()
        registry.increment("x_total", downstream="B")
        registry.increment("x_total", downstream="C")
        registry.increment("x_total", downstream="C")
        assert registry.value("x_total", downstream="B") == 1
        assert registry.value("x_total", downstream="C") == 2

    def test_value_of_unknown_counter_is_zero(self):
        assert MetricsRegistry().value("nope_total", downstream="B") == 0

    def test_values_by_label(self):
        registry = MetricsRegistry()
        registry.increment("lost_total", downstream="B")
        registry.increment("lost_total", downstream="B")
        registry.increment("lost_total", downstream="G")
        registry.increment("other_total", downstream="Z")
        assert registry.values_by_label("lost_total", "downstream") \
            == {"B": 2, "G": 1}

    def test_render_and_reset(self):
        registry = MetricsRegistry()
        registry.increment("x_total", downstream="B")
        rendered = registry.render()
        assert "x_total{downstream=B} 1" in rendered
        registry.reset()
        assert registry.render() == ""

    def test_render_filter(self):
        registry = MetricsRegistry()
        registry.increment("x_total", downstream="B")
        registry.increment("y_total", downstream="B")
        rendered = registry.render(only=["y_total"])
        assert "y_total" in rendered
        assert "x_total" not in rendered

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.increment("x_total", downstream="B", reason="r")
        assert registry.snapshot() == {"x_total{downstream=B,reason=r}": 1}

    def test_thread_safety(self):
        registry = MetricsRegistry()

        def worker():
            for _ in range(1000):
                registry.increment("x_total", downstream="B")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.value("x_total", downstream="B") == 8000

    def test_module_constants_are_distinct(self):
        names = [metrics_mod.SENT_TOTAL, metrics_mod.ACKED_TOTAL,
                 metrics_mod.LOST_TOTAL, metrics_mod.REROUTED_TOTAL,
                 metrics_mod.MARKED_DEAD_TOTAL,
                 metrics_mod.RESURRECTED_TOTAL, metrics_mod.DROPPED_TOTAL,
                 metrics_mod.HEARTBEAT_MISS_TOTAL]
        assert len(set(names)) == len(names)


class TestHistogram:
    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", {}, buckets=(0.5, 0.1))
        with pytest.raises(ValueError):
            Histogram("h", {}, buckets=())

    def test_observe_accumulates(self):
        histogram = Histogram("h", {})
        for value in (0.002, 0.02, 0.2):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == pytest.approx(0.222)
        assert histogram.mean == pytest.approx(0.074)

    def test_negative_observations_clamped(self):
        histogram = Histogram("h", {})
        histogram.observe(-5.0)
        assert histogram.count == 1
        assert histogram.total == 0.0

    def test_quantiles_land_in_the_right_bucket(self):
        histogram = Histogram("h", {}, buckets=(0.1, 1.0, 10.0))
        for _ in range(90):
            histogram.observe(0.05)
        for _ in range(10):
            histogram.observe(5.0)
        assert histogram.quantile(0.5) <= 0.1
        assert 1.0 <= histogram.quantile(0.99) <= 10.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram("h", {}).quantile(0.95) == 0.0

    def test_bucket_counts_keys(self):
        histogram = Histogram("h", {}, buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(50.0)
        counts = histogram.bucket_counts()
        assert counts == {"0.1": 1, "1": 0, "+Inf": 1}

    def test_to_dict_shape(self):
        histogram = Histogram("h", {"kind": "process"})
        histogram.observe(0.3)
        view = histogram.to_dict()
        assert set(view) == {"count", "sum", "mean", "p50", "p95", "p99",
                             "buckets"}
        assert view["count"] == 1

    def test_identity_includes_labels(self):
        histogram = Histogram("h", {"kind": "transmit"})
        assert histogram.identity() == "h{kind=transmit}"


class TestRegistryHistograms:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", kind="process")
        second = registry.histogram("lat", kind="process")
        other = registry.histogram("lat", kind="transmit")
        assert first is second
        assert first is not other

    def test_observe_helper(self):
        registry = MetricsRegistry()
        registry.observe_histogram("lat", 0.25, kind="process")
        assert registry.histogram("lat", kind="process").count == 1

    def test_render_includes_histograms(self):
        registry = MetricsRegistry()
        registry.observe_histogram("lat", 0.25, kind="process")
        rendered = registry.render()
        assert "lat{kind=process} count=1" in rendered

    def test_to_dict_sections(self):
        registry = MetricsRegistry()
        registry.increment("c_total")
        registry.set_gauge("depth", 4, queue="ingress:B")
        registry.observe_histogram("lat", 0.25)
        view = registry.to_dict()
        assert view["counters"] == {"c_total": 1}
        assert view["gauges"] == {"depth{queue=ingress:B}": 4}
        assert view["histograms"]["lat"]["count"] == 1

    def test_reset_clears_histograms(self):
        registry = MetricsRegistry()
        registry.observe_histogram("lat", 0.25)
        registry.reset()
        assert registry.histograms() == []

    def test_histogram_constants_exported(self):
        assert metrics_mod.ACK_RTT_SECONDS != metrics_mod.SPAN_SECONDS
        assert metrics_mod.DEFAULT_BUCKETS == tuple(
            sorted(metrics_mod.DEFAULT_BUCKETS))
