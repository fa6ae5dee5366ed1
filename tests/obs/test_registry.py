"""The metrics registry: instruments, labels, scoping, lazy bindings."""

import pytest

from repro.obs.registry import (
    DEFAULT_NS_BUCKETS,
    Registry,
    format_value,
    render_sample_key,
)
from repro.obs.tracing import TraceRecorder
from repro.perf.clock import SimClock


class TestCounter:
    def test_inc_accumulates(self):
        registry = Registry()
        counter = registry.counter("a_total")
        counter.inc()
        counter.inc(4)
        assert registry.value("a_total") == 5

    def test_negative_increment_rejected(self):
        counter = Registry().counter("a_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_same_name_same_labels_is_same_instrument(self):
        registry = Registry()
        assert registry.counter("a_total", x=1) is registry.counter(
            "a_total", x=1
        )

    def test_same_name_different_labels_are_distinct(self):
        registry = Registry()
        registry.counter("a_total", x=1).inc(2)
        registry.counter("a_total", x=2).inc(3)
        assert registry.value("a_total", x=1) == 2
        assert registry.value("a_total", x=2) == 3
        assert registry.value("a_total") == 5  # sums across label sets


class TestGauge:
    def test_kind_conflict_raises(self):
        registry = Registry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper(self):
        hist = Registry().histogram("h_ns", buckets=(10.0, 100.0))
        hist.observe(10.0)   # lands in the first bucket (le=10)
        hist.observe(10.5)   # second bucket
        hist.observe(1000.0)  # beyond the last edge: +Inf only
        assert hist.bucket_counts == [1, 1]
        assert hist.cumulative() == [1, 2]
        assert hist.count == 3
        assert hist.sum == pytest.approx(1020.5)

    def test_mean(self):
        hist = Registry().histogram("h_ns")
        assert hist.mean == 0.0
        hist.observe(2)
        hist.observe(4)
        assert hist.mean == 3.0

    def test_default_buckets_are_log_scale_ns(self):
        assert DEFAULT_NS_BUCKETS[0] == 16.0
        ratios = {
            round(b / a)
            for a, b in zip(DEFAULT_NS_BUCKETS, DEFAULT_NS_BUCKETS[1:])
        }
        assert ratios == {4}

    def test_quantile_interpolates_within_bucket(self):
        hist = Registry().histogram("h_ns", buckets=(10.0, 20.0, 40.0))
        for value in (5.0, 15.0, 15.0, 35.0):
            hist.observe(value)
        # rank 2 of 4 sits halfway through the (10, 20] bucket.
        assert hist.quantile(0.5) == pytest.approx(15.0)
        # rank 1 exhausts the (0, 10] bucket: its upper edge.
        assert hist.quantile(0.25) == pytest.approx(10.0)
        # rank 3 exhausts the (10, 20] bucket.
        assert hist.quantile(0.75) == pytest.approx(20.0)

    def test_quantile_clamps_to_last_edge(self):
        hist = Registry().histogram("h_ns", buckets=(10.0, 20.0))
        hist.observe(999.0)  # beyond every finite edge
        assert hist.quantile(0.99) == 20.0

    def test_quantile_of_empty_histogram_is_zero(self):
        hist = Registry().histogram("h_ns", buckets=(10.0,))
        assert hist.quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        hist = Registry().histogram("h_ns", buckets=(10.0,))
        with pytest.raises(ValueError):
            hist.quantile(0.0)
        with pytest.raises(ValueError):
            hist.quantile(1.0)

    def test_merge_counts_accumulates(self):
        hist = Registry().histogram("h_ns", buckets=(10.0, 20.0))
        hist.observe(5.0)
        hist.merge_counts([1, 2], 45.0, 3)
        assert hist.bucket_counts == [2, 2]
        assert hist.count == 4
        assert hist.sum == pytest.approx(50.0)

    def test_merge_counts_rejects_shape_mismatch(self):
        hist = Registry().histogram("h_ns", buckets=(10.0, 20.0))
        with pytest.raises(ValueError):
            hist.merge_counts([1], 1.0, 1)


class TestChildScoping:
    def test_child_labels_apply_to_instruments(self):
        registry = Registry()
        child = registry.child(domain="xc0")
        child.counter("a_total").inc()
        [sample] = registry.collect()
        assert sample.labels == (("domain", "xc0"),)

    def test_child_shares_the_store(self):
        registry = Registry()
        child = registry.child(domain="xc0")
        child.counter("a_total").inc(7)
        assert registry.value("a_total", domain="xc0") == 7

    def test_nested_children_merge_labels(self):
        registry = Registry()
        leaf = registry.child(domain="xc0").child(component="http")
        leaf.counter("a_total").inc()
        [sample] = registry.collect()
        assert sample.labels == (
            ("component", "http"),
            ("domain", "xc0"),
        )


class TestBindings:
    def test_bind_reads_lazily(self):
        registry = Registry()
        state = {"n": 0}
        registry.bind("a_total", lambda: state["n"])
        state["n"] = 42
        assert registry.value("a_total") == 42

    def test_bind_family_expands_dict_keys(self):
        registry = Registry()
        calls = {"read": 3, "write": 1}
        registry.bind_family("hc_total", "name", lambda: calls)
        values = {
            render_sample_key(s.name, s.labels): s.value
            for s in registry.collect()
        }
        assert values == {
            "hc_total{name=read}": 3,
            "hc_total{name=write}": 1,
        }

    def test_value_raises_for_unknown_metric(self):
        with pytest.raises(KeyError):
            Registry().value("nope_total")


class TestSnapshot:
    def test_snapshot_shape_and_determinism(self):
        registry = Registry()
        registry.counter("b_total").inc(2)
        registry.gauge("a").set(1.5)
        registry.histogram("h_ns", buckets=(10.0,)).observe(3)
        snap = registry.snapshot()
        assert snap["counters"] == {"b_total": 2}
        assert snap["gauges"] == {"a": 1.5}
        assert snap["histograms"]["h_ns"]["count"] == 1
        assert snap == registry.snapshot()

    def test_span_aggregate_only_with_a_recorder(self):
        registry = Registry()
        assert "spans" not in registry.snapshot()
        clock = SimClock()
        registry.spans = TraceRecorder(clock, capacity=3)
        with pytest.warns(RuntimeWarning, match="overflowed"):
            for name, ns in (("b", 5.0), ("b", 10.0), ("a", 1.0), ("b", 2.5)):
                with registry.span(name):
                    clock.advance(ns)
        spans = registry.snapshot()["spans"]
        assert spans == {
            "finished": 3,
            "dropped": 1,
            "by_name": {
                "a": {"count": 1, "total_ns": 1.0},
                "b": {"count": 2, "total_ns": 12.5},
            },
        }
        assert list(spans["by_name"]) == ["a", "b"]

    def test_integral_floats_render_without_decimal(self):
        assert format_value(5.0) == "5"
        assert format_value(5.5) == "5.5"
