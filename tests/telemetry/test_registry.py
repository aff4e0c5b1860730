"""Tests for the labelled metrics registry and its round clock."""

import pytest

from repro.telemetry.registry import (
    LATENCY_BUCKET_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.util.errors import ConfigurationError


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1.0)

    def test_sample_appends_round_and_value(self):
        counter = Counter()
        counter.inc(2)
        counter.sample(0)
        counter.inc(1)
        counter.sample(1)
        assert counter.series == [[0, 2], [1, 3]]


class TestGauge:
    def test_defaults_to_nan_sampled_as_null(self):
        gauge = Gauge()
        gauge.sample(0)
        assert gauge.series == [[0, None]]

    def test_set_then_sample(self):
        gauge = Gauge()
        gauge.set(4.25)
        gauge.sample(3)
        assert gauge.series == [[3, 4.25]]


class TestHistogram:
    def test_default_edges_are_the_canonical_latency_buckets(self):
        assert Histogram().edges == LATENCY_BUCKET_EDGES

    def test_le_semantics_inclusive_upper_bound(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0))
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            hist.observe(value)
        # le=1 -> {1}; le=2 -> {2}; le=4 -> {3, 4}; +inf -> {5}
        assert hist.counts == [1, 1, 2, 1]
        assert hist.cumulative() == [1, 2, 4, 5]
        assert hist.count == 5
        assert hist.sum == 15.0

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram(edges=(1.0, 1.0, 2.0))
        with pytest.raises(ConfigurationError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(edges=())

    def test_sample_snapshots_cumulative_sum_count(self):
        hist = Histogram(edges=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(5.0)
        hist.sample(2)
        assert hist.series == [[2, [1, 1, 2], 6, 2]]


class TestMetricFamily:
    def test_children_keyed_by_label_set(self):
        family = MetricFamily("hops", "h", "counter")
        a = family.labels(pointer_class="core")
        b = family.labels(pointer_class="core")
        c = family.labels(pointer_class="leaf")
        assert a is b
        assert a is not c

    def test_children_iterate_in_sorted_label_order(self):
        family = MetricFamily("hops", "h", "counter")
        family.labels(kind="z")
        family.labels(kind="a")
        labels = [labels for labels, __ in family.children()]
        assert labels == [{"kind": "a"}, {"kind": "z"}]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricFamily("x", "h", "timer")


class TestMetricsRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x", "x")
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x", "x")

    def test_same_name_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_x", "x") is registry.counter("repro_x", "other help")

    def test_sample_round_advances_and_snapshots_every_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_c", "c").labels()
        gauge = registry.gauge("repro_g", "g").labels(kind="a")
        counter.inc(1)
        gauge.set(7)
        assert registry.sample_round() == 0
        counter.inc(2)
        assert registry.sample_round() == 1
        assert registry.rounds_sampled == 2
        assert counter.series == [[0, 1], [1, 3]]
        assert gauge.series == [[0, 7], [1, 7]]

    def test_payload_sorted_and_carries_const_labels(self):
        registry = MetricsRegistry(const_labels={"policy": "optimal"})
        registry.gauge("repro_b", "b").labels()
        registry.counter("repro_a", "a").labels(kind="x")
        registry.sample_round()
        payload = registry.to_payload()
        assert [entry["name"] for entry in payload] == ["repro_a", "repro_b"]
        assert payload[0]["labels"] == {"policy": "optimal", "kind": "x"}
        assert payload[0]["type"] == "counter"
        assert payload[1]["value"] is None  # unset gauge -> NaN -> null

    def test_histogram_payload_carries_edges(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", "h", edges=(1.0, 2.0)).labels().observe(1.5)
        registry.sample_round()
        (entry,) = registry.to_payload()
        assert entry["edges"] == [1.0, 2.0]
        assert entry["series"] == [[0, [0, 1, 1], 1.5, 1]]

    def test_late_created_children_start_at_their_first_round(self):
        registry = MetricsRegistry()
        registry.counter("repro_a", "a").labels().inc()
        registry.sample_round()
        late = registry.counter("repro_late", "l").labels()
        late.inc(5)
        registry.sample_round()
        assert late.series == [[1, 5]]
