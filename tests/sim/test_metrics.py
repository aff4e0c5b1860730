"""Unit tests for the lookup metrics."""

import math
from dataclasses import dataclass

import pytest

from repro.sim.metrics import ComparisonResult, HopStatistics, percent_reduction
from repro.util.errors import ConfigurationError


@dataclass
class FakeLookup:
    hops: int
    timeouts: int = 0
    succeeded: bool = True

    @property
    def latency(self):
        return self.hops + self.timeouts


class TestHopStatistics:
    def test_mean_over_successes_only(self):
        stats = HopStatistics()
        stats.record(FakeLookup(hops=2))
        stats.record(FakeLookup(hops=4))
        stats.record(FakeLookup(hops=99, succeeded=False))
        assert stats.mean_hops == pytest.approx(3.0)
        assert stats.successes == 2
        assert stats.failures == 1
        assert stats.failure_rate == pytest.approx(1 / 3)

    def test_timeouts_count_toward_latency(self):
        stats = HopStatistics()
        stats.record(FakeLookup(hops=2, timeouts=3))
        assert stats.mean_hops == pytest.approx(5.0)
        assert stats.total_timeouts == 3

    def test_empty_stats_are_nan(self):
        stats = HopStatistics()
        assert math.isnan(stats.mean_hops)
        assert stats.failure_rate == 0.0

    def test_stddev_and_confidence(self):
        stats = HopStatistics()
        for hops in [1, 2, 3, 4, 5]:
            stats.record(FakeLookup(hops=hops))
        assert stats.stddev_hops == pytest.approx(math.sqrt(2.5))
        assert stats.confidence_halfwidth() == pytest.approx(1.96 * math.sqrt(2.5 / 5))

    def test_merge(self):
        a, b = HopStatistics(), HopStatistics()
        a.record(FakeLookup(hops=2))
        b.record(FakeLookup(hops=4))
        b.record(FakeLookup(hops=1, succeeded=False))
        a.merge(b)
        assert a.lookups == 3
        assert a.mean_hops == pytest.approx(3.0)

    def test_keep_samples(self):
        stats = HopStatistics(keep_samples=True)
        stats.record(FakeLookup(hops=2))
        stats.record(FakeLookup(hops=7, timeouts=1))
        assert stats.per_lookup == [2, 8]


class TestPercentReduction:
    def test_positive_when_optimized_wins(self):
        assert percent_reduction(4.0, 2.0) == pytest.approx(50.0)

    def test_negative_when_optimized_loses(self):
        assert percent_reduction(2.0, 3.0) == pytest.approx(-50.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            percent_reduction(0.0, 1.0)

    def test_nan_inputs_degrade_to_nan(self):
        # A 100%-loss cell has no successful lookups, so its mean is nan;
        # the comparison must report nan for that row, not crash the grid.
        assert math.isnan(percent_reduction(float("nan"), 2.0))
        assert math.isnan(percent_reduction(2.0, float("nan")))

    def test_all_failed_comparison_is_nan(self):
        ours, base = HopStatistics(), HopStatistics()
        ours.record(FakeLookup(hops=1, succeeded=False))
        base.record(FakeLookup(hops=1, succeeded=False))
        assert math.isnan(ComparisonResult("dead cell", ours, base).improvement)


class TestComparisonResult:
    def make(self):
        ours, base = HopStatistics(), HopStatistics()
        ours.record(FakeLookup(hops=1))
        base.record(FakeLookup(hops=2))
        return ComparisonResult("cell", ours, base)

    def test_improvement(self):
        assert self.make().improvement == pytest.approx(50.0)

    def test_summary_mentions_label_and_number(self):
        text = self.make().summary()
        assert "cell" in text
        assert "50.0%" in text


class TestPercentiles:
    def test_nearest_rank(self):
        stats = HopStatistics(keep_samples=True)
        for hops in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            stats.record(FakeLookup(hops=hops))
        assert stats.percentile(0.5) == 5.0
        assert stats.percentile(0.9) == 9.0
        assert stats.percentile(1.0) == 10.0
        assert stats.percentile(0.0) == 1.0

    def test_degrades_to_nan_without_samples(self):
        # Reporting paths call this on fast-path cells that never kept
        # samples; the column must degrade, not crash mid-report.
        stats = HopStatistics()
        stats.record(FakeLookup(hops=1))
        assert math.isnan(stats.percentile(0.5))
        assert all(math.isnan(value) for value in stats.latency_percentiles().values())

    def test_quantile_validated(self):
        stats = HopStatistics(keep_samples=True)
        with pytest.raises(ConfigurationError):
            stats.percentile(1.5)

    def test_empty_is_nan(self):
        stats = HopStatistics(keep_samples=True)
        assert math.isnan(stats.percentile(0.5))


class TestToHistogram:
    """The one latency binning, :class:`repro.telemetry.registry.Histogram`,
    agrees with :meth:`HopStatistics.percentile` fed the same lookups."""

    def test_reconciles_with_percentile(self):
        # The q-quantile must land in the bucket whose cumulative count
        # first reaches ceil(q * n) — the histogram and the order
        # statistics describe the same distribution.
        from repro.telemetry.registry import Histogram

        stats = HopStatistics(keep_samples=True)
        hist = Histogram()
        for hops in [1, 2, 3, 4, 6, 8, 12, 20, 33, 70]:
            stats.record(FakeLookup(hops=hops))
            hist.observe(float(hops))
        edges = list(hist.edges) + [math.inf]
        cumulative = hist.cumulative()
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            value = stats.percentile(q)
            rank = max(1, math.ceil(q * hist.count))
            bucket = next(index for index, cum in enumerate(cumulative) if cum >= rank)
            # The order-statistic quantile falls inside (or below the
            # upper edge of) the bucket holding that rank.
            assert value <= edges[bucket]
            if bucket > 0:
                assert value > edges[bucket - 1]
