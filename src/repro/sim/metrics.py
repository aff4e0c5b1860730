"""Lookup-performance metrics and the paper's comparison statistic.

The evaluation's single plotted metric (Section VI-A) is the **percentage
reduction in the average number of hops** of the frequency-aware scheme
relative to the frequency-oblivious scheme. :class:`HopStatistics`
accumulates per-lookup results; :func:`percent_reduction` computes the
plotted number; :class:`ComparisonResult` bundles one experimental cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from repro.util.errors import ConfigurationError

__all__ = [
    "HopStatistics",
    "ComparisonResult",
    "percent_reduction",
]

class _LookupLike(Protocol):
    hops: int
    timeouts: int
    succeeded: bool

    @property
    def latency(self) -> int: ...


@dataclass
class HopStatistics:
    """Streaming accumulator of lookup outcomes.

    ``mean_hops`` averages the latency proxy (forwards + timeout
    penalties) of *successful* lookups; failures are tracked separately as
    a rate, mirroring how DHT evaluations usually separate the two.
    """

    lookups: int = 0
    successes: int = 0
    failures: int = 0
    total_hops: int = 0
    total_timeouts: int = 0
    _sum_latency: float = 0.0
    _sum_latency_sq: float = 0.0
    per_lookup: list[int] = field(default_factory=list)
    keep_samples: bool = False

    def record(self, result: _LookupLike, count: int = 1) -> None:
        """Fold ``count`` lookups with this outcome into the statistics.

        A ``count`` above 1 equals ``count`` single records, float sums
        included, only when the latency is an integer (no backoff
        penalty): ``count * latency`` is then exact, while a fractional
        latency rounds differently added once than added ``count`` times.
        """
        self.lookups += count
        self.total_timeouts += result.timeouts * count
        if not result.succeeded:
            self.failures += count
            return
        self.successes += count
        self.total_hops += result.hops * count
        latency = result.latency
        self._sum_latency += latency * count
        self._sum_latency_sq += latency * latency * count
        if self.keep_samples:
            self.per_lookup.extend([latency] * count)

    @property
    def mean_hops(self) -> float:
        """Average latency (hops + timeouts) of successful lookups."""
        if self.successes == 0:
            return float("nan")
        return self._sum_latency / self.successes

    @property
    def stddev_hops(self) -> float:
        """Sample standard deviation of per-lookup latency."""
        if self.successes < 2:
            return float("nan")
        mean = self.mean_hops
        variance = (self._sum_latency_sq - self.successes * mean * mean) / (self.successes - 1)
        return math.sqrt(max(variance, 0.0))

    @property
    def failure_rate(self) -> float:
        """Fraction of lookups that did not reach the responsible node."""
        if self.lookups == 0:
            return 0.0
        return self.failures / self.lookups

    @property
    def timeout_rate(self) -> float:
        """Average timeouts per lookup (fault/staleness pressure gauge)."""
        if self.lookups == 0:
            return 0.0
        return self.total_timeouts / self.lookups

    def summary(self) -> dict:
        """The headline numbers trace and metrics documents report."""
        return {
            "lookups": self.lookups,
            "successes": self.successes,
            "failures": self.failures,
            "mean_hops": self.mean_hops,
            "failure_rate": self.failure_rate,
            "timeout_rate": self.timeout_rate,
        }

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation CI on ``mean_hops``."""
        if self.successes < 2:
            return float("nan")
        return z * self.stddev_hops / math.sqrt(self.successes)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of per-lookup latency.

        Order statistics need retained samples (the streaming moments
        cannot recover them), so without ``keep_samples=True`` — or with
        an empty sample set, e.g. a cell where every lookup failed — the
        result is ``nan``: reporting paths degrade a column instead of
        crashing mid-report. Uses the nearest-rank method.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q!r}")
        if not self.keep_samples or not self.per_lookup:
            return float("nan")
        ordered = sorted(self.per_lookup)
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return float(ordered[rank])

    def latency_percentiles(self) -> dict[str, float]:
        """The reporting trio ``{"p50", "p95", "p99"}`` of the latency
        proxy; all ``nan`` when samples were not kept (see
        :meth:`percentile`)."""
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def merge(self, other: "HopStatistics") -> None:
        """Fold another accumulator into this one."""
        self.lookups += other.lookups
        self.successes += other.successes
        self.failures += other.failures
        self.total_hops += other.total_hops
        self.total_timeouts += other.total_timeouts
        self._sum_latency += other._sum_latency
        self._sum_latency_sq += other._sum_latency_sq
        if self.keep_samples:
            self.per_lookup.extend(other.per_lookup)


def percent_reduction(baseline_mean: float, optimized_mean: float) -> float:
    """The paper's plotted metric: ``100 * (baseline - ours) / baseline``.

    Positive values mean the frequency-aware scheme wins. A ``nan`` input
    — the mean of a cell with zero successful lookups, e.g. under 100%
    message loss — yields ``nan`` rather than an exception, so one dead
    grid cell degrades its own row instead of aborting the whole report.
    """
    if math.isnan(baseline_mean) or math.isnan(optimized_mean):
        return float("nan")
    if not baseline_mean > 0:
        raise ConfigurationError(f"baseline mean must be positive, got {baseline_mean!r}")
    return 100.0 * (baseline_mean - optimized_mean) / baseline_mean


@dataclass(frozen=True)
class ComparisonResult:
    """One experimental cell: frequency-aware vs frequency-oblivious."""

    label: str
    optimized: HopStatistics
    baseline: HopStatistics

    @property
    def improvement(self) -> float:
        """Percentage reduction in average hops (the paper's y-axis)."""
        return percent_reduction(self.baseline.mean_hops, self.optimized.mean_hops)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.label}: ours {self.optimized.mean_hops:.3f} hops vs "
            f"oblivious {self.baseline.mean_hops:.3f} hops -> "
            f"{self.improvement:.1f}% reduction"
        )
