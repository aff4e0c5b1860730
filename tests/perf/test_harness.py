"""Unit tests for the overhead harness's order statistic."""

import pytest

from repro.perf.overhead import percentile
from repro.util.errors import ConfigurationError


class TestPercentile:
    def test_median_odd(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_median_even_is_lower_of_middle_pair(self):
        # Nearest-rank: no interpolation.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_extremes(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 10.0

    def test_p95(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.95) == 95.0

    def test_empty_is_nan(self):
        assert percentile([], 0.5) != percentile([], 0.5)  # NaN

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 1.5)

