"""Regression detection between two bench documents.

CI runs a smoke bench and compares its microbenchmark medians against the
committed ``BENCH_v1.json`` baseline: any kernel whose median grows by
more than ``threshold``x fails the build. Only ``micro`` entries present
in *both* documents are compared, so renamed or newly added benchmarks are
never spurious failures.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Mapping

from repro.util.errors import ConfigurationError

__all__ = ["Regression", "find_regressions", "load_bench"]


def load_bench(path: str | pathlib.Path) -> dict:
    """Load a bench document, validating the schema marker."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"bench baseline not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bench baseline {path} is not valid JSON: {exc}")
    schema = document.get("schema")
    if schema != "BENCH_v1":
        raise ConfigurationError(f"unsupported bench schema {schema!r} in {path} (expected 'BENCH_v1')")
    return document


@dataclass(frozen=True)
class Regression:
    """One benchmark whose median slowed past the threshold."""

    name: str
    baseline_median_s: float
    current_median_s: float

    @property
    def ratio(self) -> float:
        if self.baseline_median_s <= 0:
            return float("inf")
        return self.current_median_s / self.baseline_median_s

    def describe(self) -> str:
        return (
            f"{self.name}: {self.current_median_s * 1e3:.3f} ms vs baseline "
            f"{self.baseline_median_s * 1e3:.3f} ms ({self.ratio:.2f}x)"
        )


def find_regressions(
    baseline: Mapping,
    current: Mapping,
    threshold: float = 2.0,
) -> list[Regression]:
    """Microbenchmarks in both documents whose median grew > ``threshold``x."""
    if threshold <= 1.0:
        raise ConfigurationError(f"threshold must be > 1.0, got {threshold}")
    baseline_micro = baseline.get("micro", {})
    current_micro = current.get("micro", {})
    regressions = []
    for name in sorted(set(baseline_micro) & set(current_micro)):
        base_median = float(baseline_micro[name]["median_s"])
        cur_median = float(current_micro[name]["median_s"])
        if base_median > 0 and cur_median / base_median > threshold:
            regressions.append(
                Regression(name=name, baseline_median_s=base_median, current_median_s=cur_median)
            )
    regressions.sort(key=lambda r: r.ratio, reverse=True)
    return regressions
