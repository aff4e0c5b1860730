"""Robustness experiment: does frequency-aware selection survive faults?

The paper evaluates its scheme on clean overlays and under background
churn; this experiment stresses it with the deterministic fault plane
(:mod:`repro.faults`) instead, answering the question the paper leaves
open: does the %-reduction in average hops survive message loss and
correlated crash bursts, once lookups are allowed to retry and fail over?

Two one-dimensional axes, all three overlays, stable-mode measurement:

* ``loss``  — per-message drop probability in {0, 0.01, 0.05, 0.1};
* ``burst`` — one correlated crash burst of {0, ...} nodes before
  measurement (victims stay down, every survivor keeps stale pointers).

Each cell runs the frequency-aware and frequency-oblivious policies in
fresh universes built from the same seeds (identical overlay, workload
and fault realization — see :func:`repro.sim.runner.run_stable`), so rows
are independent and fan out over worker processes exactly like the
figure and sweep harnesses; serial and parallel runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from repro.analysis.ascii_chart import render_aligned
from repro.experiments.driver import Experiment, presets
from repro.faults.schedule import FaultSchedule
from repro.sim.metrics import ComparisonResult, HopStatistics
from repro.sim.runner import ExperimentConfig, run_stable
from repro.util.errors import ConfigurationError
from repro.util.parallel import run_tasks

__all__ = [
    "EXPERIMENT",
    "RobustnessPreset",
    "RobustnessRow",
    "gate_messages",
    "payload",
    "robustness",
    "rows_to_table",
]

OVERLAYS = ("chord", "pastry", "kademlia")


@dataclass(frozen=True)
class RobustnessPreset:
    """Grid definition for one robustness run."""

    name: str
    n: int
    bits: int
    queries: int
    seed: int
    loss_rates: tuple[float, ...]
    burst_sizes: tuple[int, ...]
    overlays: tuple[str, ...] = OVERLAYS
    #: Query scenario for every grid cell (``NAME[:PARAM]``).
    workload: str = "static-zipf"

    @classmethod
    def quick(cls, seed: int = 0, workload: str = "static-zipf") -> "RobustnessPreset":
        """Laptop-scale grid (~a minute): the issue's loss axis plus a
        burst axis reaching an eighth of the overlay."""
        return cls(
            name="quick",
            n=128,
            bits=20,
            queries=4000,
            seed=seed,
            loss_rates=(0.0, 0.01, 0.05, 0.1),
            burst_sizes=(0, 4, 8, 16),
            workload=workload,
        )

    @classmethod
    def smoke(cls, seed: int = 0, workload: str = "static-zipf") -> "RobustnessPreset":
        """CI-scale grid (seconds), same loss axis, shorter burst axis."""
        return cls(
            name="smoke",
            n=48,
            bits=16,
            queries=1200,
            seed=seed,
            loss_rates=(0.0, 0.01, 0.05, 0.1),
            burst_sizes=(0, 4),
            workload=workload,
        )


@dataclass(frozen=True)
class RobustnessRow:
    """One grid cell: overlay x axis x value, with fault-aware metrics.

    Percentiles are ``None`` for fault-free cells (the shared-overlay fast
    path does not keep per-lookup samples).
    """

    overlay: str
    axis: str
    value: float
    improvement_pct: float
    optimal_mean_hops: float
    baseline_mean_hops: float
    optimal_failure_rate: float
    baseline_failure_rate: float
    optimal_timeout_rate: float
    baseline_timeout_rate: float
    optimal_p50: float | None
    optimal_p95: float | None
    optimal_p99: float | None
    baseline_p95: float | None


def _schedule_for(axis: str, value: float) -> FaultSchedule:
    if axis == "loss":
        return FaultSchedule(loss_rate=value)
    if axis == "burst":
        return FaultSchedule(crash_burst_size=int(value))
    raise ConfigurationError(f"unknown robustness axis {axis!r}")


def _cells(preset: RobustnessPreset) -> list[tuple[str, str, float]]:
    cells: list[tuple[str, str, float]] = []
    for overlay in preset.overlays:
        for rate in preset.loss_rates:
            cells.append((overlay, "loss", float(rate)))
        for size in preset.burst_sizes:
            cells.append((overlay, "burst", float(size)))
    return cells


def _percentile(stats: HopStatistics, q: float) -> float | None:
    if not stats.keep_samples:
        return None
    return stats.percentile(q)


def _row(cell: tuple[str, str, float], result: ComparisonResult) -> RobustnessRow:
    overlay, axis, value = cell
    ours, base = result.optimized, result.baseline
    return RobustnessRow(
        overlay=overlay,
        axis=axis,
        value=value,
        improvement_pct=result.improvement,
        optimal_mean_hops=ours.mean_hops,
        baseline_mean_hops=base.mean_hops,
        optimal_failure_rate=ours.failure_rate,
        baseline_failure_rate=base.failure_rate,
        optimal_timeout_rate=ours.timeout_rate,
        baseline_timeout_rate=base.timeout_rate,
        optimal_p50=_percentile(ours, 0.50),
        optimal_p95=_percentile(ours, 0.95),
        optimal_p99=_percentile(ours, 0.99),
        baseline_p95=_percentile(base, 0.95),
    )


def robustness(preset: RobustnessPreset, jobs: int | None = None) -> list[RobustnessRow]:
    """Run the full grid; rows come back in cell order at any ``jobs``."""
    cells = _cells(preset)
    configs = [
        ExperimentConfig(
            overlay=overlay,
            n=preset.n,
            bits=preset.bits,
            queries=preset.queries,
            seed=preset.seed,
            faults=_schedule_for(axis, value),
            workload=preset.workload,
        )
        for overlay, axis, value in cells
    ]
    results = run_tasks(run_stable, configs, jobs)
    return [_row(cell, result) for cell, result in zip(cells, results)]


def payload(rows: Sequence[RobustnessRow], preset: RobustnessPreset) -> dict:
    """ROBUSTNESS_v1's own keys: the preset and one row per grid cell."""
    return {"preset": asdict(preset), "rows": [asdict(row) for row in rows]}


def gate_messages(rows: Sequence[RobustnessRow]) -> list[str]:
    """The claim ``repro faults`` guards: frequency-aware selection keeps a
    positive hop reduction under >= 5% message loss on every overlay."""
    return [
        f"{row.overlay} loses at loss={row.value:g} ({row.improvement_pct:.1f}% reduction)"
        for row in rows
        if row.axis == "loss" and row.value >= 0.05 and row.improvement_pct <= 0.0
    ]


def rows_to_table(rows: Sequence[RobustnessRow]) -> str:
    """Human-readable aligned table of the grid."""
    if not rows:
        return "(empty grid)"
    header = [
        "overlay", "axis", "value", "improvement",
        "ours", "oblivious", "fail(ours)", "tmo/query", "p95(ours)",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row.overlay,
                row.axis,
                f"{row.value:g}",
                f"{row.improvement_pct:.1f}%",
                f"{row.optimal_mean_hops:.3f}",
                f"{row.baseline_mean_hops:.3f}",
                f"{row.optimal_failure_rate:.4f}",
                f"{row.optimal_timeout_rate:.3f}",
                "-" if row.optimal_p95 is None else f"{row.optimal_p95:g}",
            ]
        )
    return render_aligned([header] + body)


#: ``repro faults``.
EXPERIMENT = Experiment(
    schema="ROBUSTNESS_v1",
    preset=presets(RobustnessPreset, "workload"),
    run=lambda preset, args: robustness(preset, jobs=args.jobs),
    payload=payload,
    render=lambda rows, args: rows_to_table(rows),
    gates=gate_messages,
    noun="grid",
)
