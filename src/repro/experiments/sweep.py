"""Generic parameter sweeps over the comparison runners.

The figure runners cover the paper's exact parameter grids; research use
wants arbitrary one-dimensional sweeps ("improvement vs alpha", "vs churn
rate", "vs successor-list size", ...). :func:`sweep` runs the stable or
churn comparison across any ``ExperimentConfig``/``ChurnConfig`` field and
returns rows ready for a table or CSV.

Sweep points are independent (each runner call builds its own overlay and
RNG registry from the point's config), so :func:`sweep` fans them out
over worker processes when ``jobs > 1``; results are assembled in value
order either way, making serial and parallel sweeps bit-identical.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

from repro.analysis.ascii_chart import render_aligned
from repro.experiments.driver import Experiment
from repro.obs.manifest import config_payload, json_float
from repro.sim.runner import ChurnConfig, ExperimentConfig, run_churn, run_stable
from repro.util.errors import ConfigurationError
from repro.util.parallel import run_tasks

__all__ = ["EXPERIMENT", "SweepRow", "payload", "sweep", "rows_to_csv", "rows_to_table"]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the varied value and the comparison outcome."""

    parameter: str
    value: object
    improvement_pct: float
    optimal_mean_hops: float
    baseline_mean_hops: float
    optimal_failure_rate: float
    baseline_failure_rate: float


def sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[object],
    jobs: int | None = None,
) -> list[SweepRow]:
    """Run the comparison once per value of ``parameter``.

    ``base`` decides the mode: a :class:`ChurnConfig` sweeps the churn
    simulation, a plain :class:`ExperimentConfig` the stable one.
    ``jobs`` caps the process fan-out (default: ``REPRO_JOBS`` or the
    CPU count); rows come back in value order at any worker count.
    """
    valid = {field.name for field in fields(base)}
    if parameter not in valid:
        raise ConfigurationError(
            f"unknown parameter {parameter!r}; config fields are {sorted(valid)}"
        )
    if not values:
        raise ConfigurationError("values must not be empty")
    runner = run_churn if isinstance(base, ChurnConfig) else run_stable
    configs = []
    for value in values:
        try:
            configs.append(replace(base, **{parameter: value}))
        except TypeError as error:
            # A value of the wrong type (the CLI passes unparseable
            # numbers through as strings) fails the config's comparisons.
            raise ConfigurationError(
                f"invalid {parameter} value {value!r}: {error}"
            ) from error
    results = run_tasks(runner, configs, jobs)
    return [
        SweepRow(
            parameter=parameter,
            value=value,
            improvement_pct=result.improvement,
            optimal_mean_hops=result.optimized.mean_hops,
            baseline_mean_hops=result.baseline.mean_hops,
            optimal_failure_rate=result.optimized.failure_rate,
            baseline_failure_rate=result.baseline.failure_rate,
        )
        for value, result in zip(values, results)
    ]


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows as CSV (header + one line per point)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "parameter",
            "value",
            "improvement_pct",
            "optimal_mean_hops",
            "baseline_mean_hops",
            "optimal_failure_rate",
            "baseline_failure_rate",
        ]
    )
    for row in rows:
        writer.writerow(
            [
                row.parameter,
                row.value,
                f"{row.improvement_pct:.2f}",
                f"{row.optimal_mean_hops:.4f}",
                f"{row.baseline_mean_hops:.4f}",
                f"{row.optimal_failure_rate:.5f}",
                f"{row.baseline_failure_rate:.5f}",
            ]
        )
    return buffer.getvalue()


def rows_to_table(rows: list[SweepRow]) -> str:
    """Human-readable aligned table of sweep rows."""
    if not rows:
        return "(empty sweep)"
    header = [rows[0].parameter, "improvement", "ours (hops)", "oblivious (hops)"]
    body = [
        [
            str(row.value),
            f"{row.improvement_pct:.1f}%",
            f"{row.optimal_mean_hops:.3f}",
            f"{row.baseline_mean_hops:.3f}",
        ]
        for row in rows
    ]
    return render_aligned([header] + body)


def payload(rows: list[SweepRow], base: ExperimentConfig | ChurnConfig) -> dict:
    """SWEEP_v1's own keys: the base config and one row per value."""
    return {
        "base": config_payload(base),
        "rows": [{key: json_float(value) for key, value in asdict(row).items()} for row in rows],
    }


def _base(args) -> ExperimentConfig:
    return ExperimentConfig(
        overlay=args.overlay,
        n=args.n,
        bits=args.bits,
        queries=args.queries,
        seed=args.seed,
        engine=args.engine,
        workload=args.workload,
    )


def _convert(text: str) -> object:
    """A swept value from the command line: int, float, bool or text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return {"true": True, "false": False}.get(text.lower(), text)


def _run(base: ExperimentConfig, args) -> list[SweepRow]:
    return sweep(base, args.parameter, [_convert(value) for value in args.values], jobs=args.jobs)


#: ``repro sweep``: no preset, so no footer, and ``--csv`` prints pure CSV.
EXPERIMENT = Experiment(
    schema="SWEEP_v1",
    preset=_base,
    run=_run,
    payload=payload,
    render=lambda rows, args: rows_to_csv(rows) if args.csv else rows_to_table(rows),
    noun="sweep document",
    footer=False,
)
