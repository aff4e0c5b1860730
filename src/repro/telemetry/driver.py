"""Round-clocked telemetry cells: run an instrumented comparison.

:func:`metrics_cell` runs the runners' own per-policy cell
(:func:`~repro.sim.runner.stable_cell` or
:func:`~repro.sim.runner.churn_cell`) — same registry substreams,
overlay, workload and fault/churn realization — with a fresh
:class:`RoundTelemetry` attached. Telemetry only observes, so the
cell's summary statistics are bit-identical to the uninstrumented run;
``tests/telemetry`` pins this.

:func:`metrics_document` fans the two policies over worker processes
with the same order-preserving, seed-rebuilding machinery as the other
drivers, then assembles the ``METRICS_v1`` document. Because every task
rebuilds its own seeds and the registry samples on the round clock (never
wall time), the stripped document is byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from repro.obs.manifest import json_float
from repro.sim.runner import (
    POLICIES,
    ChurnConfig,
    ExperimentConfig,
    churn_cell,
    round_boundaries,
    stable_cell,
)
from repro.telemetry.export import build_metrics_document
from repro.telemetry.runtime import DEFAULT_ROUNDS, RoundTelemetry
from repro.util.errors import ConfigurationError
from repro.util.parallel import run_tasks

__all__ = ["metrics_cell", "metrics_document"]


def metrics_cell(config: ExperimentConfig, policy: str, rounds: int = DEFAULT_ROUNDS) -> dict:
    """Run one policy's universe with telemetry attached.

    Stable configs chunk the query stream into ``rounds`` near-equal
    rounds; :class:`~repro.sim.runner.ChurnConfig` configs sample at
    ``rounds`` equal virtual-time intervals. Returns a picklable cell
    payload: metric series, span profile, and summary statistics.
    """
    telemetry = RoundTelemetry(
        rounds=rounds,
        const_labels={"overlay": config.overlay, "policy": policy},
    )
    if isinstance(config, ChurnConfig):
        stats = churn_cell(config, policy, telemetry=telemetry)
    else:
        stats = stable_cell(config, policy, telemetry=telemetry).stats
    return {
        "policy": policy,
        "rounds_sampled": telemetry.registry.rounds_sampled,
        "metrics": telemetry.to_payload(),
        "spans": telemetry.spans.to_dict(),
        "stats": {key: json_float(value) for key, value in stats.summary().items()},
    }


def _metrics_task(task: tuple[ExperimentConfig, str, int]) -> dict:
    config, policy, rounds = task
    return metrics_cell(config, policy, rounds=rounds)


def metrics_document(
    config: ExperimentConfig,
    rounds: int = DEFAULT_ROUNDS,
    jobs: int | None = None,
) -> dict:
    """Run both policies (optionally in parallel) and assemble METRICS_v1.

    Each policy task rebuilds its own seed registry from the
    config-embedded seed, so the document is identical (manifest/span
    volatile blocks aside) at any worker count.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
    tasks = [(config, policy, rounds) for policy in POLICIES]
    cells = run_tasks(_metrics_task, tasks, jobs=jobs)
    if isinstance(config, ChurnConfig):
        round_clock = {
            "mode": "churn",
            "rounds": rounds,
            "interval_s": config.duration / rounds,
            "duration_s": config.duration,
        }
    else:
        round_clock = {
            "mode": "stable",
            "rounds": rounds,
            "boundaries": round_boundaries(config.queries, rounds),
            "queries": config.queries,
        }
    return build_metrics_document(
        config,
        {cell["policy"]: cell for cell in cells},
        round_clock,
    )
