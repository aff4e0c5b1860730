"""The benchmark's workloads: one paper cell each, its warm-up cell, and
the checks every cell's output must pass.

Configs are kept as keyword dictionaries so importing this module does
not import ``repro``; set-up time is measured from before that import.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = [
    "DEFAULT_SEED",
    "GOLDEN_DIR",
    "QUALITY_REPLICAS",
    "WORKLOADS",
    "Workload",
    "cell_problems",
    "fixed_configs",
    "golden_path",
    "load_golden",
    "quality_metrics",
    "replica_seed",
    "stripped",
    "write_golden",
]

#: The seed whose replicas form the fixed quality set and the golden files.
DEFAULT_SEED = 0
#: Size of the fixed replica set the quality metrics are merged over.
QUALITY_REPLICAS = 1
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Workload:
    """One paper cell: ``kind`` picks ``run_stable`` or ``run_churn``."""

    name: str
    kind: str
    cell: dict
    #: A small cell (~0.3 s) of the same overlay, id width and engine
    #: path: run during set-up so lazy imports finish before timing, and
    #: by the back-to-back linearity self-check.
    warmup: dict

    def config(self, seed: int, params: dict | None = None):
        from repro.sim.runner import ChurnConfig, ExperimentConfig

        config_type = ChurnConfig if self.kind == "churn" else ExperimentConfig
        return config_type(**(params or self.cell), seed=seed)

    def runner(self):
        from repro.sim.runner import run_churn, run_stable

        return run_churn if self.kind == "churn" else run_stable


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Figure 5 stable cell at the paper's smallest n; engine auto
        # stays on the object graph below 512 nodes.
        Workload(
            "chord-stable",
            "stable",
            dict(overlay="chord", n=128, k=7, alpha=1.2, bits=32, queries=20_000, num_rankings=5),
            dict(overlay="chord", n=64, k=6, alpha=1.2, bits=32, queries=6_000, num_rankings=5),
        ),
        # Figure 3 cell; engine auto resolves to columnar at n=512, so
        # the warm-up asks for columnar explicitly to import it.
        Workload(
            "pastry-stable",
            "stable",
            dict(overlay="pastry", n=512, k=9, alpha=1.2, bits=32, queries=20_000, num_rankings=1),
            dict(
                overlay="pastry", n=64, k=6, alpha=1.2, bits=32, queries=6_000,
                num_rankings=1, engine="columnar",
            ),
        ),
        # Figure 7 Kademlia cell at n=128.
        Workload(
            "kademlia-stable",
            "stable",
            dict(overlay="kademlia", n=128, k=7, alpha=1.2, bits=32, queries=20_000, num_rankings=1),
            dict(overlay="kademlia", n=48, k=5, alpha=1.2, bits=32, queries=3_000, num_rankings=1),
        ),
        # Figure 5 quick-preset churn cell (stabilize 25 s, recompute
        # 62.5 s and 4 queries/s are the ChurnConfig defaults).
        Workload(
            "chord-churn",
            "churn",
            dict(
                overlay="chord", n=96, k=6, alpha=1.2, bits=20, num_rankings=5,
                duration=400.0, warmup=100.0,
            ),
            dict(
                overlay="chord", n=40, k=5, alpha=1.2, bits=20, num_rankings=5,
                duration=240.0, warmup=60.0,
            ),
        ),
    )
}


def replica_seed(seed: int, replica: int) -> int:
    """Replica seeds, on the substream names ``repro.experiments.figures``
    gives its replicas."""
    from repro.util.rng import substream_seed

    return substream_seed(seed, f"replica-{replica}")


def fixed_configs(workload: Workload) -> list:
    """The fixed replica set: the default seed's first replicas. Quality
    metrics and the golden output come from it, whatever ``--seed`` is."""
    return [workload.config(replica_seed(DEFAULT_SEED, i)) for i in range(QUALITY_REPLICAS)]


def _stats_fields(stats) -> dict:
    return {field.name: getattr(stats, field.name) for field in fields(stats)}


def stripped(result) -> dict:
    """A cell's checked output: its label and both policies'
    ``HopStatistics`` fields, with no timing in it."""
    return {
        "label": result.label,
        "optimized": _stats_fields(result.optimized),
        "baseline": _stats_fields(result.baseline),
    }


def cell_problems(workload: Workload, config, result) -> list[str]:
    """Everything wrong with one cell's output (empty when it passes)."""
    problems = []
    for policy in ("optimized", "baseline"):
        stats = getattr(result, policy)
        if stats.lookups <= 0:
            problems.append(f"{policy}: no lookups recorded")
            continue
        if stats.successes + stats.failures != stats.lookups:
            problems.append(f"{policy}: successes + failures != lookups")
        if not (math.isfinite(stats.mean_hops) and stats.mean_hops > 0):
            problems.append(f"{policy}: mean hops {stats.mean_hops!r} is not positive")
        if workload.kind == "stable":
            if stats.lookups != config.queries:
                problems.append(f"{policy}: {stats.lookups} lookups, expected {config.queries}")
            if stats.failures:
                problems.append(f"{policy}: {stats.failures} failed lookups on a stable cell")
    if result.optimized.lookups != result.baseline.lookups:
        problems.append("the two policies routed different query streams")
    return problems


def golden_path(workload: Workload) -> Path:
    return GOLDEN_DIR / f"{workload.name}.json"


def load_golden(workload: Workload) -> list[dict]:
    return json.loads(golden_path(workload).read_text())["replicas"]


def write_golden(workload: Workload, outputs: list[dict]) -> None:
    document = {"workload": workload.name, "seed": DEFAULT_SEED, "replicas": outputs}
    golden_path(workload).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def quality_metrics(results) -> dict[str, float]:
    """The paper's numbers over the fixed replica set, merged."""
    from repro.sim.metrics import HopStatistics, percent_reduction

    optimized, baseline = HopStatistics(), HopStatistics()
    for result in results:
        optimized.merge(result.optimized)
        baseline.merge(result.baseline)
    lookups = optimized.lookups + baseline.lookups
    failures = optimized.failures + baseline.failures
    return {
        "improvement_pct": percent_reduction(baseline.mean_hops, optimized.mean_hops),
        "mean_hops": optimized.mean_hops,
        "lookup_success_pct": 100.0 * (lookups - failures) / lookups,
    }
