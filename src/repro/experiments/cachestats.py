"""Cache attribution experiment (``repro cachestats``).

One cell per overlay: the runner's stable cell
(:func:`~repro.sim.runner.stable_cell`) learns frequencies from a warmup
pass of the configured workload, installs the budget allocator's greedy
quotas, then routes a measurement stream with an
:class:`~repro.obs.attribution.AttributionRecorder` attached —
the per-(node, class) hit/use accounting, hop-savings credits, measured
per-node loads and quota utilization the aggregate curves cannot show.

Each cell additionally:

* replays the identical query batch through the columnar engine's
  batched lanes (chord/pastry; ``record_paths=True``) and attributes
  them with :func:`~repro.obs.attribution.attribute_batch`, recording
  whether the two attributions match field for field — the cross-engine
  honesty bit;
* crashes a deterministic slice of the population and routes a probe
  stream over the now-stale tables, measuring staleness-at-use (pointer
  uses whose target turned out dead) under churn.

Output is a CACHESTATS_v1 JSON document with a MANIFEST_v1 provenance
block; cells fan out over worker processes and rebuild their own seeded
registries, so the stripped document is byte-identical at any
``--jobs`` — the CI determinism gate diffs exactly that.

:func:`gate_messages` holds the experiment to its claims: the
conservation law must be exact on every cell (clean and churn probes),
auxiliary pointers must earn strictly positive credited savings on
every overlay, the columnar attribution must match the object-graph
attribution wherever the engine supports the overlay, and the churn
probe must observe at least one stale use (otherwise it measured
nothing).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.analysis.ascii_chart import render_series_table
from repro.core import budget as budget_mod
from repro.experiments.driver import Experiment, presets
from repro.obs.attribution import AttributionRecorder, attribute_batch
from repro.obs.manifest import json_float
from repro.sim.metrics import HopStatistics
from repro.sim.runner import (
    OVERLAYS,
    ExperimentConfig,
    route_columnar,
    stable_cell,
    stable_universe,
)
from repro.util.parallel import run_tasks
from repro.util.validation import require_non_negative_int
from repro.workload.spec import DEFAULT_RATE

__all__ = [
    "EXPERIMENT",
    "CachestatsPreset",
    "cells_to_table",
    "gate_messages",
    "payload",
    "run_cachestats",
    "top_pointers_table",
    "utilization_series",
]


@dataclass(frozen=True)
class CachestatsPreset:
    """Grid definition for one attribution run (one cell per overlay)."""

    name: str
    n: int
    bits: int
    queries: int
    warmup: int
    seed: int
    num_rankings: int
    workload: str = "static-zipf"
    #: Greedy-allocated share of the paper's ``n * k`` budget (matches
    #: the allocation experiment's default).
    budget_fraction: float = 0.5
    #: Fraction of the population crashed before the churn probe.
    crash_fraction: float = 0.125
    #: Hot-pointer table depth in the JSON document.
    top: int = 10
    overlays: tuple[str, ...] = OVERLAYS

    @classmethod
    def quick(cls, seed: int = 0, workload: str = "static-zipf") -> "CachestatsPreset":
        """Laptop-scale run (~a minute)."""
        return cls(
            name="quick",
            n=96,
            bits=18,
            queries=3000,
            warmup=1500,
            seed=seed,
            num_rankings=6,
            workload=workload,
        )

    @classmethod
    def smoke(cls, seed: int = 0, workload: str = "static-zipf") -> "CachestatsPreset":
        """CI-scale run (seconds)."""
        return cls(
            name="smoke",
            n=40,
            bits=16,
            queries=1000,
            warmup=600,
            seed=seed,
            num_rankings=4,
            workload=workload,
        )

    @property
    def effective_k(self) -> int:
        return max(1, self.n.bit_length() - 1)

    @property
    def total_budget(self) -> int:
        return max(1, int(self.n * self.effective_k * self.budget_fraction))


def _columnar_attribution(bench, config, recorder, sources, keys) -> bool | None:
    """Route the identical query batch through the columnar engine and
    attribute the lanes; ``True``/``False`` = matches the object-graph
    attribution, ``None`` = engine does not cover this overlay."""
    if config.overlay not in ("chord", "pastry"):
        return None
    batch = route_columnar(bench, sources, keys, record_paths=True)
    columnar = AttributionRecorder(config.overlay, bench.overlay, quotas=recorder.quotas)
    attribute_batch(columnar, batch, sources, keys)
    return columnar.to_dict() == recorder.to_dict()


def _run_cachestats_cell(cell: tuple[CachestatsPreset, str]) -> dict:
    """Execute one (preset, overlay) cell. Module-level so it pickles for
    ``run_tasks``; rebuilds its own registry from the preset seed, which
    is what keeps the grid byte-identical at any worker count."""
    preset, overlay = cell
    config = ExperimentConfig(
        overlay=overlay,
        n=preset.n,
        bits=preset.bits,
        queries=preset.queries,
        seed=preset.seed,
        num_rankings=preset.num_rankings,
        workload=preset.workload,
        engine="objects",
        # Learn frequencies from the workload itself (Section III
        # protocol), then install the greedy budget allocation — its
        # quotas are the ``k_i`` the utilization section measures against.
        learned_frequencies=True,
        warmup_queries=preset.warmup,
        budget_mode="allocated",
        budget_total=preset.total_budget,
    )
    bench = stable_universe(config)
    allocation = bench.allocation
    recorder = AttributionRecorder(overlay, bench.overlay, quotas=allocation.quotas)
    # Clean measurement pass: frozen tables, no faults, so the columnar
    # replay below sees the identical universe and query batch.
    stats = stable_cell(config, "optimal", bench=bench, trace=recorder).stats
    queries = list(bench.queries(preset.queries))
    sources = [query.source for query in queries]
    keys = [query.item for query in queries]
    columnar_match = _columnar_attribution(bench, config, recorder, sources, keys)
    loads = budget_mod.measured_loads(recorder.source_counts, bench.overlay.alive_ids())
    utilization = recorder.quota_utilization()
    quotas = allocation.quotas.values()
    # Churn probe: crash a deterministic slice, then measure how often
    # the survivors' pointers turn out stale at use.
    crash_rng = bench.registry.fresh("cachestats-churn")
    alive_now = bench.overlay.alive_ids()
    crashed = sorted(
        crash_rng.sample(alive_now, max(1, int(len(alive_now) * preset.crash_fraction)))
    )
    for victim in crashed:
        bench.overlay.crash(victim)
    churn_recorder = AttributionRecorder(overlay, bench.overlay, quotas=allocation.quotas)
    probe = bench.workload_stream(
        "probe-queries", horizon=max(1, preset.queries // 4) / DEFAULT_RATE
    )
    probe_stats = HopStatistics()
    for query in probe.stream(max(1, preset.queries // 4), bench.overlay.alive_ids):
        probe_stats.record(
            bench.overlay.lookup(
                query.source, query.item, record_access=False, trace=churn_recorder
            )
        )
    churn_classes = churn_recorder.class_totals()
    return {
        "overlay": overlay,
        "lookups": stats.lookups,
        "mean_hops": json_float(stats.mean_hops),
        "classes": {name: s.to_dict() for name, s in recorder.class_totals().items()},
        "quota": {
            "total_budget": preset.total_budget,
            "spent": allocation.spent,
            "min": min(quotas, default=0),
            "max": max(quotas, default=0),
            "nodes": len(allocation.quotas),
        },
        "utilization": {
            "per_node": {str(node): entry for node, entry in utilization.items()},
            "mean": sum(e["utilization"] for e in utilization.values())
            / len(utilization)
            if utilization
            else 0.0,
            "hit_fraction": sum(e["hit"] for e in utilization.values())
            / max(1, sum(e["installed"] for e in utilization.values())),
        },
        "loads": {
            "per_node": {str(node): load for node, load in loads.items()},
            "min": min(loads.values(), default=0.0),
            "max": max(loads.values(), default=0.0),
        },
        "top_pointers": recorder.top_pointers(preset.top),
        "conservation": recorder.conservation(),
        "columnar_match": columnar_match,
        "churn": {
            "crashed": len(crashed),
            "lookups": probe_stats.lookups,
            "failure_rate": probe_stats.failure_rate,
            "classes": {name: s.to_dict() for name, s in churn_classes.items()},
            "stale_uses": sum(s.stale_uses for s in churn_classes.values()),
            "conservation": churn_recorder.conservation(),
        },
    }


def run_cachestats(preset: CachestatsPreset, jobs: int | None = None) -> list[dict]:
    """One attribution cell per overlay, fanned over worker processes;
    deterministic plan order regardless of ``jobs``."""
    cells = [(preset, overlay) for overlay in preset.overlays]
    return run_tasks(_run_cachestats_cell, cells, jobs)


def gate_messages(cells: list[dict]) -> list[str]:
    """The claims ``repro cachestats`` guards; empty list = all hold."""
    messages = []
    for cell in cells:
        overlay = cell["overlay"]
        for label, conservation in (
            ("clean", cell["conservation"]),
            ("churn", cell["churn"]["conservation"]),
        ):
            if not conservation["exact"]:
                messages.append(
                    f"{overlay}: {label} attribution broke the conservation law: "
                    f"{conservation['failures'][:1] or conservation}"
                )
        for name, stats in cell["classes"].items():
            if stats["hits"] > stats["uses"]:
                messages.append(
                    f"{overlay}: class {name} recorded more hits "
                    f"({stats['hits']}) than uses ({stats['uses']})"
                )
        auxiliary = cell["classes"].get("auxiliary", {"credited": 0})
        if auxiliary["credited"] <= 0:
            messages.append(
                f"{overlay}: auxiliary pointers earned no credited hop savings "
                f"({auxiliary['credited']})"
            )
        if cell["columnar_match"] is False:
            messages.append(
                f"{overlay}: columnar-lane attribution diverged from the "
                "object-graph attribution"
            )
        if cell["churn"]["stale_uses"] <= 0:
            messages.append(
                f"{overlay}: churn probe observed no stale pointer uses "
                f"after {cell['churn']['crashed']} crashes"
            )
    return messages


def cells_to_table(cells: list[dict]) -> str:
    """Per overlay × pointer class: uses, hits, staleness, credit."""
    lines = [
        f"{'overlay':<9} {'class':<10} {'uses':>8} {'hits':>8} "
        f"{'hit %':>7} {'stale':>6} {'credited':>9}"
    ]
    for cell in cells:
        for name, stats in cell["classes"].items():
            hit_pct = 100.0 * stats["hits"] / stats["uses"] if stats["uses"] else 0.0
            lines.append(
                f"{cell['overlay']:<9} {name:<10} {stats['uses']:>8} "
                f"{stats['hits']:>8} {hit_pct:>6.1f}% {stats['stale_uses']:>6} "
                f"{stats['credited']:>9}"
            )
    return "\n".join(lines)


def utilization_series(cells: list[dict]) -> list[tuple[str, list[float]]]:
    """Sparkline rows for the dashboard: per-node quota utilization and
    measured load, one row per overlay, nodes in ascending id order."""
    series: list[tuple[str, list[float]]] = []
    for cell in cells:
        per_node = cell["utilization"]["per_node"]
        ordered = sorted(per_node, key=int)
        series.append(
            (
                f"{cell['overlay']} util",
                [per_node[node]["utilization"] for node in ordered],
            )
        )
        loads = cell["loads"]["per_node"]
        series.append(
            (f"{cell['overlay']} load", [loads[node] for node in sorted(loads, key=int)])
        )
    return series


def top_pointers_table(cells: list[dict], count: int = 5) -> str:
    """The hottest concrete pointers by credited hop savings."""
    lines = [
        f"{'overlay':<9} {'owner':>12} {'target':>12} {'class':<10} "
        f"{'hits':>6} {'credited':>9}"
    ]
    for cell in cells:
        for pointer in cell["top_pointers"][:count]:
            lines.append(
                f"{cell['overlay']:<9} {pointer['owner']:>12} {pointer['target']:>12} "
                f"{pointer['class']:<10} {pointer['hits']:>6} {pointer['credited']:>9}"
            )
    return "\n".join(lines)


def payload(cells: list[dict], preset: CachestatsPreset) -> dict:
    """CACHESTATS_v1's own keys: the preset and one cell per overlay."""
    return {"preset": asdict(preset), "cells": cells}


def _run(preset: CachestatsPreset, args) -> list[dict]:
    require_non_negative_int(args.top, "--top")
    return run_cachestats(preset, jobs=args.jobs)


def _render(cells: list[dict], args) -> str:
    lines = [
        "per-pointer-class accounting (clean measurement pass):",
        cells_to_table(cells),
        "",
        "per-node quota utilization and measured load (ascending node id):",
        render_series_table(utilization_series(cells)),
        "",
        f"top {args.top} pointers by credited hop savings:",
        top_pointers_table(cells, args.top),
        "",
    ]
    for cell in cells:
        ledger = cell["conservation"]
        churn = cell["churn"]
        lines.append(
            f"{cell['overlay']}: {ledger['attributed']}/{ledger['lookups']} lookups "
            f"attributed, credited {ledger['credited']} of "
            f"{ledger['oblivious_hops'] - ledger['observed_hops']} saved hops "
            f"(conservation {'exact' if ledger['exact'] else 'VIOLATED'}); "
            f"churn probe: {churn['crashed']} crashed, "
            f"{churn['stale_uses']} stale uses in {churn['lookups']} lookups"
        )
    return "\n".join(lines)


#: ``repro cachestats``.
EXPERIMENT = Experiment(
    schema="CACHESTATS_v1",
    preset=presets(CachestatsPreset, "workload"),
    run=_run,
    payload=payload,
    render=_render,
    gates=gate_messages,
    noun="cachestats document",
)
