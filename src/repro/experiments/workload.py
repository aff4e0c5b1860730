"""Workload-plane comparison experiment (``repro workload``).

The paper's evaluation fixes the workload (static Zipf) and varies the
selection policy. This experiment turns the axis around: every synthetic
scenario in :data:`repro.workload.spec.WORKLOADS` is run over all three
overlays under three auxiliary-selection modes —

``uniform``
    frequency-oblivious random pointers (the paper's baseline),
``frequency``
    frequency-aware eq.-1 selection *learned from the scenario itself*:
    a warmup pass routes scenario traffic with access recording on, the
    optimal tables are installed once, and measurement runs on frozen
    tables (the paper's Section III protocol),
``adaptive``
    same warmup, but access recording stays on during measurement and
    the tables are refreshed every eighth of the stream — the selection
    keeps chasing the workload as it drifts.

The grid makes the paper's implicit claim measurable: frequency-aware
selection wins where demand is skewed and stationary, and *refreshing*
the selection is what preserves the win when demand moves (drift,
flash crowds, hotspot rotation).

A second, smaller grid reruns the Section II-C item-cache comparison
(:func:`repro.extensions.item_cache.simulate_item_churn`) per scenario
under three cache disciplines (LRU, LFU, probabilistic-LRU), reporting
hops, hit rate and stale-answer rate next to pointer caching.

Output is a WORKLOAD_v1 JSON document with a MANIFEST_v1 provenance
block; strip the manifest's volatile keys to byte-compare runs, which
the CLI's jobs-determinism gate and the conformance tests do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.experiments.driver import Experiment, presets
from repro.extensions.item_cache import simulate_item_churn
from repro.obs.manifest import json_float
from repro.sim.runner import OVERLAYS, ExperimentConfig, stable_cell, stable_universe
from repro.util.parallel import run_tasks

__all__ = [
    "EXPERIMENT",
    "SELECTIONS",
    "WorkloadPreset",
    "WorkloadRow",
    "CacheRow",
    "run_workloads",
    "payload",
    "rows_to_table",
    "cache_rows_to_table",
    "gate_messages",
]

SELECTIONS = ("uniform", "frequency", "adaptive")

#: Cache disciplines measured by the §II-C grid: (label, policy kwargs).
CACHE_VARIANTS = (
    ("item-lru", {"cache_policy": "lru"}),
    ("item-lfu", {"cache_policy": "lfu"}),
    ("item-prob", {"cache_policy": "lru", "admission_probability": 0.5}),
)


@dataclass(frozen=True)
class WorkloadPreset:
    """Grid definition for one workload-plane run."""

    name: str
    n: int
    bits: int
    queries: int
    warmup: int
    seed: int
    scenarios: tuple[str, ...]
    overlays: tuple[str, ...] = OVERLAYS
    #: Item-cache grid knobs (smaller rings — three full strategies run
    #: per scenario × discipline). The capacity is deliberately tight
    #: relative to the catalog so the eviction discipline actually bites.
    cache_n: int = 32
    cache_queries: int = 1200
    cache_capacity: int = 12

    @classmethod
    def quick(cls, seed: int = 0) -> "WorkloadPreset":
        """Laptop-scale grid (~a minute)."""
        return cls(
            name="quick",
            n=128,
            bits=20,
            queries=4000,
            warmup=2000,
            seed=seed,
            scenarios=(
                "static-zipf",
                "drifting-zipf:60",
                "flash-crowd:3",
                "diurnal:500",
                "hotspot-rotation:250",
            ),
            cache_n=48,
            cache_queries=2000,
        )

    @classmethod
    def smoke(cls, seed: int = 0) -> "WorkloadPreset":
        """CI-scale grid (seconds), same scenario axis."""
        return cls(
            name="smoke",
            n=48,
            bits=16,
            queries=1500,
            warmup=900,
            seed=seed,
            scenarios=(
                "static-zipf",
                "drifting-zipf:30",
                "flash-crowd:2",
                "diurnal:180",
                "hotspot-rotation:90",
            ),
            cache_n=24,
            cache_queries=800,
        )


@dataclass(frozen=True)
class WorkloadRow:
    """Measured outcome of one cell."""

    scenario: str
    overlay: str
    selection: str
    mean_hops: float
    failure_rate: float
    lookups: int


@dataclass(frozen=True)
class CacheRow:
    """One scenario × cache-discipline outcome of the §II-C grid."""

    scenario: str
    strategy: str
    mean_hops: float
    cache_hit_rate: float
    stale_answer_rate: float


def _run_workload_cell(cell: tuple[WorkloadPreset, str, str, str]) -> WorkloadRow:
    """Execute one (preset, scenario, overlay, selection) cell.
    Module-level so it pickles for ``run_tasks``.

    All three selections of a (scenario, overlay) pair share the preset
    seed, hence the same overlay, catalog, rankings and measured query
    stream — the comparison isolates pointer selection exactly like
    :func:`repro.sim.runner.run_stable` does for its two policies.
    """
    preset, scenario, overlay, selection = cell
    uniform = selection == "uniform"
    adaptive = selection == "adaptive"
    config = ExperimentConfig(
        overlay=overlay,
        n=preset.n,
        bits=preset.bits,
        queries=preset.queries,
        seed=preset.seed,
        workload=scenario,
        engine="objects",
        # Frequency-aware selections learn from the scenario itself, so
        # the eq.-1 tables reflect where this workload's queries actually
        # land (not an assumed static model); uniform pointers ignore
        # frequencies.
        learned_frequencies=not uniform,
        warmup_queries=preset.warmup,
    )
    bench = stable_universe(config)
    rng_name = f"policy-rng-{selection}"
    refresh = max(1, preset.queries // 8)

    def refresh_tables(index: int) -> None:
        # Mid-stream refresh from the online-learned frequencies — the
        # selection chases the workload's current hot set. The
        # frequency-aware policy draws no randomness, so any rng serves.
        if index % refresh == 0:
            bench.install("optimal", bench.registry.fresh(rng_name))

    stats = stable_cell(
        config,
        "oblivious" if uniform else "optimal",
        bench=bench,
        record_access=adaptive,
        on_lookup=refresh_tables if adaptive else None,
        rng_name=rng_name,
    ).stats
    return WorkloadRow(
        scenario=scenario,
        overlay=overlay,
        selection=selection,
        mean_hops=stats.mean_hops,
        failure_rate=stats.failure_rate,
        lookups=stats.lookups,
    )


def _run_cache_cell(task: tuple[WorkloadPreset, str, str, dict]) -> list[CacheRow]:
    """One scenario × cache-discipline run of the item-churn comparator."""
    preset, scenario, label, kwargs = task
    reports = simulate_item_churn(
        n=preset.cache_n,
        bits=16,
        queries=preset.cache_queries,
        cache_capacity=preset.cache_capacity,
        seed=preset.seed,
        workload=scenario,
        **kwargs,
    )
    rows = [
        CacheRow(
            scenario=scenario,
            strategy=label,
            mean_hops=reports["item-cache"].mean_hops,
            cache_hit_rate=reports["item-cache"].cache_hit_rate,
            stale_answer_rate=reports["item-cache"].stale_answer_rate,
        )
    ]
    if label == "item-lru":
        # The pointer / no-cache anchors are identical across disciplines
        # (they never touch the cache); report them once per scenario.
        for anchor in ("pointer", "none"):
            rows.append(
                CacheRow(
                    scenario=scenario,
                    strategy=anchor,
                    mean_hops=reports[anchor].mean_hops,
                    cache_hit_rate=reports[anchor].cache_hit_rate,
                    stale_answer_rate=reports[anchor].stale_answer_rate,
                )
            )
    return rows


def run_workloads(
    preset: WorkloadPreset, jobs: int | None = None
) -> tuple[list[WorkloadRow], list[CacheRow]]:
    """Run the full grid, fanning cells over worker processes.

    Returns ``(selection_rows, cache_rows)`` in deterministic plan order
    regardless of ``jobs``.
    """
    cells = [
        (preset, scenario, overlay, selection)
        for scenario in preset.scenarios
        for overlay in preset.overlays
        for selection in SELECTIONS
    ]
    cache_tasks = [
        (preset, scenario, label, kwargs)
        for scenario in preset.scenarios
        for label, kwargs in CACHE_VARIANTS
    ]
    rows = run_tasks(_run_workload_cell, cells, jobs)
    cache_rows = [
        row for group in run_tasks(_run_cache_cell, cache_tasks, jobs) for row in group
    ]
    return rows, cache_rows


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _improvement(rows: list[WorkloadRow]) -> list[dict]:
    """Per (scenario, overlay): % hop reduction of frequency/adaptive
    selection versus the uniform baseline."""
    indexed = {(row.scenario, row.overlay, row.selection): row for row in rows}
    comparisons = []
    for scenario, overlay in dict.fromkeys((row.scenario, row.overlay) for row in rows):
        base = indexed[(scenario, overlay, "uniform")]
        entry = {"scenario": scenario, "overlay": overlay}
        for selection in ("frequency", "adaptive"):
            row = indexed[(scenario, overlay, selection)]
            entry[f"{selection}_vs_uniform_pct"] = (
                100.0 * (base.mean_hops - row.mean_hops) / base.mean_hops
                if base.mean_hops
                else 0.0
            )
        comparisons.append(entry)
    return comparisons


def gate_messages(rows: list[WorkloadRow]) -> list[str]:
    """The claims ``repro workload`` guards; empty list = all hold.

    1. On every *skewed stationary* scenario (static Zipf) frequency-aware
       selection must beat uniform pointers for every overlay — the
       paper's core result, now learned from traffic instead of assumed.
    2. On every scenario, *adaptive* selection must beat uniform for
       every overlay: refreshing the tables has to preserve the win even
       when the hot set moves.
    """
    failures = []
    for entry in _improvement(rows):
        scenario, overlay = entry["scenario"], entry["overlay"]
        if scenario.startswith("static-zipf") and entry["frequency_vs_uniform_pct"] <= 0.0:
            failures.append(
                f"{overlay}: frequency-aware selection loses to uniform on "
                f"{scenario} ({entry['frequency_vs_uniform_pct']:.1f}%)"
            )
        if entry["adaptive_vs_uniform_pct"] <= 0.0:
            failures.append(
                f"{overlay}: adaptive selection loses to uniform on "
                f"{scenario} ({entry['adaptive_vs_uniform_pct']:.1f}%)"
            )
    return failures


def rows_to_table(rows: list[WorkloadRow]) -> str:
    """Aligned per-scenario table: mean hops per selection + reductions."""
    comparisons = {
        (entry["scenario"], entry["overlay"]): entry for entry in _improvement(rows)
    }
    indexed = {(row.scenario, row.overlay, row.selection): row for row in rows}
    lines = [
        f"{'scenario':<22} {'overlay':<9} "
        f"{'uniform':>8} {'frequency':>10} {'adaptive':>9} {'freq red.':>10} {'adpt red.':>10}"
    ]
    for (scenario, overlay), entry in comparisons.items():
        cells = [indexed[(scenario, overlay, s)].mean_hops for s in SELECTIONS]
        lines.append(
            f"{scenario:<22} {overlay:<9} "
            f"{cells[0]:>8.3f} {cells[1]:>10.3f} {cells[2]:>9.3f} "
            f"{entry['frequency_vs_uniform_pct']:>9.1f}% "
            f"{entry['adaptive_vs_uniform_pct']:>9.1f}%"
        )
    return "\n".join(lines)


def cache_rows_to_table(rows: list[CacheRow]) -> str:
    """The §II-C grid: hops / hit rate / staleness per cache discipline."""
    lines = [
        f"{'scenario':<22} {'strategy':<10} {'hops':>7} {'hit rate':>9} {'stale':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<22} {row.strategy:<10} {row.mean_hops:>7.3f} "
            f"{100 * row.cache_hit_rate:>8.1f}% {100 * row.stale_answer_rate:>6.1f}%"
        )
    return "\n".join(lines)


def payload(
    grid: tuple[list[WorkloadRow], list[CacheRow]], preset: WorkloadPreset
) -> dict:
    """WORKLOAD_v1's own keys: the preset, the selection rows with their
    reductions, and the §II-C cache grid."""
    rows, cache_rows = grid
    return {
        "preset": asdict(preset),
        "rows": [
            {key: json_float(value) for key, value in asdict(row).items()} for row in rows
        ],
        "comparisons": _improvement(rows),
        "cache_grid": [
            {key: json_float(value) for key, value in asdict(row).items()}
            for row in cache_rows
        ],
    }


def _render(grid: tuple[list[WorkloadRow], list[CacheRow]], args) -> str:
    rows, cache_rows = grid
    return "\n".join(
        [
            "selection policies per workload scenario (mean hops):",
            rows_to_table(rows),
            "",
            "item caching vs pointer caching per scenario (§II-C grid):",
            cache_rows_to_table(cache_rows),
        ]
    )


#: ``repro workload``.
EXPERIMENT = Experiment(
    schema="WORKLOAD_v1",
    preset=presets(WorkloadPreset),
    run=lambda preset, args: run_workloads(preset, jobs=args.jobs),
    payload=payload,
    render=_render,
    gates=lambda grid: gate_messages(grid[0]),
    noun="workload document",
)
