"""Reproduction runners for every figure in the paper's evaluation.

Section VI contains four result figures (Figures 1–2 are algorithm
illustrations); each function here regenerates one of them and returns a
:class:`FigureResult` with the same series the paper plots — percentage
reduction in average hops versus the frequency-oblivious baseline:

* :func:`figure3` — Pastry, improvement vs ``n`` for alpha in {1.2, 0.91},
  ``k = log n``, identical rankings.
* :func:`figure4` — Pastry, improvement vs ``k`` in {1, 2, 3}·log n,
  ``n`` fixed; the locality-aware (FreePastry-like) routing mode drives
  the paper's increasing-with-k trend.
* :func:`figure5` — Chord, improvement vs ``n``, stable and churn-intensive
  modes, five per-node popularity rankings.
* :func:`figure6` — Chord, improvement vs ``k``, stable and churn modes;
  the paper observes the improvement *shrinking* as k grows.
* :func:`figure7` — extension beyond the paper: all three overlays
  (Chord, Pastry, Kademlia) side by side, improvement vs ``k`` in
  {1, 2, 3}·log n at a fixed ``n``, stable mode. The Kademlia series
  answers whether the eq.-1 selection transfers to the XOR metric.

Every runner accepts a :class:`FigurePreset`: ``paper()`` uses the paper's
parameters (n up to 2048, 32-bit ids, 1800 s churn runs — minutes of wall
time), ``quick()`` shrinks sizes for CI and benchmarking while preserving
every qualitative trend.

Execution model: each figure first *plans* its grid as a list of
:class:`FigureCell` specs (series label, x value, stable/churn kind, one
frozen config per cell), then executes the plan — fanning cells and seed
replicates over worker processes when ``jobs > 1`` (see
:mod:`repro.util.parallel`). Every cell/replicate derives all randomness
from its own config-embedded seed via :class:`~repro.util.rng.
SeedSequenceRegistry` substreams, so serial and parallel runs return
bit-identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from repro.analysis.ascii_chart import render_chart
from repro.experiments.driver import Experiment, presets
from repro.obs.manifest import json_float
from repro.sim.metrics import ComparisonResult, HopStatistics
from repro.sim.runner import ChurnConfig, ExperimentConfig, run_churn, run_stable
from repro.util.parallel import run_tasks
from repro.util.rng import substream_seed

__all__ = [
    "FigurePreset",
    "FigureCell",
    "FigurePoint",
    "FigureSeries",
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "run_figure",
    "payload",
    "EXPERIMENT",
    "FIGURES",
]


@dataclass(frozen=True)
class FigurePreset:
    """Size/duration knobs shared by all figure runners.

    ``replicas`` runs every cell that many times with derived seeds and
    merges the hop statistics — churn cells in particular are noisy at
    short durations (see EXPERIMENTS.md), and replication tightens them
    at a linear cost in wall time (amortized by ``jobs`` workers, since
    replicates fan out exactly like cells).
    """

    name: str
    bits: int
    queries: int
    pastry_sizes: tuple[int, ...]
    pastry_k_base: int
    chord_sizes: tuple[int, ...]
    chord_k_base: int
    churn_duration: float
    churn_warmup: float
    seed: int = 0
    replicas: int = 1
    #: Figure 7 (the three-overlay extension) grid: the shared node count
    #: is ``kademlia_k_base``; defaults keep presets built before the
    #: third overlay (e.g. serialized ones) loadable.
    kademlia_sizes: tuple[int, ...] = (128, 256, 512, 1024)
    kademlia_k_base: int = 1024

    @classmethod
    def paper(cls, seed: int = 0) -> "FigurePreset":
        """The paper's parameters (Section VI-A/VI-C)."""
        return cls(
            name="paper",
            bits=32,
            queries=20_000,
            pastry_sizes=(256, 512, 1024, 2048),
            pastry_k_base=1024,
            chord_sizes=(128, 256, 512, 1024),
            chord_k_base=1024,
            churn_duration=1800.0,
            churn_warmup=300.0,
            seed=seed,
            kademlia_sizes=(128, 256, 512, 1024),
            kademlia_k_base=1024,
        )

    @classmethod
    def quick(cls, seed: int = 0) -> "FigurePreset":
        """A minutes-to-seconds shrink preserving every trend."""
        return cls(
            name="quick",
            bits=20,
            queries=2_500,
            pastry_sizes=(64, 128, 256),
            pastry_k_base=128,
            chord_sizes=(48, 96, 192),
            chord_k_base=96,
            churn_duration=400.0,
            churn_warmup=100.0,
            seed=seed,
            kademlia_sizes=(48, 96, 192),
            kademlia_k_base=96,
        )


@dataclass(frozen=True)
class FigureCell:
    """One planned experiment cell: which series/x it lands on and how to run it."""

    series: str
    x: float
    kind: str  # "stable" or "churn"
    config: ExperimentConfig


@dataclass(frozen=True)
class FigurePoint:
    """One x-axis point of one series."""

    x: float
    comparison: ComparisonResult

    @property
    def improvement(self) -> float:
        return self.comparison.improvement


@dataclass(frozen=True)
class FigureSeries:
    """One plotted line: a labelled sequence of points."""

    label: str
    points: tuple[FigurePoint, ...]

    def improvements(self) -> list[float]:
        return [point.improvement for point in self.points]


@dataclass(frozen=True)
class FigureResult:
    """A regenerated figure: id, axes metadata and all series."""

    figure_id: str
    title: str
    x_label: str
    series: tuple[FigureSeries, ...] = field(default_factory=tuple)


def _log2(n: int) -> int:
    return max(1, n.bit_length() - 1)


# ----------------------------------------------------------------------
# Plan execution (shared by every figure)
# ----------------------------------------------------------------------


def _with_overrides(cells: list[FigureCell], engine: str, workload: str) -> list[FigureCell]:
    """Apply the ``--engine`` and ``--workload`` overrides to a plan.

    Both live on the cell configs, never on the preset, so the FIGURE_v1
    ``preset`` block — and hence the stripped document — is byte-identical
    across engines, and a default (``static-zipf``) plan's document is
    unchanged by the flags' existence. The engine override skips churn
    and Kademlia cells: the columnar engine is stable-mode only and
    implements chord/pastry routing only (see engine.dispatch).
    """
    overridden = []
    for cell in cells:
        config = cell.config
        if engine != "auto" and cell.kind == "stable" and config.overlay != "kademlia":
            config = replace(config, engine=engine)
        if workload != "static-zipf":
            config = replace(config, workload=workload)
        overridden.append(replace(cell, config=config))
    return overridden


def _replica_config(config: ExperimentConfig, replica: int) -> ExperimentConfig:
    """Replica 0 keeps the cell's seed; later replicates get independent
    seeds from the cell's own substream, so the replicate set is stable
    regardless of which worker (or how many workers) runs it."""
    if replica == 0:
        return config
    return replace(config, seed=substream_seed(config.seed, f"replica-{replica}"))


def _run_cell(task: tuple[str, ExperimentConfig]) -> ComparisonResult:
    """Execute one (kind, config) task. Module-level so it pickles."""
    kind, config = task
    runner = run_churn if kind == "churn" else run_stable
    return runner(config)


def _merge_replicas(group: list[ComparisonResult]) -> ComparisonResult:
    """Merge one cell's replicate results into a single tighter comparison."""
    first = group[0]
    if len(group) == 1:
        return first
    optimized = HopStatistics()
    baseline = HopStatistics()
    for comparison in group:
        optimized.merge(comparison.optimized)
        baseline.merge(comparison.baseline)
    return ComparisonResult(f"{first.label} (x{len(group)} seeds)", optimized, baseline)


def _execute_plan(
    cells: list[FigureCell], replicas: int, jobs: int | None
) -> list[ComparisonResult]:
    """Run every cell × replicate, fanning out over processes, and return
    one merged comparison per cell in plan order."""
    replicas = max(1, replicas)
    tasks = [
        (cell.kind, _replica_config(cell.config, replica))
        for cell in cells
        for replica in range(replicas)
    ]
    results = run_tasks(_run_cell, tasks, jobs)
    return [
        _merge_replicas(results[index * replicas : (index + 1) * replicas])
        for index in range(len(cells))
    ]


def _run_plan(
    cells: list[FigureCell],
    preset: FigurePreset,
    jobs: int | None,
    engine: str,
    workload: str,
) -> tuple[FigureSeries, ...]:
    """Override, execute and group a plan into series, preserving plan
    order."""
    cells = _with_overrides(cells, engine, workload)
    comparisons = _execute_plan(cells, preset.replicas, jobs)
    grouped: dict[str, list[FigurePoint]] = {}
    for cell, comparison in zip(cells, comparisons):
        grouped.setdefault(cell.series, []).append(FigurePoint(cell.x, comparison))
    return tuple(FigureSeries(label, tuple(points)) for label, points in grouped.items())


# ----------------------------------------------------------------------
# Pastry figures
# ----------------------------------------------------------------------


def figure3(
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    workload: str = "static-zipf",
) -> FigureResult:
    """Figure 3: Pastry improvement vs number of nodes.

    Paper observations to reproduce: strongly positive improvements for
    both alphas, the alpha=1.2 curve dominating alpha=0.91, with up to
    ~49% (alpha=1.2) and ~29% (alpha=0.91) at the largest n.
    """
    preset = preset or FigurePreset.quick()
    cells = [
        FigureCell(
            f"alpha={alpha}",
            n,
            "stable",
            ExperimentConfig(
                overlay="pastry",
                n=n,
                k=_log2(n),
                alpha=alpha,
                bits=preset.bits,
                queries=preset.queries,
                num_rankings=1,
                seed=preset.seed,
            ),
        )
        for alpha in (1.2, 0.91)
        for n in preset.pastry_sizes
    ]
    series = _run_plan(cells, preset, jobs, engine, workload)
    return FigureResult(
        "figure3",
        "Pastry: % hop reduction vs n (k = log n, identical rankings)",
        "n (number of nodes)",
        series,
    )


def figure4(
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    workload: str = "static-zipf",
) -> FigureResult:
    """Figure 4: Pastry improvement vs number of auxiliary neighbors.

    Uses the locality-aware routing mode; the paper reports improvement
    *increasing* with k (e.g. 50% -> 60% for alpha=1.2) and attributes it
    to FreePastry's proximity-based next-hop choice.
    """
    preset = preset or FigurePreset.quick()
    n = preset.pastry_k_base
    base_k = _log2(n)
    cells = [
        FigureCell(
            f"alpha={alpha}",
            multiple * base_k,
            "stable",
            ExperimentConfig(
                overlay="pastry",
                n=n,
                k=multiple * base_k,
                alpha=alpha,
                bits=preset.bits,
                queries=preset.queries,
                num_rankings=1,
                seed=preset.seed,
                pastry_mode="proximity",
            ),
        )
        for alpha in (1.2, 0.91)
        for multiple in (1, 2, 3)
    ]
    series = _run_plan(cells, preset, jobs, engine, workload)
    return FigureResult(
        "figure4",
        f"Pastry: % hop reduction vs k (n = {n}, locality-aware routing)",
        "k (auxiliary neighbors)",
        series,
    )


# ----------------------------------------------------------------------
# Chord figures
# ----------------------------------------------------------------------


def _chord_stable_config(
    preset: FigurePreset, n: int, k: int, learned: bool = False
) -> ExperimentConfig:
    return ExperimentConfig(
        overlay="chord",
        n=n,
        k=k,
        alpha=1.2,
        bits=preset.bits,
        queries=preset.queries,
        num_rankings=5,
        seed=preset.seed,
        learned_frequencies=learned,
        # Finite observation history (Section III's learned frequencies):
        # with ~20 observed queries per node the optimal selection
        # saturates as k grows while random pointers keep helping — the
        # mechanism behind Figure 6's decreasing trend.
        warmup_queries=20 * n if learned else None,
    )


def _chord_churn_config(preset: FigurePreset, n: int, k: int) -> ChurnConfig:
    return ChurnConfig(
        overlay="chord",
        n=n,
        k=k,
        alpha=1.2,
        bits=preset.bits,
        num_rankings=5,
        seed=preset.seed,
        duration=preset.churn_duration,
        warmup=preset.churn_warmup,
    )


def figure5(
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    workload: str = "static-zipf",
) -> FigureResult:
    """Figure 5: Chord improvement vs number of nodes, stable and churn.

    Paper observations: up to ~57% reduction in the stable system at the
    largest n; still ~25% under the high-churn regime.
    """
    preset = preset or FigurePreset.quick()
    cells = [
        FigureCell("stable", n, "stable", _chord_stable_config(preset, n, _log2(n)))
        for n in preset.chord_sizes
    ] + [
        FigureCell("high churn", n, "churn", _chord_churn_config(preset, n, _log2(n)))
        for n in preset.chord_sizes
    ]
    series = _run_plan(cells, preset, jobs, engine, workload)
    return FigureResult(
        "figure5",
        "Chord: % hop reduction vs n (k = log n, 5 per-node rankings)",
        "n (number of nodes)",
        series,
    )


def figure6(
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    workload: str = "static-zipf",
) -> FigureResult:
    """Figure 6: Chord improvement vs k, stable and churn.

    Paper observations: improvement *decreases* as k grows (random extra
    pointers catch up), e.g. churn 26% at k=log n down to ~17% at 3 log n.
    """
    preset = preset or FigurePreset.quick()
    n = preset.chord_k_base
    base_k = _log2(n)
    cells = [
        FigureCell(
            "stable",
            multiple * base_k,
            "stable",
            _chord_stable_config(preset, n, multiple * base_k, learned=True),
        )
        for multiple in (1, 2, 3)
    ] + [
        FigureCell(
            "high churn",
            multiple * base_k,
            "churn",
            _chord_churn_config(preset, n, multiple * base_k),
        )
        for multiple in (1, 2, 3)
    ]
    series = _run_plan(cells, preset, jobs, engine, workload)
    return FigureResult(
        "figure6",
        f"Chord: % hop reduction vs k (n = {n})",
        "k (auxiliary neighbors)",
        series,
    )


# ----------------------------------------------------------------------
# Extension figure: three overlays side by side
# ----------------------------------------------------------------------


def figure7(
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    overlay: str | None = None,
    workload: str = "static-zipf",
) -> FigureResult:
    """Figure 7 (extension): Chord, Pastry and Kademlia improvement vs k.

    All three overlays at the same node count (``preset.kademlia_k_base``)
    with identical rankings, k in {1, 2, 3}·log n, stable mode. ``overlay``
    pins the plan to a single series (the CLI's ``--overlay`` flag).

    Expected shape: every overlay keeps a solidly positive reduction, the
    prefix-metric overlays (Pastry, Kademlia) tracking each other closely
    since their distance classes coincide.
    """
    preset = preset or FigurePreset.quick()
    overlays = ("chord", "pastry", "kademlia") if overlay is None else (overlay,)
    n = preset.kademlia_k_base
    base_k = _log2(n)
    cells = [
        FigureCell(
            series,
            multiple * base_k,
            "stable",
            ExperimentConfig(
                overlay=series,
                n=n,
                k=multiple * base_k,
                alpha=1.2,
                bits=preset.bits,
                queries=preset.queries,
                num_rankings=1,
                seed=preset.seed,
            ),
        )
        for series in overlays
        for multiple in (1, 2, 3)
    ]
    series_out = _run_plan(cells, preset, jobs, engine, workload)
    return FigureResult(
        "figure7",
        f"Three overlays: % hop reduction vs k (n = {n}, stable)",
        "k (auxiliary neighbors)",
        series_out,
    )


#: Registry used by the CLI and the benchmark harness.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "3": figure3,
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "7": figure7,
}


def run_figure(
    figure_id: str,
    preset: FigurePreset | None = None,
    jobs: int | None = None,
    engine: str = "auto",
    overlay: str | None = None,
    workload: str = "static-zipf",
) -> FigureResult:
    """Run one figure by id ('3'..'7'). ``overlay`` pins figure 7's
    cross-overlay grid to a single overlay and is rejected elsewhere."""
    from repro.util.errors import ConfigurationError

    runner = FIGURES.get(str(figure_id))
    if runner is None:
        raise ConfigurationError(f"unknown figure {figure_id!r}; expected one of {sorted(FIGURES)}")
    if str(figure_id) == "7":
        return runner(preset, jobs, engine, overlay, workload=workload)
    if overlay is not None:
        raise ConfigurationError(
            "--overlay applies to figure 7 (the cross-overlay comparison) only"
        )
    return runner(preset, jobs, engine, workload=workload)


def payload(result: FigureResult, preset: FigurePreset) -> dict:
    """FIGURE_v1's own keys. The ``preset`` block carries no engine or
    workload field, so the stripped document is the same under every
    ``--engine``."""
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "x_label": result.x_label,
        "preset": asdict(preset),
        "series": [
            {
                "label": series.label,
                "points": [
                    {
                        "x": point.x,
                        "improvement_pct": json_float(point.improvement),
                        "optimal_mean_hops": json_float(point.comparison.optimized.mean_hops),
                        "baseline_mean_hops": json_float(point.comparison.baseline.mean_hops),
                        "optimal_failure_rate": json_float(
                            point.comparison.optimized.failure_rate
                        ),
                        "baseline_failure_rate": json_float(
                            point.comparison.baseline.failure_rate
                        ),
                    }
                    for point in series.points
                ],
            }
            for series in result.series
        ],
    }


def _run(preset: FigurePreset, args) -> FigureResult:
    return run_figure(
        args.figure_id,
        preset,
        jobs=args.jobs,
        engine=args.engine,
        overlay=args.overlay,
        workload=args.workload,
    )


def _render(result: FigureResult, args) -> str:
    # The figure tables live in report.py, which imports this module.
    from repro.experiments.report import render_detail, render_markdown, render_table

    parts = [render_table(result)]
    if args.detail:
        parts.append(render_detail(result))
    if args.markdown:
        parts.append(render_markdown(result))
    if args.chart:
        parts.append(render_chart(result))
    return "\n\n".join(parts)


#: ``repro figure``.
EXPERIMENT = Experiment(
    schema="FIGURE_v1",
    preset=presets(FigurePreset),
    run=_run,
    payload=payload,
    render=_render,
    noun="figure document",
)
