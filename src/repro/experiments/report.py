"""Rendering of figure results as text tables and markdown, plus the
``repro report`` runner behind EXPERIMENTS.md.

The original figures are line plots; since this reproduction is judged on
*shape* (who wins, trend directions, rough magnitudes), the harness prints
the underlying series as aligned tables — one row per x value, one column
per series — plus the raw hop counts behind each percentage.

:func:`run_report` regenerates every figure at "report" scale (the
paper's node counts and 32-bit ids, query volumes sized for a small box)
and writes ``results/report.json`` (``REPORT_v1`` with a ``MANIFEST_v1``
provenance block) and ``results/report.md``.
"""

from __future__ import annotations

import pathlib

from repro.analysis.ascii_chart import render_aligned
from repro.experiments.figures import FigurePreset, FigureResult, run_figure
from repro.obs.manifest import build_manifest, dump_document
from repro.util.timer import Stopwatch

__all__ = [
    "REPORT_SCHEMA",
    "report_preset",
    "render_table",
    "render_markdown",
    "render_detail",
    "run_report",
]

REPORT_SCHEMA = "REPORT_v1"

REPORT_FIGURES = ("3", "4", "5", "6")


def report_preset(seed: int = 0) -> FigurePreset:
    """The EXPERIMENTS.md measurement scale: paper node counts, 32-bit
    ids, query volumes and churn durations sized for a small box."""
    return FigurePreset(
        name="report",
        bits=32,
        queries=10_000,
        pastry_sizes=(256, 512, 1024, 2048),
        pastry_k_base=1024,
        chord_sizes=(128, 256, 512, 1024),
        chord_k_base=512,
        churn_duration=600.0,
        churn_warmup=150.0,
        seed=seed,
    )


def render_table(result: FigureResult) -> str:
    """ASCII table of the plotted metric (one column per series)."""
    header = [result.x_label] + [f"{series.label} (%)" for series in result.series]
    xs = [point.x for point in result.series[0].points]
    rows = []
    for row_index, x in enumerate(xs):
        row = [_fmt_x(x)]
        for series in result.series:
            row.append(f"{series.points[row_index].improvement:.1f}")
        rows.append(row)
    return render_aligned([header] + rows, title=f"{result.figure_id}: {result.title}")


def render_detail(result: FigureResult) -> str:
    """Long form: per-cell mean hops for both policies and the reduction."""
    lines = [f"{result.figure_id}: {result.title}"]
    for series in result.series:
        lines.append(f"  series {series.label}:")
        for point in series.points:
            comparison = point.comparison
            lines.append(
                f"    {result.x_label} = {_fmt_x(point.x)}: "
                f"ours {comparison.optimized.mean_hops:.3f} hops, "
                f"oblivious {comparison.baseline.mean_hops:.3f} hops, "
                f"reduction {comparison.improvement:.1f}%"
                + (
                    f" (failure rates {comparison.optimized.failure_rate:.3f}"
                    f"/{comparison.baseline.failure_rate:.3f})"
                    if comparison.optimized.failures or comparison.baseline.failures
                    else ""
                )
            )
    return "\n".join(lines)


def render_markdown(result: FigureResult) -> str:
    """Markdown table (used to fill EXPERIMENTS.md)."""
    header = [result.x_label] + [f"{series.label} (% reduction)" for series in result.series]
    lines = [
        f"### {result.figure_id}: {result.title}",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "|".join(["---"] * len(header)) + "|",
    ]
    xs = [point.x for point in result.series[0].points]
    for row_index, x in enumerate(xs):
        cells = [_fmt_x(x)] + [
            f"{series.points[row_index].improvement:.1f}" for series in result.series
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def run_report(
    figures=REPORT_FIGURES,
    jobs: int | None = None,
    out_dir: str | pathlib.Path = "results",
    preset: FigurePreset | None = None,
    echo=None,
) -> dict:
    """Run the report figures and write ``report.json`` / ``report.md``.

    Returns the ``REPORT_v1`` document. ``echo`` (optional callable, e.g.
    ``print``) receives per-figure progress lines. The document carries a
    MANIFEST_v1 block; per-figure ``elapsed_s`` is volatile and lives
    under the manifest's ``volatile`` part, keeping the deterministic
    portion byte-comparable across runs and worker counts.
    """
    preset = preset or report_preset()
    out_path = pathlib.Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    markdown_parts = []
    figures_payload = {}
    elapsed_by_figure = {}
    watch = Stopwatch()
    for figure_id in figures:
        figure_watch = Stopwatch()
        result = run_figure(figure_id, preset, jobs=jobs)
        elapsed = figure_watch.elapsed
        elapsed_by_figure[figure_id] = round(elapsed, 1)
        if echo is not None:
            echo(render_table(result))
            echo(f"[{figure_watch}]\n")
        markdown_parts.append(render_markdown(result))
        markdown_parts.append("")
        figures_payload[figure_id] = {
            "title": result.title,
            "series": {
                series.label: {
                    "x": [point.x for point in series.points],
                    "improvement_pct": [
                        round(point.improvement, 2) for point in series.points
                    ],
                    "optimized_hops": [
                        round(point.comparison.optimized.mean_hops, 4)
                        for point in series.points
                    ],
                    "baseline_hops": [
                        round(point.comparison.baseline.mean_hops, 4)
                        for point in series.points
                    ],
                    "optimized_fail": [
                        round(point.comparison.optimized.failure_rate, 5)
                        for point in series.points
                    ],
                    "baseline_fail": [
                        round(point.comparison.baseline.failure_rate, 5)
                        for point in series.points
                    ],
                }
                for series in result.series
            },
            "detail": render_detail(result),
        }
    manifest = build_manifest(
        preset,
        wall_time_s=round(watch.elapsed, 3),
        extra={"figures": list(figures)},
    )
    manifest["volatile"]["elapsed_by_figure_s"] = elapsed_by_figure
    document = {
        "schema": REPORT_SCHEMA,
        "preset": preset.name,
        "manifest": manifest,
        "figures": figures_payload,
    }
    (out_path / "report.json").write_text(dump_document(document))
    digest = manifest.get("config_digest")
    markdown_parts.append(
        f"<!-- MANIFEST_v1: preset={preset.name} seed={preset.seed} "
        f"config_digest={digest} git_rev={manifest.get('git_rev')} -->"
    )
    (out_path / "report.md").write_text("\n".join(markdown_parts) + "\n")
    return document


def _fmt_x(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:g}"
