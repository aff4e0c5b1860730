"""Terminal line charts for figure results and telemetry series.

The original figures are line plots; for a terminal-only environment this
renders each :class:`~repro.experiments.figures.FigureResult` as an ASCII
grid: one marker per series, y = percentage reduction, x = the figure's
sweep variable. Used by ``python -m repro figure N --chart``.

:func:`render_sparkline` and :func:`render_series_table` are the building
blocks of the ``repro metrics`` dashboard: compact one-line unicode
sparklines for round-clocked telemetry series, and an aligned multi-series
table (name, min / last / max, sparkline) so the per-round evolution of a
whole registry fits one screen.

:func:`render_aligned` is the one aligned-column table every experiment
render and the figure tables share.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # the experiment modules import this one
    from repro.experiments.figures import FigureResult

__all__ = ["render_aligned", "render_chart", "render_sparkline", "render_series_table"]

_MARKERS = "ox*+#@"

#: Eight-level block ramp used by sparklines (lowest to highest).
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Placeholder for missing points (NaN / ``None`` samples).
SPARK_GAP = "·"


def render_chart(result: FigureResult, width: int = 60, height: int = 16) -> str:
    """Render a figure as an ASCII chart (markers per series + legend)."""
    if width < 20 or height < 6:
        raise ConfigurationError("chart needs width >= 20 and height >= 6")
    points = [
        (point.x, point.improvement, _MARKERS[index % len(_MARKERS)])
        for index, series in enumerate(result.series)
        for point in series.points
    ]
    if not points:
        return f"{result.figure_id}: (no data)"
    xs = [x for x, __, __ in points]
    ys = [y for __, y, __ in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(0.0, min(ys)), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    grid = [[" "] * width for __ in range(height)]
    for x, y, marker in points:
        column = round((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = round((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][column] = marker

    lines = [f"{result.figure_id}: {result.title}"]
    for row_index, row in enumerate(grid):
        y_value = y_hi - (y_hi - y_lo) * row_index / (height - 1)
        lines.append(f"{y_value:6.1f}% |" + "".join(row))
    lines.append(" " * 8 + "+" + "-" * width)
    left = f"{_format(x_lo)}"
    right = f"{_format(x_hi)}"
    lines.append(" " * 9 + left + " " * max(1, width - len(left) - len(right)) + right)
    lines.append(" " * 9 + f"x = {result.x_label}")
    legend = "   ".join(
        f"{_MARKERS[index % len(_MARKERS)]} = {series.label}"
        for index, series in enumerate(result.series)
    )
    lines.append(" " * 9 + legend)
    return "\n".join(lines)


def _format(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def _is_missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def render_sparkline(values: Sequence[float | None]) -> str:
    """One-line sparkline over ``values``.

    Missing points (``None`` or NaN — telemetry gauges emit both for
    "no data this round") render as :data:`SPARK_GAP`; an empty or
    all-missing series renders as gaps only / the empty string. A
    degenerate range — every present value equal, which covers both
    constant and single-point series — renders at the middle ramp
    level: a flat gauge is data, not absence, and the bottom glyph
    falsely reads as "zero" next to rows that do span a range.
    """
    finite = [float(v) for v in values if not _is_missing(v)]
    if not finite:
        return SPARK_GAP * len(values)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for value in values:
        if _is_missing(value):
            chars.append(SPARK_GAP)
            continue
        if span == 0.0:
            chars.append(SPARK_CHARS[len(SPARK_CHARS) // 2])
            continue
        level = int((float(value) - lo) / span * (len(SPARK_CHARS) - 1))
        chars.append(SPARK_CHARS[level])
    return "".join(chars)


def render_aligned(rows: Sequence[Sequence[str]], title: str | None = None) -> str:
    """Right-aligned columns two spaces apart, a dashed rule under the
    header row, and an optional title line above."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = [] if title is None else [title]
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_series_table(
    series: Sequence[tuple[str, Sequence[float | None]]],
    value_width: int = 10,
) -> str:
    """Aligned multi-series table: label, min / last / max, sparkline.

    ``series`` is an ordered sequence of ``(label, values)`` pairs — one
    row each, sharing column alignment so the dashboard scans vertically.
    """
    if not series:
        return "(no series)"
    label_width = max(len(label) for label, __ in series)
    lines = []
    for label, values in series:
        finite = [float(v) for v in values if not _is_missing(v)]
        if finite:
            lo, hi = min(finite), max(finite)
            last = next(
                (float(v) for v in reversed(list(values)) if not _is_missing(v)), None
            )
            stats = (
                f"{_spark_num(lo):>{value_width}} "
                f"{_spark_num(last):>{value_width}} "
                f"{_spark_num(hi):>{value_width}}"
            )
        else:
            dash = "-"
            stats = f"{dash:>{value_width}} {dash:>{value_width}} {dash:>{value_width}}"
        lines.append(f"{label:<{label_width}}  {stats}  {render_sparkline(values)}")
    header = (
        f"{'series':<{label_width}}  "
        f"{'min':>{value_width}} {'last':>{value_width}} {'max':>{value_width}}"
    )
    return "\n".join([header] + lines)


def _spark_num(value: float | None) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.3g}"
