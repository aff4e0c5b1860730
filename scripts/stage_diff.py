"""Per-stage regression report: which layer moved between two traced runs.

Usage::

    python scripts/stage_diff.py A.jsonl B.jsonl

``A`` and ``B`` are span files written by ``python3 perfbench/run.py
--trace 1`` (``perfbench/out/spans-<workload>-seed<seed>.jsonl``). For
each layer perfbench reports (its ``LAYER_SPANS``) plus ``host.probe``,
the report prints each file's median and interquartile range of
per-repetition self seconds, the difference of the two medians, and a
``*`` where that difference is larger than both IQRs.

Self times come from perfbench's own ``Tracer.self_times``, loaded from
``perfbench/tracing.py`` by path, so the self-time rule is stated once.
Seconds are raw: traced runs are not host-normalized, so compare files
taken on the same idle host. The script only reports: it exits 0 when
both files are readable and 2, with one line on stderr, otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_repetition_self_times(path: Path, tracing) -> dict[str, list[float]]:
    """Layer name -> self seconds per traced repetition, in repetition order."""
    tracer = tracing.Tracer()
    with path.open(encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header != ["name", "start", "end", "parent", "repetition"]:
            raise ValueError(f"not a perfbench span file (header {header!r})")
        for line in handle:
            name, start, end, parent, repetition = json.loads(line)
            if name == tracing.PROBE:
                tracer.probes.append((start, end, parent, repetition))
            else:
                tracer.spans.append((name, start, end, parent, repetition))
    repetitions = sorted({span[4] for span in tracer.spans if span[4] >= 0})
    if not repetitions:
        raise ValueError("no traced repetitions")
    layers = [*tracing.LAYER_SPANS, tracing.PROBE]
    selves = [tracer.self_times(repetition) for repetition in repetitions]
    return {layer: [times.get(layer, 0.0) for times in selves] for layer in layers}


def median_iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    low, __, high = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), high - low


def report(a: dict[str, list[float]], b: dict[str, list[float]], names: tuple[str, str]) -> str:
    lines = [
        f"self seconds per repetition (raw, not host-normalized): "
        f"A = {names[0]} ({len(next(iter(a.values())))} reps), "
        f"B = {names[1]} ({len(next(iter(b.values())))} reps)",
        f"{'layer':<24} {'A median':>10} {'A IQR':>9} {'B median':>10} {'B IQR':>9} "
        f"{'B - A':>10}",
    ]
    for layer in a:
        a_median, a_iqr = median_iqr(a[layer])
        b_median, b_iqr = median_iqr(b[layer])
        delta = b_median - a_median
        mark = " *" if abs(delta) > a_iqr and abs(delta) > b_iqr else ""
        lines.append(
            f"{layer:<24} {a_median:>10.4f} {a_iqr:>9.4f} {b_median:>10.4f} "
            f"{b_iqr:>9.4f} {delta:>+10.4f}{mark}"
        )
    lines.append("* = the median moved by more than both IQRs")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: stage_diff.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    tracing = _tracing()
    runs = []
    for path in argv:
        try:
            runs.append(per_repetition_self_times(Path(path), tracing))
        except (OSError, ValueError, TypeError, IndexError) as error:
            print(f"stage_diff: cannot read {path}: {error}", file=sys.stderr)
            return 2
    print(report(*runs, (argv[0], argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
