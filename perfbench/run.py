"""Benchmark: back-to-back paper cells, host-normalized, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload chord-stable --seed 1 --seconds 20 --trace 0

One process runs the workload's cell through the public runners
(``run_stable`` / ``run_churn``) as a closed loop: one cell at a time,
no worker pools, no threads. The timed repetitions are the fixed quality
replica set (the default seed's replicas, see :mod:`cells`) followed by
replica ``i = 0, 1, ...`` of ``--seed``, which runs with seed
``substream_seed(seed, f"replica-{i}")``; no two repetitions of a run
share inputs. Times are host-normalized by :mod:`hostclock`.

``--trace 0`` reports the end-to-end metrics (cell time, set-up time,
peak RSS and the paper's quality numbers); ``--trace 1`` alternates
untraced and traced repetitions and reports per-layer self times and
counts (see :mod:`tracing`). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Checks: every repetition's output is checked (:func:`cells.cell_problems`)
and fails if it raises or leaves threads or child processes behind; the
fixed replica set must match the committed golden output; the first
replica of ``--seed`` is re-run at the end and must reproduce exactly;
and two cells timed back to back must read twice one cell within the
``cell_s`` bound. ``--write-golden`` regenerates a workload's golden file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cells
from hostclock import HostClock, Segment
from tracing import LAYER_SPANS, PROBE, ROOT as ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

#: Set-up is measured this many times per run, in this process and then
#: in sequential child processes; the median is reported.
SETUP_SAMPLES = 3
MIN_REPETITIONS = 3
MIN_TRACED_REPETITIONS = 4
LINEARITY_TRIALS = 3
#: Seeded inputs generated during set-up; later ones are derived on demand.
PREGENERATED_INPUTS = 32


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*cells.WORKLOADS, "all"],
        help="one workload, or 'all' to run each in turn in its own process",
    )
    parser.add_argument("--seed", type=int, default=cells.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="measure one set-up, print its normalized seconds and exit",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="rewrite the workload's golden output from the fixed replica set and exit",
    )
    return parser.parse_args(argv)


def cell_bound() -> float:
    """The ``cell_s`` regression bound, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(metric["bound"] for metric in spec["end_to_end"] if metric["name"] == "cell_s")


# -- process guards -------------------------------------------------------


def _threads() -> set[str]:
    return set(os.listdir("/proc/self/task"))


def _children() -> set[str]:
    found: set[str] = set()
    for task in _threads():
        try:
            found.update(Path(f"/proc/self/task/{task}/children").read_text().split())
        except OSError:  # the thread ended while we looked
            continue
    return found


# -- repetitions -----------------------------------------------------------


class Repetition:
    """One timed cell and what became of it."""

    def __init__(self, index: int, config, traced: bool = False) -> None:
        self.index = index
        self.config = config
        self.traced = traced
        self.result = None
        self.segment: Segment | None = None
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems


def run_repetition(workload, clock: HostClock, repetition: Repetition, tracer=None) -> Repetition:
    runner = workload.runner()
    gc.collect()
    threads, children = _threads(), _children()
    if tracer is not None:
        tracer.install()
    mark = clock.mark()
    try:
        if tracer is not None:
            repetition.result = tracer.run_cell(repetition.index, runner, repetition.config)
        else:
            repetition.result = runner(repetition.config)
    except Exception as exc:  # a failed repetition is counted, not fatal
        repetition.problems.append(f"raised {exc!r}")
    finally:
        repetition.segment = clock.measure(mark)
        if tracer is not None:
            tracer.uninstall()
    if repetition.result is not None:
        repetition.problems += cells.cell_problems(workload, repetition.config, repetition.result)
    if _threads() - threads:
        repetition.problems.append("threads outlived the repetition")
    if _children() - children:
        repetition.problems.append("child processes outlived the repetition")
    return repetition


# -- set-up ----------------------------------------------------------------


def set_up(workload, seed: int, clock: HostClock):
    """Import the program, generate the inputs and run the warm-up cell.
    Returns the inputs (fixed replicas first), the warm-up config and the
    normalized set-up seconds."""
    mark = clock.mark()
    sys.path.insert(0, str(SRC))
    fixed = [] if seed == cells.DEFAULT_SEED else cells.fixed_configs(workload)
    inputs = fixed + [
        workload.config(cells.replica_seed(seed, i)) for i in range(PREGENERATED_INPUTS)
    ]
    warmup = workload.config(seed, workload.warmup)
    workload.runner()(warmup)
    return inputs, len(fixed), warmup, clock.measure(mark).normalized_s


def child_setup_seconds(args: argparse.Namespace) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed: {completed.stderr.strip()}")
    return float(completed.stdout.strip().splitlines()[-1])


# -- checks ----------------------------------------------------------------


def check_golden(workload, quality: list[Repetition]) -> None:
    golden = cells.load_golden(workload)
    for replica, repetition in enumerate(quality):
        if repetition.result is None:
            continue
        output = json.loads(json.dumps(cells.stripped(repetition.result)))
        if replica >= len(golden) or output != golden[replica]:
            repetition.problems.append(f"fixed replica {replica} differs from the golden output")


def check_rerun(workload, clock: HostClock, first: Repetition) -> Repetition:
    rerun = run_repetition(workload, clock, Repetition(first.index, first.config))
    if rerun.result is not None and first.result is not None:
        if cells.stripped(rerun.result) != cells.stripped(first.result):
            rerun.problems.append("re-running the first replica changed its output")
    return rerun


def linearity_ratio(workload, clock: HostClock, warmup) -> float:
    """Normalized time of the warm-up cell run twice back to back over
    once, summed over interleaved trials."""
    runner = workload.runner()
    single = double = 0.0
    for _ in range(LINEARITY_TRIALS):
        gc.collect()
        mark = clock.mark()
        runner(warmup)
        single += clock.measure(mark).normalized_s
        gc.collect()
        mark = clock.mark()
        runner(warmup)
        runner(warmup)
        double += clock.measure(mark).normalized_s
    return double / single


# -- metrics ---------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(plain: list[Repetition], setup_samples, quality) -> dict:
    metrics = {
        "cell_s": _metric(statistics.median(rep.segment.normalized_s for rep in plain), "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    units = {"improvement_pct": "%", "mean_hops": "hops", "lookup_success_pct": "%"}
    for name, value in cells.quality_metrics([rep.result for rep in quality]).items():
        metrics[name] = _metric(value, units[name])
    return metrics


def host_metrics(plain: list[Repetition]) -> dict:
    return {
        "host.raw_cell_s": _metric(statistics.median(rep.segment.raw_s for rep in plain), "s"),
        "host.probe_ms": _metric(
            1e3 * statistics.median(rep.segment.mean_probe_s for rep in plain), "ms"
        ),
    }


def per_layer_metrics(plain, traced, tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-cell means over the traced repetitions, normalized with each
    repetition's own host factor, plus the host metrics."""
    problems = []
    layer_s = dict.fromkeys(LAYER_SPANS.values(), 0.0)
    for rep in traced:
        selves = tracer.self_times(rep.index)
        root = next(s for s in tracer.spans if s[0] == ROOT_SPAN and s[4] == rep.index)
        probe_free = (root[2] - root[1]) - selves.pop(PROBE)
        if abs(sum(selves.values()) - probe_free) > 1e-9 * probe_free:
            problems.append(f"repetition {rep.index}: layer self times do not sum to the cell")
        for name, value in selves.items():
            layer_s[LAYER_SPANS[name]] += value * rep.segment.factor / len(traced)
    counts = {key: value / len(traced) for key, value in tracer.counts.items()}
    metrics = {name: _metric(value, "s") for name, value in layer_s.items()}
    for key in (
        "core.select_optimal.calls", "core.select_optimal.peers", "core.select_oblivious.calls",
        "overlay.lookup.calls", "overlay.lookup.hops", "overlay.lookup.timeouts",
        "overlay.stabilize.calls", "overlay.membership.calls", "overlay.recompute.calls",
        "engine.route.lanes", "sim.events.scheduled",
    ):
        metrics[key] = _metric(counts.get(key, 0.0), "count")

    def per_call(total: float, calls: float) -> float:
        return total / calls if calls else 0.0

    metrics["core.select_optimal.ms_per_call"] = _metric(
        1e3 * per_call(layer_s["core.select_optimal.s"], counts.get("core.select_optimal.calls", 0)),
        "ms",
    )
    metrics["overlay.lookup.us_per_call"] = _metric(
        1e6 * per_call(layer_s["overlay.lookup.s"], counts.get("overlay.lookup.calls", 0)), "us"
    )
    metrics["overlay.recompute.unchanged_share"] = _metric(
        per_call(counts.get("overlay.recompute.unchanged", 0), counts.get("overlay.recompute.calls", 0)),
        "ratio",
    )
    metrics.update(host_metrics(plain))
    metrics["host.traced_cell_s"] = _metric(sum(layer_s.values()), "s")
    metrics["host.trace_overhead"] = _metric(
        statistics.median(rep.segment.normalized_s for rep in traced)
        / statistics.median(rep.segment.normalized_s for rep in plain),
        "ratio",
    )
    return metrics, problems


def print_layers(metrics: dict) -> None:
    total = metrics["host.traced_cell_s"]["value"]
    print(f"  traced cell {total:.4f} s; layer self times (they sum to it):")
    for name in sorted(LAYER_SPANS.values(), key=lambda n: -metrics[n]["value"]):
        share = 100.0 * metrics[name]["value"] / total
        print(f"    {name:28s} {metrics[name]['value']:9.4f} s {share:6.1f}%")
    print("  counts per cell and host figures:")
    for name, metric in metrics.items():
        if name not in LAYER_SPANS.values():
            print(f"    {name:36s} {metric['value']:.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another, and
    print their metrics side by side."""
    results = {}
    for name in cells.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"{name}: failed\n{completed.stderr.strip()}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'metric':36s}" + "".join(f"{name:>18s}" for name in results))
    for metric, first in next(iter(results.values()))["metrics"].items():
        values = "".join(f"{result['metrics'][metric]['value']:18.6g}" for result in results.values())
        print(f"{metric + ' (' + first['unit'] + ')':36s}{values}")
    print(f"{'failed / attempted':36s}" + "".join(
        f"{str(result['failed']) + '/' + str(result['attempted']):>18s}" for result in results.values()
    ))
    return 0 if all(result["correct"] for result in results.values()) else 1


# -- main ------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = cells.WORKLOADS[args.workload]
    clock = HostClock()
    with clock:
        inputs, fixed_count, warmup, setup_s = set_up(workload, args.seed, clock)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.write_golden:
        runner = workload.runner()
        cells.write_golden(
            workload, [cells.stripped(runner(config)) for config in cells.fixed_configs(workload)]
        )
        print(f"wrote {cells.golden_path(workload).relative_to(ROOT)}")
        return 0
    setup_samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if args.trace else None
    minimum = MIN_TRACED_REPETITIONS if tracer else MIN_REPETITIONS
    timed: list[Repetition] = []
    with clock:
        if tracer is not None:
            clock.listener = tracer.on_probe
        started = time.perf_counter()
        while len(timed) < minimum or time.perf_counter() - started < args.seconds:
            index = len(timed)
            if index >= len(inputs):
                inputs.append(workload.config(cells.replica_seed(args.seed, index - fixed_count)))
            traced = tracer is not None and index % 2 == 1
            repetition = Repetition(index, inputs[index], traced)
            timed.append(run_repetition(workload, clock, repetition, tracer if traced else None))
        clock.listener = None
        rerun = check_rerun(workload, clock, timed[fixed_count])
        ratio = linearity_ratio(workload, clock, warmup)
    quality = timed[: cells.QUALITY_REPLICAS]
    check_golden(workload, quality)

    checked = timed + [rerun]
    failures = [f"repetition {rep.index}: {problem}" for rep in checked for problem in rep.problems]
    bound = cell_bound()
    linear = abs(ratio / 2.0 - 1.0) <= bound
    if not linear:
        failures.append(f"two cells back to back read {ratio:.3f}x one cell, outside 2x +/- {bound:.0%}")
    plain = [rep for rep in timed if rep.ok and not rep.traced]
    traced_ok = [rep for rep in timed if rep.ok and rep.traced]
    if not plain or (tracer is not None and not traced_ok) or any(r.result is None for r in quality):
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1

    attempted = len(checked) + 1
    failed = sum(1 for rep in checked if not rep.ok) + (not linear)
    print(
        f"{workload.name} seed {args.seed}: {len(plain)} timed cells"
        f"{f' + {len(traced_ok)} traced' if tracer else ''}, {len(setup_samples)} set-ups, "
        f"failed {failed}/{attempted} ({100.0 * failed / attempted:.1f}%), "
        f"back-to-back ratio {ratio:.3f}"
    )
    if tracer is None:
        metrics = end_to_end_metrics(plain, setup_samples, quality)
        counts = {"cell_s": len(plain), "setup_s": len(setup_samples)}
        for name, metric in {**metrics, **host_metrics(plain)}.items():
            note = f" (median of {counts[name]})" if name in counts else ""
            print(f"  {name:20s} {metric['value']:.6g} {metric['unit']}{note}")
        print("  per cell (normalized s / raw s / probe ms): " + ", ".join(
            f"{rep.segment.normalized_s:.3f}/{rep.segment.raw_s:.3f}/"
            f"{1e3 * rep.segment.mean_probe_s:.2f}" for rep in plain
        ))
    else:
        metrics, problems = per_layer_metrics(plain, traced_ok, tracer)
        failures += problems
        failed += bool(problems)
        print_layers(metrics)
        path = SPANS_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  spans written to {path.relative_to(ROOT)}")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
