"""Assemble the full BENCH_v1 document; backs ``python -m repro bench``.

Document layout::

    {
      "schema": "BENCH_v1",
      "mode": "full" | "smoke",
      "python": "3.x.y", "platform": "...", "cpu_count": N,
      "numpy": "x.y.z" | null,
      "manifest": {... MANIFEST_v1 run provenance ...},
      "micro":    {name: {repeats, warmup, min_s, median_s, ...}},
      "speedups": {kernel: scalar_median / vectorized_median},
      "parallel": {jobs, sweep_cells, serial_s, parallel_s, identical},
      "obs_overhead": {overlays, worst_ratio, threshold, passed},
      "telemetry_overhead": {overlays, worst_ratio, threshold, passed},
      "cachestats_overhead": {overlays, worst_ratio, threshold, passed},
      "engine_equivalence": {cells, identical},
      "engine_speedup": {overlays, worst_routing_speedup, threshold, passed},
      "engine_memory": {n, bytes_per_node, threshold, passed}
    }

``speedups`` is derived from paired micro entries (see
:data:`repro.perf.micro.KERNEL_PAIRS`); the vectorization acceptance bar
is >= 5x on both cost kernels at n=1024. ``parallel.identical`` must be
``true`` — it certifies that worker-process fan-out reproduces the serial
sweep bit for bit. ``obs_overhead.passed`` must be ``true`` — it
certifies that routing with a disabled trace recorder costs < 2% over
routing with no recorder; ``telemetry_overhead.passed`` and
``cachestats_overhead.passed`` hold the disabled telemetry runtime and a
disabled :class:`~repro.obs.attribution.AttributionRecorder` to the same
bar (one harness measures all three; see :mod:`repro.perf.overhead`).
The ``engine_*`` sections certify the columnar simulation engine: cross-
engine results identical, batched routing >= 10x the object routers at
full scale, and <= 1 KiB of columnar image per node (see
:mod:`repro.perf.engine`). Each may instead carry ``{"skipped": ...}``
when numpy is absent. Whole figure cells are timed by the benchmark in
``perfbench/``, host-normalized and checked against golden outputs.
"""

from __future__ import annotations

import os
import pathlib
import platform
import sys
import time

from repro.experiments.sweep import sweep
from repro.obs.manifest import build_manifest, dump_document
from repro.perf.engine import engine_equivalence, engine_memory, engine_speedup
from repro.perf.micro import KERNEL_PAIRS, micro_benchmarks
from repro.perf.overhead import overhead_benchmark
from repro.sim.runner import ExperimentConfig
from repro.util.parallel import resolve_jobs

__all__ = ["BENCH_SCHEMA", "run_bench", "write_bench"]

BENCH_SCHEMA = "BENCH_v1"


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def parallel_identity_check(jobs: int, smoke: bool = False) -> dict:
    """Run one sweep serially and with ``jobs`` workers; time both and
    verify the outputs are identical (exact float equality, not approx)."""
    base = ExperimentConfig(
        overlay="chord",
        n=48 if smoke else 96,
        bits=16 if smoke else 20,
        queries=400 if smoke else 1500,
        seed=3,
    )
    values = [0.8, 1.0, 1.2, 1.4]
    started = time.perf_counter()
    serial_rows = sweep(base, "alpha", values, jobs=1)
    serial_s = time.perf_counter() - started
    started = time.perf_counter()
    parallel_rows = sweep(base, "alpha", values, jobs=jobs)
    parallel_s = time.perf_counter() - started
    return {
        "jobs": jobs,
        "sweep_cells": len(values),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "identical": serial_rows == parallel_rows,
    }


def run_bench(smoke: bool = False, jobs: int | None = None) -> dict:
    """Run the full bench matrix and return the BENCH_v1 document."""
    resolved_jobs = resolve_jobs(jobs)
    micro = micro_benchmarks(smoke=smoke)
    speedups = {}
    for key, scalar_name, vector_name in KERNEL_PAIRS:
        if scalar_name in micro and vector_name in micro:
            speedups[key] = round(micro[scalar_name].median_s / micro[vector_name].median_s, 2)
    return {
        "schema": BENCH_SCHEMA,
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "numpy": _numpy_version(),
        "manifest": build_manifest(extra={"mode": "smoke" if smoke else "full"}),
        "micro": {name: timing.to_dict() for name, timing in micro.items()},
        "speedups": speedups,
        # At least two workers so the check exercises a real process pool
        # even on single-CPU boxes.
        "parallel": parallel_identity_check(max(2, resolved_jobs), smoke=smoke),
        "obs_overhead": overhead_benchmark("obs_overhead", smoke=smoke),
        "telemetry_overhead": overhead_benchmark("telemetry_overhead", smoke=smoke),
        "cachestats_overhead": overhead_benchmark("cachestats_overhead", smoke=smoke),
        "engine_equivalence": engine_equivalence(smoke=smoke),
        "engine_speedup": engine_speedup(smoke=smoke),
        "engine_memory": engine_memory(smoke=smoke),
    }


def write_bench(document: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Write the document as stable, diff-friendly JSON."""
    path = pathlib.Path(path)
    path.write_text(dump_document(document))
    return path


def print_summary(document: dict, stream=None) -> None:
    """Human-readable one-screen summary of a bench document."""
    if stream is None:
        stream = sys.stdout
    print(f"bench mode={document['mode']} python={document['python']} "
          f"cpus={document['cpu_count']} numpy={document['numpy']}", file=stream)
    print("\nmicro (median per call):", file=stream)
    for name, entry in document["micro"].items():
        print(f"  {name:<34} {entry['median_s'] * 1e3:10.3f} ms", file=stream)
    if document["speedups"]:
        print("\nvectorized speedups (scalar / vectorized):", file=stream)
        for name, ratio in document["speedups"].items():
            print(f"  {name:<34} {ratio:10.1f}x", file=stream)
    parallel = document["parallel"]
    print(
        f"\nparallel identity: jobs={parallel['jobs']} cells={parallel['sweep_cells']} "
        f"serial={parallel['serial_s']:.2f}s parallel={parallel['parallel_s']:.2f}s "
        f"identical={parallel['identical']}",
        file=stream,
    )
    for key, label in (
        ("obs_overhead", "trace overhead (NullRecorder / untraced)"),
        ("telemetry_overhead", "telemetry overhead (disabled runtime / bare)"),
        ("cachestats_overhead", "cachestats overhead (disabled attribution / untraced)"),
    ):
        overhead = document.get(key)
        if overhead:
            print(
                f"{label}: worst median "
                f"{overhead['worst_ratio']:.4f} (threshold {overhead['threshold']:.2f}) "
                f"passed={overhead['passed']}",
                file=stream,
            )
            for name, entry in overhead["overlays"].items():
                print(
                    f"  {name:<10} median={entry['median_ratio']:.4f} "
                    f"min={entry['min_ratio']:.4f} max={entry['max_ratio']:.4f} "
                    f"trials={entry['trials']}",
                    file=stream,
                )
    equivalence = document.get("engine_equivalence")
    if equivalence and "skipped" not in equivalence:
        print(f"\nengine equivalence: identical={equivalence['identical']}", file=stream)
        for name, cell in equivalence["cells"].items():
            print(
                f"  {name:<10} n={cell['n']:<6} objects={cell['objects_s']:.2f}s "
                f"columnar={cell['columnar_s']:.2f}s identical={cell['identical']}",
                file=stream,
            )
    speedup = document.get("engine_speedup")
    if speedup and "skipped" not in speedup:
        print(
            f"engine speedup: worst routing {speedup['worst_routing_speedup']:.1f}x "
            f"(threshold {speedup['threshold']:.1f}x) passed={speedup['passed']}",
            file=stream,
        )
        for name, entry in speedup["overlays"].items():
            print(
                f"  {name:<10} objects={entry['objects_s'] * 1e3:.1f}ms "
                f"batch={entry['batch_s'] * 1e3:.1f}ms "
                f"snapshot={entry['snapshot_s'] * 1e3:.1f}ms "
                f"routing={entry['routing_speedup']:.1f}x "
                f"end-to-end={entry['end_to_end_speedup']:.1f}x",
                file=stream,
            )
    memory = document.get("engine_memory")
    if memory and "skipped" not in memory:
        print(
            f"engine memory: n={memory['n']} "
            f"{memory['bytes_per_node']:.1f} B/node "
            f"(threshold {memory['threshold']:.0f}) passed={memory['passed']}",
            file=stream,
        )
