"""Performance-regression harness.

Times the hot kernels (cost evaluation, selection solvers, routing loops)
and runs the gates (process-pool identity, disabled-observer overhead,
columnar engine), and emits a ``BENCH_v1.json`` document so every future
change has a perf trajectory to compare against. Whole figure cells are
timed by the benchmark in ``perfbench/``.

* :mod:`repro.perf.harness` — warmup + repeats timing with median/p95.
* :mod:`repro.perf.micro` — kernel and routing-loop microbenchmarks.
* :mod:`repro.perf.compare` — regression detection between two bench
  documents (used by CI).
* :mod:`repro.perf.runner` — assembles the full document, including the
  serial-vs-parallel sweep identity check; backs ``python -m repro bench``.
"""

from repro.perf.compare import Regression, find_regressions, load_bench
from repro.perf.harness import BenchTiming, measure
from repro.perf.runner import BENCH_SCHEMA, run_bench, write_bench

__all__ = [
    "BENCH_SCHEMA",
    "BenchTiming",
    "Regression",
    "find_regressions",
    "load_bench",
    "measure",
    "run_bench",
    "write_bench",
]
