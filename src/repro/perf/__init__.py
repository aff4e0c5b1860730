"""Disabled-observer overhead gates; back ``python -m repro bench``.

Tracing, telemetry and cache attribution promise to cost nothing when
disabled. ``repro bench`` measures each promise paired and in-process
and emits a ``BENCH_v1`` document with one section per observer. Whole
figure cells are timed by the benchmark in ``perfbench/``, the one
timing benchmark.

* :mod:`repro.perf.overhead` — the paired chunk-interleaved harness and
  its 2% threshold.
* :mod:`repro.perf.runner` — assembles and prints the document and
  names the broken gates.
"""

from repro.perf.runner import BENCH_SCHEMA, run_bench, write_bench

__all__ = ["BENCH_SCHEMA", "run_bench", "write_bench"]
