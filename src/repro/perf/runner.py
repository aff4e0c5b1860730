"""Assemble the BENCH_v1 document; backs ``python -m repro bench``.

Document layout::

    {
      "schema": "BENCH_v1",
      "mode": "full" | "smoke",
      "manifest": {... MANIFEST_v1 run provenance ...},
      "obs_overhead": {n, lookups, overlays, worst_ratio, threshold, passed},
      "telemetry_overhead": {...},
      "cachestats_overhead": {...}
    }

Each section is one disabled observer's paired in-process measurement
(see :mod:`repro.perf.overhead`); its ``passed`` certifies that routing
with the observer disabled costs < 2% over routing without it. Whole
figure cells are timed by the benchmark in ``perfbench/``,
host-normalized and checked against golden outputs.
"""

from __future__ import annotations

import pathlib

from repro.obs.manifest import build_manifest, dump_document
from repro.perf.overhead import SECTIONS, overhead_benchmark

__all__ = ["BENCH_SCHEMA", "failures", "print_summary", "run_bench", "write_bench"]

BENCH_SCHEMA = "BENCH_v1"

#: The disabled observer each section measures, against bare lookups.
LABELS = {
    "obs_overhead": "disabled tracing (NullRecorder / untraced)",
    "telemetry_overhead": "disabled telemetry (inert RoundTelemetry / bare)",
    "cachestats_overhead": "disabled cachestats (disabled AttributionRecorder / untraced)",
}


def run_bench(smoke: bool = False) -> dict:
    """Run the three overhead gates and return the BENCH_v1 document."""
    mode = "smoke" if smoke else "full"
    document = {
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "manifest": build_manifest(extra={"mode": mode}),
    }
    for section in SECTIONS:
        document[section] = overhead_benchmark(section, smoke=smoke)
    return document


def failures(document: dict) -> list[str]:
    """One message per broken gate, naming the section."""
    return [
        f"{section}: {LABELS[section]} worst median {document[section]['worst_ratio']:.4f} "
        f"exceeds the {document[section]['threshold']:.2f} gate"
        for section in SECTIONS
        if not document[section]["passed"]
    ]


def write_bench(document: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Write the document as stable, diff-friendly JSON."""
    path = pathlib.Path(path)
    path.write_text(dump_document(document))
    return path


def print_summary(document: dict) -> None:
    """One line per gate and one per overlay."""
    env = document["manifest"]["env"]
    print(f"bench mode={document['mode']} python={env['python']} numpy={env['numpy']}")
    for section in SECTIONS:
        overhead = document[section]
        print(
            f"{LABELS[section]}: worst median {overhead['worst_ratio']:.4f} "
            f"(threshold {overhead['threshold']:.2f}) passed={overhead['passed']}"
        )
        for name, entry in overhead["overlays"].items():
            print(
                f"  {name:<10} median={entry['median_ratio']:.4f} "
                f"min={entry['min_ratio']:.4f} max={entry['max_ratio']:.4f} "
                f"trials={entry['trials']}"
            )
