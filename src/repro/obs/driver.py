"""Traced experiment cells: run one stable-mode cell with tracing on.

:func:`trace_cell` runs the same :func:`~repro.sim.runner.stable_cell`
``run_stable`` measures for one policy — same registry substreams,
overlay, frequencies, budget plan, workload and fault realization — with
a :class:`LookupTracer` attached, so the per-hop story of every lookup
(or a seeded reservoir sample of them) is captured. Because recorders
only observe, the aggregate statistics of a traced cell are
bit-identical to the untraced run under every workload and budget;
``tests/obs`` pins this, which is what lets traces explain production
numbers rather than numbers-of-a-slightly-different-run.
"""

from __future__ import annotations

from repro.obs.manifest import build_manifest, json_float
from repro.obs.recorder import LookupTracer
from repro.sim.runner import ExperimentConfig, stable_cell
from repro.util.rng import substream_seed

__all__ = ["TRACE_SCHEMA", "trace_cell"]

TRACE_SCHEMA = "TRACE_v1"


def trace_cell(
    config: ExperimentConfig,
    policy: str = "optimal",
    sample: int | None = None,
) -> dict:
    """Run one stable-mode cell under ``policy`` with tracing enabled.

    Returns a picklable ``TRACE_v1`` document: the cell's manifest, the
    hop-class/verdict counter aggregates over *all* lookups, the kept
    per-lookup traces (all of them, or a ``sample``-sized seeded
    reservoir), the usual :class:`HopStatistics` summary, and the fault
    plane's injection counters when faults were active.
    """
    # The reservoir draws from its own substream: tracing must never
    # perturb the simulation's RNG streams.
    tracer = LookupTracer(sample=sample, seed=substream_seed(config.seed, "trace-reservoir"))
    run = stable_cell(config, policy, trace=tracer)
    summary = {**run.stats.summary(), **run.stats.latency_percentiles()}
    return {
        "schema": TRACE_SCHEMA,
        "overlay": config.overlay,
        "policy": policy,
        "manifest": build_manifest(config),
        "stats": {key: json_float(value) for key, value in summary.items()},
        "counters": tracer.counters.to_dict(),
        "sample": tracer.sample,
        "seen": tracer.seen,
        "kept": len(tracer.traces),
        "traces": [trace.to_dict() for trace in tracer.traces],
        "fault_counters": run.plane.counters() if run.plane is not None else None,
    }
