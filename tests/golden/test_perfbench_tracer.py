"""The benchmark's traced profile still attaches to the program.

``perfbench/tracing.py`` wraps the overlays' entry points, the policy
functions :mod:`repro.sim.runner` holds and the engine's functions by
name (``perfbench/run.py --trace 1``). A refactor that moves one of those
names makes the traced run fail or report empty layers, so this test runs
each workload's warm-up cell under the tracer and checks the counts the
per-layer report is built from. It reads ``perfbench/`` and writes
nothing there.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str, filename: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cells = _load("perfbench_cells", "cells.py")
tracing = _load("perfbench_tracing", "tracing.py")


def _traced_warmup(name: str):
    """Run one workload's warm-up cell under a fresh tracer; returns the
    tracer, the config and each patched ``(owner, attribute, original)``."""
    workload = cells.WORKLOADS[name]
    config = workload.config(cells.DEFAULT_SEED, workload.warmup)
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._restore)
    try:
        for owner, attribute, original in patched:
            assert owner.__dict__[attribute] is not original
        tracer.run_cell(0, workload.runner(), config)
    finally:
        tracer.uninstall()
    return tracer, config, patched


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_tracer_counts_every_layer_and_restores_the_program(name):
    tracer, config, patched = _traced_warmup(name)
    counts = tracer.counts
    if cells.WORKLOADS[name].kind == "stable":
        n = config.n
        # One optimal and one oblivious install per node, each traced once.
        assert counts["core.select_optimal.calls"] == n
        assert counts["core.select_oblivious.calls"] == n
        assert counts["overlay.recompute.calls"] == 2 * n
    else:
        assert counts["overlay.recompute.calls"] > 0
        assert counts["overlay.stabilize.calls"] > 0
        assert counts["overlay.membership.calls"] > 0
    assert any(span[0] == "overlay.recompute" for span in tracer.spans)
    assert patched
    for owner, attribute, original in patched:
        assert owner.__dict__[attribute] is original
