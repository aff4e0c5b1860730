"""The benchmark's paper-scale cells against their committed outputs.

``perfbench/golden/<workload>.json`` holds the stripped output of each
workload's fixed replica set (Figure 3, 5 and 7 cells at paper scale,
including a 512-node Pastry cell whose every node solves a ~256-peer
selection trie). The benchmark checks it on each run; this test runs the
same cells through the same runners inside the suite, so a change that
moves a paper-scale result fails here too. It reads ``perfbench/`` and
writes nothing there.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load_cells():
    spec = importlib.util.spec_from_file_location("perfbench_cells", PERFBENCH / "cells.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


cells = _load_cells()


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_fixed_replicas_match_golden(name):
    workload = cells.WORKLOADS[name]
    runner = workload.runner()
    outputs = [cells.stripped(runner(config)) for config in cells.fixed_configs(workload)]
    # The same JSON round trip the benchmark's own golden check applies.
    assert json.loads(json.dumps(outputs)) == cells.load_golden(workload)
