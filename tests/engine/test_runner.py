"""Cross-engine identity at the experiment layer.

The acceptance bar for the columnar engine is not "close" but *equal*:
``run_stable`` must return bit-identical :class:`ComparisonResult`
objects under both engines, figure documents must be byte-identical
after stripping volatile manifest keys, and a columnar sweep must be
bit-identical across worker counts.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.driver import document
from repro.experiments.figures import EXPERIMENT, FigurePreset, run_figure
from repro.experiments.sweep import sweep
from repro.obs.manifest import strip_volatile
from repro.sim.runner import ExperimentConfig, run_stable


def tiny_preset(seed=11):
    return FigurePreset(
        name="tiny",
        bits=16,
        queries=200,
        pastry_sizes=(16, 24),
        pastry_k_base=16,
        chord_sizes=(16, 24),
        chord_k_base=16,
        churn_duration=60.0,
        churn_warmup=15.0,
        seed=seed,
    )


class TestRunStableCrossEngine:
    @pytest.mark.parametrize("overlay,n", [("chord", 96), ("pastry", 64)])
    def test_seeded_frequencies_identical(self, overlay, n):
        base = ExperimentConfig(overlay=overlay, n=n, bits=20, queries=800, seed=3)
        objects = run_stable(replace(base, engine="objects"))
        columnar = run_stable(replace(base, engine="columnar"))
        assert objects == columnar

    @pytest.mark.parametrize("overlay,n", [("chord", 64), ("pastry", 48)])
    def test_learned_frequencies_identical(self, overlay, n):
        base = ExperimentConfig(
            overlay=overlay,
            n=n,
            bits=20,
            queries=500,
            seed=5,
            learned_frequencies=True,
            warmup_queries=400,
        )
        objects = run_stable(replace(base, engine="objects"))
        columnar = run_stable(replace(base, engine="columnar"))
        assert objects == columnar

    @pytest.mark.parametrize("overlay,n", [("chord", 64), ("pastry", 48)])
    @pytest.mark.parametrize("budget_mode,budget_total", [("allocated", None), ("uniform", 150)])
    def test_budget_plan_identical(self, overlay, n, budget_mode, budget_total):
        """A budget plan's per-node quotas are installed on the object
        overlay before the engine is picked, so the snapshot routes the
        very tables the object path would."""
        base = ExperimentConfig(
            overlay=overlay,
            n=n,
            bits=20,
            queries=500,
            seed=9,
            budget_mode=budget_mode,
            budget_total=budget_total,
        )
        objects = run_stable(replace(base, engine="objects"))
        columnar = run_stable(replace(base, engine="columnar"))
        assert objects == columnar

    def test_pastry_greedy_mode_identical(self):
        base = ExperimentConfig(
            overlay="pastry", n=48, bits=20, queries=400, seed=7, pastry_mode="greedy"
        )
        assert run_stable(replace(base, engine="objects")) == run_stable(
            replace(base, engine="columnar")
        )


class TestFigureCrossEngine:
    def test_figure_json_byte_identical_after_strip(self):
        """The ``--engine`` flag must be invisible in the stripped
        FIGURE_v1 document — same bytes, either engine."""
        preset = tiny_preset()
        documents = {}
        for engine in ("objects", "columnar"):
            result = run_figure("3", preset, jobs=1, engine=engine)
            payload = document(EXPERIMENT, result, preset)
            documents[engine] = json.dumps(strip_volatile(payload), sort_keys=True)
        assert documents["objects"] == documents["columnar"]


class TestColumnarJobsDeterminism:
    def test_sweep_identical_across_job_counts(self):
        base = ExperimentConfig(
            overlay="chord", n=48, bits=16, queries=300, seed=7, engine="columnar"
        )
        values = [0.9, 1.2, 1.5]
        assert sweep(base, "alpha", values, jobs=1) == sweep(
            base, "alpha", values, jobs=4
        )
