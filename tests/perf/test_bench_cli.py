"""End-to-end check of ``python -m repro bench`` at test scale.

Runs the bench machinery with the micro suite and the parallel identity
check monkeypatched down to trivially fast stand-ins — the CLI surface, document assembly,
baseline comparison, and exit codes are what's under test, not timings.
"""

import json

import pytest

import repro.cli as cli
import repro.perf.runner as runner_module
from repro.perf.harness import measure
from repro.perf.runner import BENCH_SCHEMA, run_bench, write_bench


@pytest.fixture
def tiny_bench(monkeypatch):
    def fake_micro(smoke=False):
        return {
            "pastry_cost_scalar_n1024": measure("s", lambda: sum(range(200)), repeats=3, warmup=0),
            "pastry_cost_vectorized_n1024": measure("v", lambda: None, repeats=3, warmup=0),
        }

    monkeypatch.setattr(runner_module, "micro_benchmarks", fake_micro)

    def fake_identity(jobs, smoke=False):
        return {"jobs": jobs, "sweep_cells": 0, "serial_s": 0.0, "parallel_s": 0.0,
                "identical": True}

    monkeypatch.setattr(runner_module, "parallel_identity_check", fake_identity)


class TestRunBench:
    def test_document_shape(self, tiny_bench):
        document = run_bench(smoke=True, jobs=1)
        assert document["schema"] == BENCH_SCHEMA
        assert document["mode"] == "smoke"
        assert "pastry_cost_scalar_n1024" in document["micro"]
        assert document["parallel"]["identical"] is True
        # The paired kernel entries produce a speedup ratio.
        assert document["speedups"]["pastry_cost_n1024"] > 0

    def test_write_is_stable_json(self, tiny_bench, tmp_path):
        document = run_bench(smoke=True, jobs=1)
        path = write_bench(document, tmp_path / "bench.json")
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA


class TestBenchCommand:
    def test_smoke_run_writes_output(self, tiny_bench, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli.main(["bench", "--smoke", "--jobs", "1", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["mode"] == "smoke"
        assert "vectorized speedups" in capsys.readouterr().out

    def test_check_passes_against_self(self, tiny_bench, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli.main(["bench", "--smoke", "--jobs", "1", "--output", str(out)]) == 0
        assert cli.main(["bench", "--smoke", "--jobs", "1", "--check", str(out),
                         "--threshold", "1000"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tiny_bench, tmp_path, capsys):
        baseline = {
            "schema": BENCH_SCHEMA,
            "micro": {"pastry_cost_scalar_n1024": {
                "repeats": 3, "warmup": 0, "min_s": 1e-9, "median_s": 1e-9,
                "mean_s": 1e-9, "p95_s": 1e-9, "max_s": 1e-9}},
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = cli.main(["bench", "--smoke", "--jobs", "1", "--check", str(path)])
        assert code == 1
        assert "regression" in capsys.readouterr().err
