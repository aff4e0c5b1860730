"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sim.runner import ExperimentConfig
from repro.util.errors import ConfigurationError


class TestParser:
    def test_figure_arguments(self):
        args = build_parser().parse_args(["figure", "3", "--seed", "7", "--detail"])
        assert args.command == "figure"
        assert args.figure_id == "3"
        assert args.seed == 7
        assert args.detail

    def test_figure_rejects_unknown_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9"])

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "chord", "--n", "64", "--k", "5", "--churn"]
        )
        assert args.overlay == "chord"
        assert args.n == 64
        assert args.k == 5
        assert args.churn

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_compare_stable_runs(self, capsys):
        code = main(
            ["compare", "chord", "--n", "32", "--bits", "16", "--queries", "400", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "failure rates" in out

    def test_compare_churn_runs(self, capsys):
        code = main(
            [
                "compare",
                "pastry",
                "--n", "24",
                "--bits", "16",
                "--churn",
                "--duration", "120",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert "reduction" in capsys.readouterr().out

    def test_faults_parser_arguments(self):
        args = build_parser().parse_args(["faults", "--smoke", "--seed", "9", "--jobs", "2"])
        assert args.command == "faults"
        assert args.smoke
        assert args.seed == 9
        assert args.jobs == 2

    def test_faults_smoke_runs_and_writes_json(self, capsys, tmp_path):
        target = tmp_path / "robustness.json"
        code = main(["faults", "--smoke", "--jobs", "2", "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" in out
        assert target.exists()
        assert '"schema": "ROBUSTNESS_v1"' in target.read_text()

    def test_allocate_parser_arguments(self):
        args = build_parser().parse_args(
            ["allocate", "--smoke", "--seed", "4", "--jobs", "2"]
        )
        assert args.command == "allocate"
        assert args.smoke
        assert args.seed == 4
        assert args.jobs == 2

    def test_compare_budget_argument_parses(self):
        from repro.cli import _parse_budget

        assert _parse_budget(None) == {}
        assert _parse_budget("uniform:120") == {
            "budget_mode": "uniform",
            "budget_total": 120,
        }
        assert _parse_budget("allocated") == {
            "budget_mode": "allocated",
            "budget_total": None,
        }
        # The config is the one check on the mode.
        assert _parse_budget("clever:3") == {"budget_mode": "clever", "budget_total": 3}
        with pytest.raises(ConfigurationError, match="unknown budget_mode 'clever'"):
            ExperimentConfig(overlay="chord", **_parse_budget("clever:3"))
        with pytest.raises(ConfigurationError, match="must be an integer, got 'many'"):
            _parse_budget("allocated:many")

    def test_compare_with_budget_runs(self, capsys):
        code = main(
            [
                "compare",
                "chord",
                "--n",
                "32",
                "--bits",
                "16",
                "--queries",
                "300",
                "--budget",
                "allocated:100",
            ]
        )
        assert code == 0
        assert "budget=allocated:100" in capsys.readouterr().out

    def test_allocate_smoke_runs_and_writes_json(self, capsys, tmp_path):
        target = tmp_path / "allocation.json"
        code = main(["allocate", "--smoke", "--jobs", "2", "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "allocated" in out
        assert "reduction" in out
        assert target.exists()
        assert '"schema": "ALLOCATION_v1"' in target.read_text()

    def test_allocate_workload_and_loads_arguments(self):
        args = build_parser().parse_args(
            ["allocate", "--smoke", "--workload", "diurnal", "--loads", "measured"]
        )
        assert args.workload == "diurnal"
        assert args.loads == "measured"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--loads", "guessed"])

    def test_allocate_measured_smoke_gates_on_load_win(self, capsys):
        code = main(
            ["allocate", "--smoke", "--jobs", "2", "--workload", "diurnal",
             "--loads", "measured"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "load win" in out

    def test_cachestats_parser_arguments(self):
        args = build_parser().parse_args(
            ["cachestats", "--smoke", "--seed", "6", "--jobs", "2",
             "--top", "3", "--workload", "flash-crowd"]
        )
        assert args.command == "cachestats"
        assert args.smoke
        assert args.seed == 6
        assert args.jobs == 2
        assert args.top == 3
        assert args.workload == "flash-crowd"

    def test_cachestats_smoke_runs_and_writes_json(self, capsys, tmp_path):
        target = tmp_path / "cachestats.json"
        code = main(["cachestats", "--smoke", "--jobs", "2", "--json", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "credited" in out
        assert "util" in out
        assert "conservation" in out
        assert target.exists()
        assert '"schema": "CACHESTATS_v1"' in target.read_text()

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Chord" in out
        assert "Pastry" in out

    def test_trace_parser_arguments(self):
        args = build_parser().parse_args(
            ["trace", "pastry", "--sample", "32", "--policy", "oblivious", "--loss", "0.05"]
        )
        assert args.command == "trace"
        assert args.overlay == "pastry"
        assert args.sample == 32
        assert args.policy == "oblivious"
        assert args.loss == 0.05

    def test_trace_defaults_to_chord(self):
        assert build_parser().parse_args(["trace"]).overlay == "chord"

    def test_trace_runs_and_writes_json(self, capsys, tmp_path):
        target = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--n", "24",
                "--bits", "16",
                "--queries", "200",
                "--sample", "8",
                "--loss", "0.05",
                "--json", str(target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hop breakdown by pointer class" in out
        assert "per-lookup paths" in out
        assert "hop 1:" in out
        assert target.exists()
        assert '"schema": "TRACE_v1"' in target.read_text()

    def test_figure_writes_json_with_manifest(self, capsys, tmp_path):
        import json

        target = tmp_path / "figure.json"
        code = main(["figure", "5", "--jobs", "2", "--json", str(target)])
        assert code == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "FIGURE_v1"
        assert document["manifest"]["schema"] == "MANIFEST_v1"
        assert document["series"]

    def test_metrics_parser_arguments(self):
        args = build_parser().parse_args(
            ["metrics", "pastry", "--rounds", "6", "--smoke", "--loss", "0.05"]
        )
        assert args.command == "metrics"
        assert args.overlay == "pastry"
        assert args.rounds == 6
        assert args.smoke
        assert args.loss == 0.05

    def test_metrics_defaults_to_chord(self):
        assert build_parser().parse_args(["metrics"]).overlay == "chord"

    def test_metrics_smoke_writes_both_exports(self, capsys, tmp_path):
        import json

        json_target = tmp_path / "metrics.json"
        text_target = tmp_path / "metrics.om"
        code = main(
            [
                "metrics",
                "--smoke",
                "--rounds", "3",
                "--jobs", "2",
                "--json", str(json_target),
                "--openmetrics", str(text_target),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "METRICS_v1:" in out
        assert "round clock" in out
        assert "cost/lookup" in out
        document = json.loads(json_target.read_text())
        assert document["schema"] == "METRICS_v1"
        assert document["manifest"]["schema"] == "MANIFEST_v1"
        assert set(document["cells"]) == {"optimal", "oblivious"}
        exposition = text_target.read_text()
        assert exposition.endswith("# EOF\n")
        from repro.telemetry.export import parse_openmetrics

        assert parse_openmetrics(exposition)

    def test_metrics_smoke_is_deterministic_across_jobs(self, capsys, tmp_path):
        import json

        from repro.obs.manifest import strip_volatile

        documents = []
        for jobs, name in (("1", "a.json"), ("2", "b.json")):
            target = tmp_path / name
            assert main(
                ["metrics", "--smoke", "--rounds", "2", "--jobs", jobs,
                 "--json", str(target)]
            ) == 0
            documents.append(strip_volatile(json.loads(target.read_text())))
        capsys.readouterr()
        assert json.dumps(documents[0], sort_keys=True) == json.dumps(
            documents[1], sort_keys=True
        )

    def test_report_parser_arguments(self):
        args = build_parser().parse_args(
            ["report", "--figures", "3", "5", "--jobs", "2", "--out-dir", "out"]
        )
        assert args.command == "report"
        assert args.figures == ["3", "5"]
        assert args.jobs == 2
        assert args.out_dir == "out"

    def test_report_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--figures", "9"])

    @pytest.mark.parametrize("overlay", ["chord", "pastry", "kademlia"])
    def test_compare_runs_on_ids_wider_than_62_bits(self, overlay, capsys):
        code = main(["compare", overlay, "--n", "16", "--bits", "64", "--queries", "50"])
        assert code == 0
        assert "reduction" in capsys.readouterr().out


SRC = str(Path(__file__).resolve().parents[2] / "src")

#: A cell small enough that a bad value which slips through still ends fast.
TINY = ["compare", "chord", "--n", "16", "--bits", "12", "--queries", "50"]


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "chord", "--workload", "flash-crowd:-1"], "parameter must be >= 1, got -1"),
            (["compare", "chord", "--workload", "nosuch"], "unknown workload 'nosuch'"),
            (["compare", "chord", "--n", "32", "--k", "40"], "k=40 must be smaller than n=32"),
            (["compare", "chord", "--queries", "0"], "queries must be positive, got 0"),
            (["trace", "--sample", "0"], "sample must be >= 1"),
            (["compare", "kademlia", "--engine", "columnar"], "engine='columnar' unsupported"),
            (
                ["compare", "chord", "--n", "16", "--bits", "12", "--workload", "trace:/no/such/file"],
                "cannot read trace /no/such/file",
            ),
            (["sweep", "chord", "alpha", "abc"], "invalid alpha value 'abc'"),
            (
                ["sweep", "chord", "learned_frequencies", "maybe"],
                "learned_frequencies must be True or False, got 'maybe'",
            ),
            (["sweep", "chord", "faults", "x"], "faults must be a FaultSchedule, got 'x'"),
            (["sweep", "chord", "retry", "x"], "retry must be a RetryPolicy, got 'x'"),
            (
                ["sweep", "chord", "frequency_limit", "0"],
                "frequency_limit must be at least 1 (or None), got 0",
            ),
            (
                ["compare", "chord", "--budget", "allocated:x"],
                "--budget total must be an integer, got 'x'",
            ),
            (["compare", "chord", "--budget", "bogus"], "unknown budget_mode 'bogus'"),
            # Non-finite and empty numeric input used to run or hang.
            (
                [*TINY, "--workload", "diurnal:nan"],
                "workload 'diurnal' parameter must be a positive finite number, got nan",
            ),
            (
                [*TINY, "--workload", "hotspot-rotation:inf"],
                "workload 'hotspot-rotation' parameter must be a positive finite number, got inf",
            ),
            ([*TINY, "--workload", "drifting-zipf:"], "'drifting-zipf' has an empty parameter"),
            (
                ["trace", "--n", "16", "--bits", "12", "--queries", "50", "--loss", "nan"],
                "loss_rate must be in [0, 1), got nan",
            ),
            (
                [*TINY, "--churn", "--duration", "nan"],
                "duration must be a positive finite number, got nan",
            ),
            (
                [*TINY, "--churn", "--duration", "inf"],
                "duration must be a positive finite number, got inf",
            ),
            (
                ["cachestats", "--smoke", "--top", "-1"],
                "--top must be a non-negative integer, got -1",
            ),
            # A tiny drift interval spun and a huge crowd count ran for
            # seconds to minutes.
            (
                [*TINY, "--workload", "drifting-zipf:1e-9"],
                "workload 'drifting-zipf' swap interval must be at least 0.25 s",
            ),
            (
                [*TINY, "--workload", "flash-crowd:100000"],
                "workload 'flash-crowd' takes at most 32 crowds",
            ),
            # An unknown Pastry mode printed a Chord row, or failed only
            # at the first Pastry lookup.
            (
                ["sweep", "chord", "pastry_mode", "proximity", "bogus"],
                "unknown pastry_mode 'bogus'",
            ),
            (["sweep", "pastry", "pastry_mode", "bogus"], "unknown pastry_mode 'bogus'"),
        ],
    )
    def test_one_diagnostic_line_and_exit_2(self, argv, message):
        env = {**os.environ, "PYTHONPATH": SRC}
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("repro: error: ")
        assert message in completed.stderr


class TestSweepValues:
    def test_boolean_values_parse_into_distinct_rows(self, capsys):
        code = main(
            ["sweep", "chord", "learned_frequencies", "false", "true", "--n", "64",
             "--bits", "16", "--queries", "1000", "--jobs", "1", "--csv"]
        )
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:3]]
        assert [row[1] for row in rows] == ["False", "True"]
        # Seeded (converged) and learned frequencies select different
        # pointers, so the two rows cannot coincide.
        assert rows[0][2:] != rows[1][2:]
