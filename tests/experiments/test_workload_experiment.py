"""The workload-plane grid: ordering, gates, JSON canonicality, CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.driver import document
from repro.experiments.workload import (
    EXPERIMENT,
    SELECTIONS,
    WorkloadPreset,
    WorkloadRow,
    cache_rows_to_table,
    gate_messages,
    rows_to_table,
    run_workloads,
)
from repro.obs.manifest import dump_document, strip_volatile


def tiny_preset(seed: int = 3) -> WorkloadPreset:
    return WorkloadPreset(
        name="tiny",
        n=24,
        bits=14,
        queries=400,
        warmup=300,
        seed=seed,
        scenarios=("static-zipf", "hotspot-rotation:30"),
        overlays=("chord",),
        cache_n=16,
        cache_queries=300,
        cache_capacity=6,
    )


@pytest.fixture(scope="module")
def grid():
    return run_workloads(tiny_preset(), jobs=1)


class TestGrid:
    def test_rows_follow_plan_order(self, grid):
        rows, __ = grid
        assert [(r.scenario, r.selection) for r in rows] == [
            (scenario, selection)
            for scenario in ("static-zipf", "hotspot-rotation:30")
            for selection in SELECTIONS
        ]
        assert all(r.overlay == "chord" for r in rows)
        assert all(r.lookups == 400 for r in rows)

    def test_frequency_learning_beats_uniform_on_static_zipf(self, grid):
        rows, __ = grid
        indexed = {(r.scenario, r.selection): r.mean_hops for r in rows}
        assert indexed[("static-zipf", "frequency")] < indexed[("static-zipf", "uniform")]
        assert indexed[("static-zipf", "adaptive")] < indexed[("static-zipf", "uniform")]

    def test_cache_grid_reports_all_disciplines_plus_anchors(self, grid):
        __, cache_rows = grid
        strategies = {
            (row.scenario, row.strategy) for row in cache_rows
        }
        for scenario in ("static-zipf", "hotspot-rotation:30"):
            assert {s for sc, s in strategies if sc == scenario} == {
                "item-lru",
                "item-lfu",
                "item-prob",
                "pointer",
                "none",
            }

    def test_probabilistic_admission_hits_less_than_lru(self, grid):
        __, cache_rows = grid
        indexed = {(r.scenario, r.strategy): r for r in cache_rows}
        lru = indexed[("static-zipf", "item-lru")]
        prob = indexed[("static-zipf", "item-prob")]
        assert prob.cache_hit_rate < lru.cache_hit_rate

    def test_json_is_identical_across_job_counts(self):
        preset = tiny_preset(seed=5)
        documents = []
        for jobs in (1, 2):
            grid = run_workloads(preset, jobs=jobs)
            payload = strip_volatile(document(EXPERIMENT, grid, preset))
            documents.append(json.dumps(payload, sort_keys=True))
        assert documents[0] == documents[1]

    def test_json_schema_and_round_trip(self, grid):
        rows, cache_rows = grid
        payload = json.loads(dump_document(document(EXPERIMENT, grid, tiny_preset())))
        assert payload["schema"] == "WORKLOAD_v1"
        assert payload["manifest"]["schema"] == "MANIFEST_v1"
        assert payload["preset"]["scenarios"] == ["static-zipf", "hotspot-rotation:30"]
        assert len(payload["rows"]) == len(rows)
        assert len(payload["comparisons"]) == 2
        for entry in payload["comparisons"]:
            assert set(entry) == {
                "scenario",
                "overlay",
                "frequency_vs_uniform_pct",
                "adaptive_vs_uniform_pct",
            }


def _row(scenario, selection, mean_hops):
    return WorkloadRow(
        scenario=scenario,
        overlay="chord",
        selection=selection,
        mean_hops=mean_hops,
        failure_rate=0.0,
        lookups=100,
    )


class TestGates:
    def test_all_wins_pass(self):
        rows = [
            _row("static-zipf", "uniform", 2.0),
            _row("static-zipf", "frequency", 1.5),
            _row("static-zipf", "adaptive", 1.4),
        ]
        assert gate_messages(rows) == []

    def test_frequency_loss_on_static_zipf_fails(self):
        rows = [
            _row("static-zipf", "uniform", 2.0),
            _row("static-zipf", "frequency", 2.1),
            _row("static-zipf", "adaptive", 1.4),
        ]
        messages = gate_messages(rows)
        assert len(messages) == 1
        assert "frequency-aware selection loses" in messages[0]

    def test_frequency_loss_on_moving_scenario_is_tolerated(self):
        # Frozen tables may legitimately lose once the hot set moves;
        # only the *adaptive* win is required there.
        rows = [
            _row("hotspot-rotation:30", "uniform", 2.0),
            _row("hotspot-rotation:30", "frequency", 2.2),
            _row("hotspot-rotation:30", "adaptive", 1.8),
        ]
        assert gate_messages(rows) == []

    def test_adaptive_loss_fails_on_any_scenario(self):
        rows = [
            _row("drifting-zipf:30", "uniform", 2.0),
            _row("drifting-zipf:30", "frequency", 1.8),
            _row("drifting-zipf:30", "adaptive", 2.0),
        ]
        messages = gate_messages(rows)
        assert len(messages) == 1
        assert "adaptive selection loses" in messages[0]


class TestRendering:
    def test_table_carries_scenarios_and_reductions(self, grid):
        rows, __ = grid
        table = rows_to_table(rows)
        assert "static-zipf" in table
        assert "hotspot-rotation:30" in table
        assert "%" in table

    def test_cache_table_carries_strategies(self, grid):
        __, cache_rows = grid
        table = cache_rows_to_table(cache_rows)
        for strategy in ("item-lru", "item-lfu", "item-prob", "pointer", "none"):
            assert strategy in table


class TestCli:
    def test_parser_accepts_workload_command(self):
        args = build_parser().parse_args(
            ["workload", "--smoke", "--seed", "7", "--jobs", "2", "--json", "out.json"]
        )
        assert args.command == "workload"
        assert args.smoke
        assert args.seed == 7
        assert args.jobs == 2
        assert args.json == "out.json"

    def test_workload_flag_threaded_through_other_commands(self):
        parser = build_parser()
        for argv in (
            ["compare", "chord", "--workload", "drifting-zipf:30"],
            ["sweep", "chord", "k", "2", "--workload", "flash-crowd:2"],
            ["faults", "--smoke", "--workload", "diurnal:100"],
            ["figure", "3", "--workload", "hotspot-rotation:50"],
            ["metrics", "--workload", "static-zipf"],
        ):
            assert parser.parse_args(argv).workload == argv[-1]

    def test_compare_rejects_unknown_workload(self, capsys):
        code = main(["compare", "chord", "--n", "24", "--bits", "14", "--workload", "nope"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_compare_label_carries_workload(self, capsys):
        code = main(
            [
                "compare", "chord",
                "--n", "24", "--bits", "14", "--queries", "200", "--seed", "1",
                "--workload", "hotspot-rotation:50",
            ]
        )
        assert code == 0
        assert "workload=hotspot-rotation:50" in capsys.readouterr().out
