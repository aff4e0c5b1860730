"""The cachestats experiment: cells, gates, JSON canonicality, CLI."""

import copy
import json

import pytest

from repro.experiments.cachestats import (
    EXPERIMENT,
    CachestatsPreset,
    cells_to_table,
    gate_messages,
    run_cachestats,
    top_pointers_table,
    utilization_series,
)
from repro.experiments.driver import document
from repro.obs.manifest import dump_document, strip_volatile


def tiny_preset(seed: int = 0, overlays=("chord",), **overrides):
    base = dict(
        name="tiny",
        n=28,
        bits=16,
        queries=300,
        warmup=200,
        seed=seed,
        num_rankings=4,
        overlays=overlays,
    )
    base.update(overrides)
    return CachestatsPreset(**base)


@pytest.fixture(scope="module")
def full_grid():
    """One tiny cell per overlay, shared by the read-only assertions."""
    return run_cachestats(
        tiny_preset(overlays=("chord", "pastry", "kademlia")), jobs=1
    )


class TestCells:
    def test_cell_accounting_is_coherent(self, full_grid):
        for cell in full_grid:
            assert cell["lookups"] == 300
            for stats in cell["classes"].values():
                assert 0 <= stats["hits"] <= stats["uses"]
                assert 0 <= stats["stale_uses"] <= stats["uses"]
            assert cell["quota"]["spent"] <= cell["quota"]["total_budget"]
            assert cell["conservation"]["exact"] is True
            assert cell["churn"]["conservation"]["exact"] is True
            assert cell["churn"]["stale_uses"] > 0

    def test_auxiliary_pointers_earn_credit_everywhere(self, full_grid):
        for cell in full_grid:
            assert cell["classes"]["auxiliary"]["credited"] > 0

    def test_columnar_attribution_matches_object_graph(self, full_grid):
        by_overlay = {cell["overlay"]: cell["columnar_match"] for cell in full_grid}
        assert by_overlay["chord"] is True
        assert by_overlay["pastry"] is True
        assert by_overlay["kademlia"] is None  # engine does not cover it

    def test_loads_are_positive_mean_one(self, full_grid):
        for cell in full_grid:
            loads = list(cell["loads"]["per_node"].values())
            assert all(load > 0.0 for load in loads)
            assert sum(loads) / len(loads) == pytest.approx(1.0)

    def test_gates_pass_on_every_overlay(self, full_grid):
        assert gate_messages(full_grid) == []


class TestGates:
    def test_each_doctored_claim_fires_its_gate(self, full_grid):
        clean = full_grid[0]

        broken = copy.deepcopy(clean)
        broken["conservation"]["exact"] = False
        assert any("conservation" in m for m in gate_messages([broken]))

        broken = copy.deepcopy(clean)
        broken["classes"]["auxiliary"]["hits"] = (
            broken["classes"]["auxiliary"]["uses"] + 1
        )
        assert any("more hits" in m for m in gate_messages([broken]))

        broken = copy.deepcopy(clean)
        broken["classes"]["auxiliary"]["credited"] = 0
        assert any("no credited" in m for m in gate_messages([broken]))

        broken = copy.deepcopy(clean)
        broken["columnar_match"] = False
        assert any("columnar" in m for m in gate_messages([broken]))

        broken = copy.deepcopy(clean)
        broken["churn"]["stale_uses"] = 0
        assert any("stale" in m for m in gate_messages([broken]))


class TestDeterminism:
    def test_json_identical_across_job_counts(self):
        preset = tiny_preset(seed=4, overlays=("chord", "pastry", "kademlia"))
        serial = document(EXPERIMENT, run_cachestats(preset, jobs=1), preset)
        parallel = document(EXPERIMENT, run_cachestats(preset, jobs=4), preset)
        canonical = lambda doc: json.dumps(strip_volatile(doc), sort_keys=True)
        assert canonical(serial) == canonical(parallel)

    def test_json_round_trips(self, full_grid):
        preset = tiny_preset(overlays=("chord", "pastry", "kademlia"))
        payload = json.loads(dump_document(document(EXPERIMENT, full_grid, preset)))
        assert payload["schema"] == "CACHESTATS_v1"
        assert payload["preset"]["name"] == "tiny"
        assert payload["manifest"]["schema"] == "MANIFEST_v1"
        assert payload["manifest"]["seed"] == preset.seed
        assert len(payload["cells"]) == 3


class TestTables:
    def test_class_table_has_a_row_per_overlay_class(self, full_grid):
        table = cells_to_table(full_grid)
        rows = sum(len(cell["classes"]) for cell in full_grid)
        assert table.count("\n") == rows
        assert "credited" in table

    def test_utilization_series_orders_nodes(self, full_grid):
        series = utilization_series(full_grid)
        assert [label for label, __ in series[:2]] == ["chord util", "chord load"]
        assert len(series) == 2 * len(full_grid)
        for __, values in series:
            assert values  # every overlay contributed nodes

    def test_top_pointers_table_bounded(self, full_grid):
        table = top_pointers_table(full_grid, count=3)
        assert table.count("\n") <= 3 * len(full_grid)
        assert "owner" in table


class TestPresets:
    def test_smoke_and_quick_shapes(self):
        smoke = CachestatsPreset.smoke()
        quick = CachestatsPreset.quick(seed=7, workload="diurnal")
        assert smoke.name == "smoke"
        assert quick.seed == 7 and quick.workload == "diurnal"
        assert smoke.total_budget == int(
            smoke.n * smoke.effective_k * smoke.budget_fraction
        )
