"""The uniform-vs-allocated grid: plans, gates, JSON canonicality."""

import json

import pytest

from repro.experiments.allocation import (
    EXPERIMENT,
    AllocationPlan,
    AllocationPreset,
    allocation,
    allocation_plans,
    gate_messages,
    load_gate_messages,
    measured_gate_messages,
    plans_to_table,
    rows_to_table,
)
from repro.experiments.driver import document
from repro.obs.manifest import dump_document, strip_volatile
from repro.util.errors import ConfigurationError


def tiny_preset(seed: int = 3, overlays=("chord",), scenarios=("stable", "churn")):
    return AllocationPreset(
        name="tiny",
        n=24,
        bits=16,
        queries=300,
        seed=seed,
        num_rankings=4,
        churn_duration=120.0,
        overlays=overlays,
        scenarios=scenarios,
    )


class TestPlans:
    def test_allocated_beats_uniform_predicted_cost(self):
        plans = allocation_plans(tiny_preset())
        assert len(plans) == 1
        plan = plans[0]
        assert plan.allocated_cost < plan.uniform_cost
        assert plan.spent == plan.total_budget
        # The installed tables reproduce the predicted cost under the
        # shared network_cost evaluation (honesty check).
        assert abs(plan.installed_cost_delta) < 1e-6
        assert plan.min_quota < plan.max_quota  # genuinely non-uniform

    def test_plan_gates_pass_on_all_overlays(self):
        plans = allocation_plans(
            tiny_preset(overlays=("chord", "pastry", "kademlia"))
        )
        assert gate_messages(plans) == []

    def test_gate_flags_non_improvement(self):
        plan = AllocationPlan(
            overlay="chord",
            total_budget=10,
            spent=10,
            uniform_cost=5.0,
            allocated_cost=5.0,
            reduction_pct=0.0,
            min_quota=1,
            max_quota=1,
            nodes=10,
            installed_cost_delta=0.5,
        )
        messages = gate_messages([plan])
        assert len(messages) == 2  # no strict win + installed-cost drift


class TestGrid:
    def test_grid_covers_every_cell_and_gates_pass(self):
        preset = tiny_preset()
        plans, rows = allocation(preset, jobs=1)
        assert [(r.scenario, r.mode) for r in rows] == [
            ("stable", "uniform"),
            ("stable", "allocated"),
            ("churn", "uniform"),
            ("churn", "allocated"),
        ]
        assert all("budget=" in r.label for r in rows)
        assert measured_gate_messages(rows) == []

    def test_measured_gate_flags_overlay_with_no_win(self):
        __, rows = allocation(tiny_preset(), jobs=1)
        losing = [
            r
            if r.mode == "uniform"
            else r.__class__(**{**r.__dict__, "optimal_mean_hops": 99.0})
            for r in rows
        ]
        messages = measured_gate_messages(losing)
        assert len(messages) == 1
        assert "chord" in messages[0]

    def test_json_is_identical_across_job_counts(self):
        preset = tiny_preset(seed=5)
        serial = allocation(preset, jobs=1)
        parallel = allocation(preset, jobs=2)
        strip = lambda grid: strip_volatile(document(EXPERIMENT, grid, preset))
        assert json.dumps(strip(serial), sort_keys=True) == json.dumps(
            strip(parallel), sort_keys=True
        )

    def test_json_round_trips(self):
        preset = tiny_preset()
        payload = json.loads(
            dump_document(document(EXPERIMENT, allocation(preset, jobs=1), preset))
        )
        assert payload["schema"] == "ALLOCATION_v1"
        assert payload["preset"]["name"] == "tiny"
        assert payload["manifest"]["schema"] == "MANIFEST_v1"
        assert payload["manifest"]["seed"] == preset.seed
        assert len(payload["rows"]) == 4
        assert len(payload["plans"]) == 1


class TestTables:
    def test_tables_render_every_line(self):
        plans, rows = allocation(tiny_preset(), jobs=1)
        plan_table = plans_to_table(plans)
        assert "reduction" in plan_table
        assert plan_table.count("\n") == len(plans) + 1
        row_table = rows_to_table(rows)
        assert "oblivious" in row_table
        assert row_table.count("\n") == len(rows) + 1

    def test_empty_tables(self):
        assert plans_to_table([]) == "(no plans)"
        assert rows_to_table([]) == "(empty grid)"


class TestMeasuredLoads:
    def measured_preset(self, **overrides):
        base = dict(workload="diurnal", loads="measured")
        base.update(overrides)
        return tiny_preset().__class__(
            name="tiny",
            n=24,
            bits=16,
            queries=300,
            seed=3,
            num_rankings=4,
            churn_duration=120.0,
            overlays=("chord",),
            scenarios=("stable",),
            **base,
        )

    def test_measured_allocation_beats_load_blind_on_skewed_sources(self):
        plans = allocation_plans(self.measured_preset())
        plan = plans[0]
        assert plan.loads == "measured"
        assert plan.workload == "diurnal"
        assert plan.measured_cost is not None
        # Under the measured (skewed) loads, reweighting the greedy
        # allocation strictly beats spending the load-blind quotas.
        assert plan.measured_cost < plan.uniform_loads_cost
        assert plan.load_win_pct > 0.0
        assert plan.load_min < 1.0 < plan.load_max  # genuinely skewed
        assert load_gate_messages(plans) == []

    def test_uniform_mode_keeps_measured_fields_empty(self):
        plans = allocation_plans(tiny_preset())
        assert plans[0].loads == "uniform"
        assert plans[0].measured_cost is None
        assert load_gate_messages(plans) == []  # nothing to gate

    def test_load_gate_flags_non_improvement(self):
        plans = allocation_plans(self.measured_preset())
        import dataclasses

        losing = [
            dataclasses.replace(plan, measured_cost=plan.uniform_loads_cost)
            for plan in plans
        ]
        messages = load_gate_messages(losing)
        assert len(messages) == 1
        assert "chord" in messages[0]

    def test_table_grows_load_columns_only_when_measured(self):
        measured = plans_to_table(allocation_plans(self.measured_preset()))
        assert "load win" in measured
        uniform = plans_to_table(allocation_plans(tiny_preset()))
        assert "load win" not in uniform

    def test_rejects_bad_loads_and_workload(self):
        with pytest.raises(ConfigurationError):
            self.measured_preset(loads="observed")
        with pytest.raises(ConfigurationError):
            self.measured_preset(workload="solar-flare")


class TestPresets:
    def test_total_budget_is_half_the_paper_spend(self):
        preset = AllocationPreset.smoke()
        assert preset.total_budget == preset.n * preset.effective_k // 2

    def test_quick_and_smoke_validate(self):
        assert AllocationPreset.quick().name == "quick"
        assert AllocationPreset.smoke().scenarios == ("stable", "churn", "fault")

    def test_rejects_bad_fraction_and_scenario(self):
        with pytest.raises(ConfigurationError):
            tiny_preset().__class__(
                name="bad",
                n=8,
                bits=16,
                queries=10,
                seed=0,
                num_rankings=1,
                budget_fraction=0.0,
            )
        with pytest.raises(ConfigurationError):
            AllocationPreset(
                name="bad",
                n=8,
                bits=16,
                queries=10,
                seed=0,
                num_rankings=1,
                scenarios=("weird",),
            )
