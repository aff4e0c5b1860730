"""The robustness grid: ordering, metrics, JSON canonicality, CLI."""

import json

from repro.experiments.driver import document
from repro.experiments.robustness import (
    EXPERIMENT,
    RobustnessPreset,
    RobustnessRow,
    gate_messages,
    robustness,
    rows_to_table,
)
from repro.obs.manifest import dump_document, strip_volatile


def tiny_preset(seed: int = 3) -> RobustnessPreset:
    return RobustnessPreset(
        name="tiny",
        n=16,
        bits=16,
        queries=200,
        seed=seed,
        loss_rates=(0.0, 0.05),
        burst_sizes=(2,),
        overlays=("chord",),
    )


class TestGrid:
    def test_rows_follow_cell_order(self):
        rows = robustness(tiny_preset(), jobs=1)
        assert [(r.axis, r.value) for r in rows] == [
            ("loss", 0.0),
            ("loss", 0.05),
            ("burst", 2.0),
        ]
        assert all(r.overlay == "chord" for r in rows)

    def test_faulted_cells_report_percentiles(self):
        rows = robustness(tiny_preset(), jobs=1)
        clean, lossy, burst = rows
        # Fault-free fast path keeps no samples; faulted cells do.
        assert clean.optimal_p95 is None
        assert lossy.optimal_p95 is not None
        assert burst.optimal_p99 >= burst.optimal_p95 >= burst.optimal_p50

    def test_loss_costs_timeouts_not_failures(self):
        rows = robustness(tiny_preset(), jobs=1)
        lossy = rows[1]
        assert lossy.optimal_timeout_rate > 0.0
        assert lossy.optimal_failure_rate <= 0.05

    def test_json_is_identical_across_job_counts(self):
        # The manifest's volatile block (timestamps, argv) legitimately
        # differs between runs; everything else must be byte-identical.
        preset = tiny_preset(seed=5)
        serial = strip_volatile(document(EXPERIMENT, robustness(preset, jobs=1), preset))
        parallel = strip_volatile(document(EXPERIMENT, robustness(preset, jobs=2), preset))
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_json_round_trips(self):
        preset = tiny_preset()
        payload = json.loads(
            dump_document(document(EXPERIMENT, robustness(preset, jobs=1), preset))
        )
        assert payload["schema"] == "ROBUSTNESS_v1"
        assert payload["preset"]["name"] == "tiny"
        assert payload["manifest"]["schema"] == "MANIFEST_v1"
        assert payload["manifest"]["seed"] == preset.seed
        assert len(payload["rows"]) == 3

    def test_table_renders_every_row(self):
        rows = robustness(tiny_preset(), jobs=1)
        table = rows_to_table(rows)
        assert "improvement" in table
        assert table.count("\n") == len(rows) + 1  # header + rule + rows

    def test_empty_table(self):
        assert rows_to_table([]) == "(empty grid)"


def synthetic_row(overlay: str, axis: str, value: float, improvement: float) -> RobustnessRow:
    return RobustnessRow(
        overlay=overlay, axis=axis, value=value, improvement_pct=improvement,
        optimal_mean_hops=2.0, baseline_mean_hops=3.0,
        optimal_failure_rate=0.0, baseline_failure_rate=0.0,
        optimal_timeout_rate=0.0, baseline_timeout_rate=0.0,
        optimal_p50=None, optimal_p95=None, optimal_p99=None, baseline_p95=None,
    )


class TestGate:
    def test_positive_reductions_pass(self):
        rows = [synthetic_row("chord", "loss", rate, 12.0) for rate in (0.0, 0.05, 0.1)]
        assert gate_messages(rows) == []

    def test_loss_at_or_above_five_percent_must_win(self):
        rows = [
            synthetic_row("chord", "loss", 0.05, 0.0),
            synthetic_row("pastry", "loss", 0.1, -3.25),
            synthetic_row("kademlia", "loss", 0.1, 4.0),
        ]
        assert gate_messages(rows) == [
            "chord loses at loss=0.05 (0.0% reduction)",
            "pastry loses at loss=0.1 (-3.2% reduction)",
        ]

    def test_light_loss_and_bursts_are_not_gated(self):
        rows = [
            synthetic_row("chord", "loss", 0.01, -5.0),
            synthetic_row("chord", "burst", 8.0, -5.0),
        ]
        assert gate_messages(rows) == []


class TestPresets:
    def test_smoke_uses_the_issue_loss_axis(self):
        preset = RobustnessPreset.smoke()
        assert preset.loss_rates == (0.0, 0.01, 0.05, 0.1)
        assert preset.overlays == ("chord", "pastry", "kademlia")

    def test_quick_is_larger_than_smoke(self):
        assert RobustnessPreset.quick().n > RobustnessPreset.smoke().n
