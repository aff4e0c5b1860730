"""Tests for the figure runners and report rendering.

A tiny preset keeps these fast; the paper-shape assertions (who wins,
trend directions) are exercised at quick scale by the benchmark harness.
"""

import pytest

from repro.experiments import figures
from repro.experiments.figures import (
    FIGURES,
    FigurePreset,
    figure3,
    figure4,
    figure5,
    figure6,
    run_figure,
)
from repro.experiments.report import render_detail, render_markdown, render_table
from repro.sim.metrics import ComparisonResult, HopStatistics
from repro.util.errors import ConfigurationError

TINY = FigurePreset(
    name="tiny",
    bits=16,
    queries=400,
    pastry_sizes=(32, 64),
    pastry_k_base=48,
    chord_sizes=(24, 48),
    chord_k_base=32,
    churn_duration=150.0,
    churn_warmup=40.0,
    seed=1,
)


@pytest.fixture(scope="module")
def fig3():
    return figure3(TINY)


@pytest.fixture(scope="module")
def fig5():
    return figure5(TINY)


class TestStructure:
    def test_registry_covers_all_figures(self):
        assert sorted(FIGURES) == ["3", "4", "5", "6", "7"]

    def test_run_figure_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            run_figure("8")

    def test_overlay_pin_applies_to_figure7_only(self):
        with pytest.raises(ConfigurationError):
            run_figure("3", TINY, overlay="kademlia")

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_workload_reaches_every_planned_cell(self, figure_id, monkeypatch):
        planned = []

        def fake_execute(cells, replicas, jobs):
            planned.extend(cells)
            empty = ComparisonResult("stub", HopStatistics(), HopStatistics())
            return [empty] * len(cells)

        monkeypatch.setattr(figures, "_execute_plan", fake_execute)
        run_figure(figure_id, TINY, workload="flash-crowd:2")
        assert planned
        assert {cell.config.workload for cell in planned} == {"flash-crowd:2"}

    def test_figure3_structure(self, fig3):
        assert fig3.figure_id == "figure3"
        assert [series.label for series in fig3.series] == ["alpha=1.2", "alpha=0.91"]
        for series in fig3.series:
            assert [point.x for point in series.points] == [32, 64]

    def test_figure4_structure(self):
        result = figure4(TINY)
        ks = [point.x for point in result.series[0].points]
        base = 48 .bit_length() - 1  # log2(48) = 5
        assert ks == [base, 2 * base, 3 * base]

    def test_figure5_structure(self, fig5):
        assert [series.label for series in fig5.series] == ["stable", "high churn"]

    def test_figure6_structure(self):
        result = figure6(TINY)
        assert result.figure_id == "figure6"
        assert len(result.series) == 2
        assert len(result.series[0].points) == 3


class TestShapes:
    def test_figure3_all_positive(self, fig3):
        for series in fig3.series:
            for value in series.improvements():
                assert value > 0.0

    def test_figure5_stable_beats_churn_everywhere(self, fig5):
        stable, churn = fig5.series
        for s_point, c_point in zip(stable.points, churn.points):
            assert s_point.improvement > 0.0
            # Churn shrinks the benefit (allow small noise at tiny scale).
            assert c_point.improvement < s_point.improvement + 10.0


class TestRendering:
    def test_table_contains_all_values(self, fig3):
        table = render_table(fig3)
        assert "figure3" in table
        assert "alpha=1.2" in table
        for series in fig3.series:
            for point in series.points:
                assert f"{point.improvement:.1f}" in table

    def test_detail_mentions_hops(self, fig3):
        detail = render_detail(fig3)
        assert "ours" in detail
        assert "oblivious" in detail

    def test_markdown_is_a_table(self, fig3):
        markdown = render_markdown(fig3)
        lines = markdown.splitlines()
        assert lines[0].startswith("### figure3")
        assert lines[2].startswith("| ")
        assert set(lines[3].replace("|", "").strip()) <= {"-"}
        assert len(lines) == 4 + len(fig3.series[0].points)


class TestReplication:
    def test_replicas_merge_statistics(self):
        from dataclasses import replace

        single = figure5(replace(TINY, chord_sizes=(24,), churn_duration=120.0, churn_warmup=30.0))
        doubled = figure5(
            replace(TINY, chord_sizes=(24,), churn_duration=120.0, churn_warmup=30.0, replicas=2)
        )
        one = single.series[0].points[0].comparison
        two = doubled.series[0].points[0].comparison
        assert two.optimized.lookups == 2 * one.optimized.lookups
        assert "(x2 seeds)" in two.label
