"""Tests for the report runner (``repro report`` / results/report.*)."""

import json

from repro.experiments.figures import FigurePreset
from repro.experiments.report import (
    REPORT_FIGURES,
    REPORT_SCHEMA,
    report_preset,
    run_report,
)
from repro.obs.manifest import strip_volatile

TINY = FigurePreset(
    name="tiny",
    bits=16,
    queries=400,
    pastry_sizes=(32,),
    pastry_k_base=48,
    chord_sizes=(24,),
    chord_k_base=32,
    churn_duration=150.0,
    churn_warmup=40.0,
    seed=1,
)


class TestReportPreset:
    def test_report_scale_uses_paper_node_counts(self):
        preset = report_preset()
        assert preset.name == "report"
        assert preset.bits == 32
        assert max(preset.pastry_sizes) == 2048
        assert REPORT_FIGURES == ("3", "4", "5", "6")


    def test_cli_default_is_the_report_figures(self):
        from repro.cli import build_parser

        assert tuple(build_parser().parse_args(["report"]).figures) == REPORT_FIGURES


class TestRunReport:
    def test_writes_json_and_markdown_with_manifest(self, tmp_path):
        document = run_report(
            figures=("3",), jobs=2, out_dir=tmp_path, preset=TINY
        )
        assert document["schema"] == REPORT_SCHEMA
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["schema"] == REPORT_SCHEMA
        assert on_disk["manifest"]["schema"] == "MANIFEST_v1"
        assert on_disk["manifest"]["figures"] == ["3"]
        assert "elapsed_by_figure_s" in on_disk["manifest"]["volatile"]
        markdown = (tmp_path / "report.md").read_text()
        assert "MANIFEST_v1" in markdown  # provenance footer
        assert "figure3" in markdown

    def test_stripped_document_deterministic_across_jobs(self, tmp_path):
        first = run_report(figures=("3",), jobs=1, out_dir=tmp_path / "a", preset=TINY)
        second = run_report(figures=("3",), jobs=2, out_dir=tmp_path / "b", preset=TINY)
        assert json.dumps(strip_volatile(first), sort_keys=True) == json.dumps(
            strip_volatile(second), sort_keys=True
        )

    def test_echo_reports_progress(self, tmp_path):
        lines = []
        run_report(figures=("3",), jobs=2, out_dir=tmp_path, preset=TINY, echo=lines.append)
        assert any("figure3" in line for line in lines)
