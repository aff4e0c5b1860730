"""Tests for the parameter-sweep utility and its CLI command."""

import pytest

from repro.cli import main
from repro.experiments.sweep import rows_to_csv, rows_to_table, sweep
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="session")
def base_config(stable_config):
    """Sweep-scale configs via the shared ``stable_config`` factory."""

    def build(**overrides):
        defaults = dict(overlay="chord", n=32, bits=16, queries=600, seed=4)
        defaults.update(overrides)
        return stable_config(**defaults)

    return build


class TestSweep:
    def test_sweeps_requested_values(self, base_config):
        rows = sweep(base_config(), "k", [2, 8])
        assert [row.value for row in rows] == [2, 8]
        assert all(row.parameter == "k" for row in rows)
        # More pointers help the optimal scheme at least as much.
        assert rows[1].optimal_mean_hops <= rows[0].optimal_mean_hops

    def test_alpha_sweep_monotone(self, base_config):
        rows = sweep(base_config(), "alpha", [0.8, 1.6])
        assert rows[1].improvement_pct > rows[0].improvement_pct

    def test_unknown_parameter_rejected(self, base_config):
        with pytest.raises(ConfigurationError):
            sweep(base_config(), "warp_factor", [1])

    def test_empty_values_rejected(self, base_config):
        with pytest.raises(ConfigurationError):
            sweep(base_config(), "k", [])


class TestBadValues:
    def test_unparseable_number_names_parameter_and_value(self, base_config):
        with pytest.raises(ConfigurationError, match=r"invalid alpha value 'abc'"):
            sweep(base_config(), "alpha", ["abc"])


class TestRendering:
    @pytest.fixture(scope="class")
    def rows(self, base_config):
        return sweep(base_config(), "k", [2, 8])

    def test_csv_shape(self, rows):
        lines = rows_to_csv(rows).strip().splitlines()
        assert lines[0].startswith("parameter,value,improvement_pct")
        assert len(lines) == 3

    def test_table_contains_values(self, rows):
        table = rows_to_table(rows)
        assert "k" in table
        assert "2" in table and "8" in table

    def test_empty_table(self):
        assert rows_to_table([]) == "(empty sweep)"


class TestCli:
    def test_sweep_command_table(self, capsys):
        code = main(
            ["sweep", "chord", "k", "2", "6", "--n", "24", "--bits", "16", "--queries", "400"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_sweep_command_csv(self, capsys):
        code = main(
            [
                "sweep", "pastry", "alpha", "1.2",
                "--n", "24", "--bits", "16", "--queries", "400", "--csv",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("parameter,value")

    def test_sweep_command_json_carries_manifest(self, capsys, tmp_path):
        import json

        target = tmp_path / "sweep.json"
        code = main(
            [
                "sweep", "chord", "k", "2", "6",
                "--n", "24", "--bits", "16", "--queries", "400", "--json", str(target),
            ]
        )
        assert code == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "SWEEP_v1"
        assert document["manifest"]["schema"] == "MANIFEST_v1"
        assert document["base"]["__type__"] == "ExperimentConfig"
        assert len(document["rows"]) == 2

    def test_figure_chart_flag(self, capsys):
        # Exercise the --chart path on the cheapest figure variant by
        # monkeypatching the preset via the quick path and a tiny seed run
        # would still be slow; instead render a chart directly.
        from repro.analysis.ascii_chart import render_chart
        from repro.experiments.figures import FigurePoint, FigureResult, FigureSeries
        from repro.sim.metrics import ComparisonResult, HopStatistics

        ours, base = HopStatistics(), HopStatistics()

        class A:
            hops, timeouts, succeeded, latency = 1, 0, True, 1

        class B:
            hops, timeouts, succeeded, latency = 2, 0, True, 2

        ours.record(A())
        base.record(B())
        result = FigureResult(
            "figure3",
            "t",
            "n",
            (FigureSeries("s", (FigurePoint(1, ComparisonResult("c", ours, base)),)),),
        )
        assert "figure3" in render_chart(result)
