"""End-to-end check of ``python -m repro bench`` at test scale.

The three overhead gates are monkeypatched to instant stand-in sections
that pass or fail on demand: the CLI surface, document assembly and exit
codes are what's under test, not timings (CI runs the real gates).
"""

import json

import pytest

import repro.cli as cli
import repro.perf.runner as runner_module
from repro.perf.overhead import OVERHEAD_THRESHOLD, SECTIONS
from repro.perf.runner import BENCH_SCHEMA, run_bench, write_bench


def stand_in_section(ratio: float) -> dict:
    """An overhead section whose one overlay measured ``ratio``."""
    entry = {"trials": 1, "chunk": 5, "rounds": 1, "ratios": [ratio],
             "min_ratio": ratio, "median_ratio": ratio, "max_ratio": ratio}
    return {"n": 8, "lookups": 5, "overlays": {"chord": entry}, "worst_ratio": ratio,
            "threshold": OVERHEAD_THRESHOLD, "passed": ratio < OVERHEAD_THRESHOLD}


@pytest.fixture
def gates(monkeypatch):
    """Stand-in gates; add a section name to ``broken`` to make it fail."""
    broken = set()

    def fake_overhead(section, smoke=False):
        return stand_in_section(1.5 if section in broken else 1.001)

    monkeypatch.setattr(runner_module, "overhead_benchmark", fake_overhead)
    return broken


class TestRunBench:
    def test_document_shape(self, gates):
        document = run_bench(smoke=True)
        assert document["schema"] == BENCH_SCHEMA
        assert document["mode"] == "smoke"
        assert document["manifest"]["mode"] == "smoke"
        assert set(document) == {"schema", "mode", "manifest", *SECTIONS}
        assert all(document[section]["passed"] for section in SECTIONS)

    def test_write_is_stable_json(self, gates, tmp_path):
        document = run_bench(smoke=True)
        path = write_bench(document, tmp_path / "bench.json")
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA


class TestBenchCommand:
    def test_smoke_run_writes_output(self, gates, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli.main(["bench", "--smoke", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["mode"] == "smoke"
        captured = capsys.readouterr()
        assert captured.out.count("passed=True") == len(SECTIONS)
        assert "FAIL" not in captured.err

    @pytest.mark.parametrize("section", SECTIONS)
    def test_broken_gate_fails_with_one_line(self, gates, section, capsys):
        gates.add(section)
        assert cli.main(["bench", "--smoke"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"FAIL: {section}: ")
        assert "1.5000" in lines[0]

    def test_every_broken_gate_gets_its_own_line(self, gates, capsys):
        gates.update(SECTIONS)
        assert cli.main(["bench", "--smoke"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1].strip() for line in lines] == list(SECTIONS)

    @pytest.mark.parametrize("flag", [["--check", "BENCH_v1.json"], ["--threshold", "2"],
                                      ["--jobs", "2"]])
    def test_retired_flags_are_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", "--smoke", *flag])
        assert excinfo.value.code == 2
