"""``scripts/stage_diff.py``: per-layer self seconds of two span files."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "stage_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("stage_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_spans(path: Path, select_s: tuple[float, float]) -> Path:
    """Two repetitions of a root span with two nested layers; one probe
    interrupts repetition 0's solve. ``select_s`` sets each repetition's
    solve duration."""
    first, second = select_s
    spans = [
        ["sim.runner", 0.0, 1.0 + first, -1, 0],
        ["overlay.build", 0.1, 0.3, 0, 0],
        ["core.select_optimal", 0.4, 0.4 + first, 0, 0],
        ["sim.runner", 5.0, 6.0 + second, -1, 1],
        ["overlay.build", 5.1, 5.2, 3, 1],
        ["core.select_optimal", 5.3, 5.3 + second, 3, 1],
    ]
    probes = [["host.probe", 0.45, 0.55, 2, 0]]
    lines = [["name", "start", "end", "parent", "repetition"], *spans, *probes]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def run(*paths):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_self_times_follow_the_tracer_rule(tmp_path):
    script = load_script()
    selves = script.per_repetition_self_times(
        write_spans(tmp_path / "a.jsonl", (0.4, 0.6)), script._tracing()
    )
    assert selves["sim.runner"] == pytest.approx([0.8, 0.9])
    assert selves["overlay.build"] == pytest.approx([0.2, 0.1])
    # The probe's 0.1 s is taken out of the solve that it interrupted.
    assert selves["core.select_optimal"] == pytest.approx([0.3, 0.6])
    assert selves["host.probe"] == pytest.approx([0.1, 0.0])
    assert selves["engine.route"] == [0.0, 0.0]


def test_report_marks_only_the_stage_that_moved(tmp_path):
    a = write_spans(tmp_path / "a.jsonl", (0.4, 0.6))
    b = write_spans(tmp_path / "b.jsonl", (1.4, 1.6))
    completed = run(a, b)
    assert completed.returncode == 0
    lines = completed.stdout.splitlines()
    assert "raw, not host-normalized" in lines[0]
    rows = {line.split()[0]: line for line in lines[2:-1]}
    assert "host.probe" in rows and "workload.popularity" in rows
    assert rows["core.select_optimal"].endswith("+1.0000 *")
    marked = [layer for layer, line in rows.items() if line.endswith("*")]
    assert marked == ["core.select_optimal"]


def test_unreadable_file_exits_2_with_one_line(tmp_path):
    a = write_spans(tmp_path / "a.jsonl", (0.4, 0.6))
    completed = run(a, tmp_path / "missing.jsonl")
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert len(completed.stderr.splitlines()) == 1
    (tmp_path / "bad.jsonl").write_text("not json\n")
    assert run(a, tmp_path / "bad.jsonl").returncode == 2
