"""The one experiment driver: envelope, write, footer and gate contract."""

import argparse
import importlib
import json
from dataclasses import dataclass, replace

import pytest

from repro.cli import GRID_COMMANDS, main
from repro.experiments import driver
from repro.experiments.driver import Experiment, document, presets, run
from repro.obs.manifest import strip_volatile
from repro.util.timer import Stopwatch


@dataclass(frozen=True)
class TinyPreset:
    name: str
    seed: int
    workload: str = "static-zipf"

    @classmethod
    def quick(cls, seed=0, workload="static-zipf"):
        return cls("quick", seed, workload)

    @classmethod
    def smoke(cls, seed=0, workload="static-zipf"):
        return cls("smoke", seed, workload)

    @classmethod
    def paper(cls, seed=0, workload="static-zipf"):
        return cls("paper", seed, workload)


def tiny_experiment(**overrides) -> Experiment:
    fields = dict(
        schema="TINY_v1",
        preset=presets(TinyPreset, "workload"),
        run=lambda preset, args: [preset.seed, 2 * preset.seed],
        payload=lambda rows, preset: {"rows": rows, "preset": preset.name},
        render=lambda rows, args: f"rows: {rows}",
        noun="tiny document",
    )
    fields.update(overrides)
    return Experiment(**fields)


def namespace(**overrides) -> argparse.Namespace:
    values = dict(seed=3, smoke=False, json=None, workload="static-zipf")
    values.update(overrides)
    return argparse.Namespace(**values)


class TestPresets:
    @pytest.mark.parametrize(
        "flags, name", [({}, "quick"), ({"smoke": True}, "smoke"), ({"paper": True}, "paper")]
    )
    def test_choice_and_flags(self, flags, name):
        preset = presets(TinyPreset, "workload")(namespace(workload="diurnal", **flags))
        assert preset == TinyPreset(name, 3, "diurnal")


class TestRun:
    def test_prints_render_written_line_and_footer(self, capsys, tmp_path):
        target = tmp_path / "tiny.json"
        assert run(tiny_experiment(), namespace(json=str(target))) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "rows: [3, 6]"
        assert out[2] == f"tiny document written to {target}"
        assert out[4].startswith("[quick preset, ") and out[4].endswith("s]")

    def test_document_envelope_and_stamped_wall_time(self, capsys, tmp_path):
        target = tmp_path / "tiny.json"
        run(tiny_experiment(), namespace(json=str(target), smoke=True))
        written = json.loads(target.read_text())
        assert written["schema"] == "TINY_v1"
        assert written["rows"] == [3, 6]
        assert written["preset"] == "smoke"
        assert written["manifest"]["config"]["__type__"] == "TinyPreset"
        assert written["manifest"]["seed"] == 3
        assert isinstance(written["manifest"]["volatile"]["wall_time_s"], float)
        assert target.read_text().endswith("}\n")
        built = document(tiny_experiment(), [3, 6], TinyPreset.smoke(3))
        assert strip_volatile(written) == json.loads(json.dumps(strip_volatile(built)))

    def test_no_json_no_written_line(self, capsys):
        assert run(tiny_experiment(), namespace()) == 0
        assert "written to" not in capsys.readouterr().out

    def test_footer_can_be_off(self, capsys):
        run(tiny_experiment(footer=False), namespace())
        assert capsys.readouterr().out == "rows: [3, 6]\n"

    def test_each_gate_message_is_one_fail_line_and_exit_1(self, capsys):
        experiment = tiny_experiment(gates=lambda rows: [f"row {row} broke" for row in rows])
        assert run(experiment, namespace()) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAIL: row 3 broke\nFAIL: row 6 broke\n"
        assert "FAIL" not in captured.out

    def test_write_stamps_and_keeps_other_documents(self, tmp_path):
        target = tmp_path / "doc.json"
        doc = {"schema": "X_v1", "manifest": {"volatile": {"wall_time_s": None}}, "v": {1, 2}}
        driver.write(target, doc, Stopwatch())
        written = json.loads(target.read_text())
        assert written["manifest"]["volatile"]["wall_time_s"] >= 0.0
        assert written["v"] == "{1, 2}"  # JSON-foreign values are written as str


#: One invocation per grid command, cheap because ``run`` is replaced.
GRID_ARGV = {
    "figure": ["figure", "6"],
    "sweep": ["sweep", "chord", "alpha", "1.0"],
    "faults": ["faults", "--smoke"],
    "workload": ["workload", "--smoke"],
    "allocate": ["allocate", "--smoke"],
    "cachestats": ["cachestats", "--smoke"],
}


class TestGridCommands:
    def test_every_grid_command_has_an_invocation(self):
        assert set(GRID_ARGV) == set(GRID_COMMANDS)

    @pytest.mark.parametrize("command", sorted(GRID_ARGV))
    def test_planted_gate_exits_1_with_a_fail_line(self, command, monkeypatch, capsys):
        module = importlib.import_module(GRID_COMMANDS[command])
        planted = replace(
            module.EXPERIMENT,
            run=lambda preset, args: None,
            render=lambda result, args: "planted render",
            gates=lambda result: [f"planted {command} gate"],
        )
        monkeypatch.setattr(module, "EXPERIMENT", planted)
        assert main(GRID_ARGV[command]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("planted render\n")
        assert captured.err == f"FAIL: planted {command} gate\n"
