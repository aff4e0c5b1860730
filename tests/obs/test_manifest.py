"""Unit tests for the run-manifest provenance block."""

import json
import subprocess
import sys
from pathlib import Path

from repro.faults.schedule import FaultSchedule
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_digest,
    config_payload,
    dump_document,
    git_revision,
    json_float,
    strip_volatile,
)
from repro.sim.runner import ExperimentConfig


def config(**overrides) -> ExperimentConfig:
    base = dict(overlay="chord", n=16, bits=16, queries=100, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigEcho:
    def test_payload_tags_the_dataclass_type(self):
        payload = config_payload(config())
        assert payload["__type__"] == "ExperimentConfig"
        assert payload["overlay"] == "chord"

    def test_nested_dataclasses_recurse(self):
        payload = config_payload(config(faults=FaultSchedule(loss_rate=0.1)))
        assert payload["faults"]["loss_rate"] == 0.1

    def test_digest_is_stable_and_discriminating(self):
        assert config_digest(config()) == config_digest(config())
        assert config_digest(config()) != config_digest(config(seed=4))
        assert config_digest(config()).startswith("sha256:")


class TestBuildManifest:
    def test_fields(self):
        manifest = build_manifest(config(), wall_time_s=1.5)
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["seed"] == 3
        assert manifest["config_digest"] == config_digest(config())
        assert set(manifest["env"]) == {"python", "implementation", "platform", "numpy"}
        assert manifest["volatile"]["wall_time_s"] == 1.5
        assert json.dumps(manifest, sort_keys=True, default=str)  # JSON-serializable

    def test_seed_override_beats_config_seed(self):
        assert build_manifest(config(), seed=99)["seed"] == 99

    def test_configless_manifest_is_allowed(self):
        manifest = build_manifest(extra={"mode": "smoke"})
        assert manifest["config"] is None
        assert manifest["mode"] == "smoke"

    def test_git_revision_of_this_checkout(self):
        # The test suite runs inside the repo, so provenance is available.
        revision = git_revision()
        assert revision is None or len(revision) == 40


class TestStripVolatile:
    def test_strips_deeply_without_mutating(self):
        document = {
            "manifest": build_manifest(config()),
            "rows": [{"manifest": build_manifest(config())}],
        }
        stripped = strip_volatile(document)
        assert "volatile" not in stripped["manifest"]
        assert "volatile" not in stripped["rows"][0]["manifest"]
        assert "volatile" in document["manifest"]  # original untouched

    def test_deterministic_part_is_run_invariant(self):
        a = strip_volatile(build_manifest(config()))
        b = strip_volatile(build_manifest(config()))
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )


class TestCanonicalDocument:
    def test_nan_degrades_to_null_and_nothing_else_moves(self):
        assert json_float(float("nan")) is None
        assert json_float(1.5) == 1.5
        assert json_float(3) == 3
        assert json_float("x") == "x"

    def test_dump_is_sorted_indented_and_newline_terminated(self):
        text = dump_document({"b": 1, "a": [2]})
        assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        assert dump_document({"p": Path("x")}, default=str) == '{\n  "p": "x"\n}\n'


class TestDiffStripped:
    SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "diff_stripped.py"

    def run(self, tmp_path, first: dict, second: dict):
        paths = []
        for name, document in (("a.json", first), ("b.json", second)):
            path = tmp_path / name
            path.write_text(json.dumps(document))
            paths.append(str(path))
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *paths],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_volatile_blocks_are_ignored(self, tmp_path):
        first = {"schema": "X_v1", "manifest": build_manifest(config())}
        second = {"schema": "X_v1", "manifest": build_manifest(config())}
        second["manifest"]["volatile"]["wall_time_s"] = 99.0
        assert self.run(tmp_path, first, second).returncode == 0

    def test_host_keys_are_ignored(self, tmp_path):
        first = {"schema": "X_v1", "manifest": build_manifest(config())}
        second = {"schema": "X_v1", "manifest": build_manifest(config())}
        second["manifest"]["git_rev"] = "0" * 40
        second["manifest"]["env"] = {"python": "0.0"}
        assert self.run(tmp_path, first, second).returncode == 0

    def test_mismatch_exits_1_and_names_the_schema(self, tmp_path):
        completed = self.run(tmp_path, {"schema": "X_v1", "rows": [1]}, {"schema": "X_v1", "rows": [2]})
        assert completed.returncode == 1
        assert "stripped X_v1 differs" in completed.stderr
