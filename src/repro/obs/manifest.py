"""Run manifests: the provenance block attached to every experiment JSON.

A result file that cannot answer "what exact configuration, code revision
and environment produced you?" is not reproducible — it is just numbers.
Every JSON document the experiment drivers and the perf runner emit gains
a ``manifest`` block built here.

The block is split in two on purpose:

* the **deterministic part** — config echo, canonical config digest,
  master seed, git revision, interpreter/platform/numpy versions — is a
  pure function of (config, checkout, environment), so two runs of the
  same cell on the same machine produce byte-identical manifests up to
  this part; the jobs-determinism tests compare documents after
  stripping the rest;
* the **volatile part** (``manifest["volatile"]``) — wall time, creation
  timestamp, hostname, argv — varies run to run by nature and is
  quarantined in one sub-dict so consumers can drop it with
  :func:`strip_volatile` before any byte comparison.

A document committed to the repository (the golden documents, the
paper report) is compared across checkouts and hosts as well, so
:func:`strip_host` also drops the top-level manifest's :data:`HOST_KEYS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any

__all__ = [
    "HOST_KEYS",
    "MANIFEST_SCHEMA",
    "config_digest",
    "config_payload",
    "git_revision",
    "environment_info",
    "build_manifest",
    "dump_document",
    "json_float",
    "strip_host",
    "strip_volatile",
]

MANIFEST_SCHEMA = "MANIFEST_v1"

#: Manifest keys that vary by checkout and interpreter, not by results.
HOST_KEYS = ("git_rev", "env")


def config_payload(config: Any) -> Any:
    """A JSON-ready echo of ``config`` (dataclasses become dicts, nested
    dataclasses — e.g. a ``FaultSchedule`` inside an ``ExperimentConfig``
    — recurse; plain dicts/sequences/scalars pass through)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
        payload["__type__"] = type(config).__name__
        return payload
    if isinstance(config, dict):
        return {str(key): config_payload(value) for key, value in config.items()}
    if isinstance(config, (list, tuple)):
        return [config_payload(value) for value in config]
    return config


def config_digest(config: Any) -> str:
    """SHA-256 over the canonical JSON form of ``config`` — a stable
    fingerprint two runs can compare without diffing whole configs."""
    payload = config_payload(config)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def git_revision(cwd: str | None = None) -> str | None:
    """The checkout's HEAD revision, or ``None`` outside a git repo (or
    when git itself is unavailable) — manifests must never make a run
    fail just because provenance is partial."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else None


def environment_info() -> dict:
    """Interpreter / platform / numpy versions (the dials that move
    floating-point results between machines)."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is baked into the image
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": numpy_version,
    }


def build_manifest(
    config: Any = None,
    *,
    seed: int | None = None,
    wall_time_s: float | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble one manifest block.

    ``config`` is echoed and digested when given; ``seed`` defaults to
    ``config.seed`` when the config carries one. ``extra`` merges
    caller-specific deterministic fields (e.g. a preset name) into the
    top level. Wall time and other run-local facts land under
    ``"volatile"``.
    """
    if seed is None and config is not None:
        seed = getattr(config, "seed", None)
    manifest: dict = {
        "schema": MANIFEST_SCHEMA,
        "config": config_payload(config) if config is not None else None,
        "config_digest": config_digest(config) if config is not None else None,
        "seed": seed,
        "git_rev": git_revision(),
        "env": environment_info(),
    }
    if extra:
        manifest.update(extra)
    manifest["volatile"] = {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_time_s": wall_time_s,
        "hostname": socket.gethostname(),
        "argv": list(sys.argv),
    }
    return manifest


def strip_volatile(document: Any) -> Any:
    """A deep copy of ``document`` with every ``manifest``-style
    ``"volatile"`` sub-block removed — the form used for byte-identity
    comparisons across runs and worker counts."""
    if isinstance(document, dict):
        return {
            key: strip_volatile(value)
            for key, value in document.items()
            if key != "volatile"
        }
    if isinstance(document, list):
        return [strip_volatile(value) for value in document]
    return document


def strip_host(document: dict) -> dict:
    """:func:`strip_volatile` of ``document`` without the top-level
    manifest's :data:`HOST_KEYS` — the form a committed document is
    pinned in, equal on every commit and host that computes the same
    results."""
    stripped = strip_volatile(document)
    manifest = stripped.get("manifest", {})
    for key in HOST_KEYS:
        manifest.pop(key, None)
    return stripped


def json_float(value: Any) -> Any:
    """NaN is not valid strict JSON; degrade it to ``null`` (a cell
    where every lookup failed has no mean). Other values pass through."""
    return None if isinstance(value, float) and math.isnan(value) else value


def dump_document(document: Any, default=None) -> str:
    """The canonical text of a result document: sorted keys, two-space
    indent, one trailing newline — the form every writer emits and the
    byte comparisons diff. ``default`` serializes otherwise unsupported
    values (SWEEP_v1 passes ``str``)."""
    return json.dumps(document, sort_keys=True, indent=2, default=default) + "\n"
