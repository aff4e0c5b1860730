"""METRICS_v1 JSON documents and the OpenMetrics text exposition.

Two export surfaces over the same round-clocked registry:

* :func:`build_metrics_document` — the canonical ``METRICS_v1`` JSON:
  a MANIFEST_v1 provenance block, the round-clock description, and one
  cell per policy (metric series, span profile, summary statistics).
  Everything except the manifest/span ``volatile`` sub-dicts is a pure
  function of (config, seed), so two runs byte-match after
  :func:`repro.obs.manifest.strip_volatile` at any worker count.
* :func:`to_openmetrics` — a Prometheus/OpenMetrics text exposition of
  the same series. The **round index is the sample timestamp**: scalar
  series emit one timestamped sample per round, histograms emit their
  final cumulative snapshot (``_bucket``/``_sum``/``_count``) stamped
  with the last round. The exposition ends with ``# EOF`` per the
  OpenMetrics framing rule.

:func:`parse_openmetrics` is the minimal strict parser the test suite
and CI use to certify that the exposition actually parses: TYPE/HELP
metadata before samples, label syntax, monotone cumulative buckets,
terminal ``# EOF``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.obs.manifest import build_manifest
from repro.util.errors import ConfigurationError

__all__ = [
    "METRICS_SCHEMA",
    "build_metrics_document",
    "to_openmetrics",
    "parse_openmetrics",
    "OpenMetricsSample",
]

METRICS_SCHEMA = "METRICS_v1"

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>\S+))?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def build_metrics_document(config, cells: dict[str, dict], round_clock: dict) -> dict:
    """Assemble the top-level METRICS_v1 document.

    ``cells`` maps policy name to the per-policy payload produced by the
    driver (metrics series, spans, stats); ``round_clock`` describes the
    clock (round count plus the stable chunk sizes or churn interval).
    """
    return {
        "schema": METRICS_SCHEMA,
        "overlay": config.overlay,
        "mode": round_clock.get("mode", "stable"),
        "manifest": build_manifest(config, extra={"rounds": round_clock.get("rounds")}),
        "round_clock": round_clock,
        "cells": {name: cells[name] for name in sorted(cells)},
    }


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------


def to_openmetrics(document: dict) -> str:
    """Render a METRICS_v1 document as an OpenMetrics text exposition."""
    lines: list[str] = []
    seen_meta: set[str] = set()
    entries = []
    for cell in document["cells"].values():
        entries.extend(cell["metrics"])
    # Group all samples of one family together (metadata once per name).
    entries.sort(key=lambda entry: (entry["name"], sorted(entry["labels"].items())))
    for entry in entries:
        name = entry["name"]
        if name not in seen_meta:
            seen_meta.add(name)
            lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {entry['type']}")
        if entry["type"] == "histogram":
            lines.extend(_histogram_lines(entry))
        else:
            label_text = _label_text(entry["labels"])
            for round_index, value in entry["series"]:
                lines.append(f"{name}{label_text} {_value_text(value)} {round_index}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _histogram_lines(entry: dict) -> list[str]:
    """Final cumulative snapshot of one histogram series, stamped with
    the last sampled round."""
    if not entry["series"]:
        return []
    round_index, cumulative, total, count = entry["series"][-1]
    lines = []
    edges = [*entry["edges"], float("inf")]
    for edge, cum in zip(edges, cumulative):
        labels = _label_text({**entry["labels"], "le": _le_text(edge)})
        lines.append(f"{entry['name']}_bucket{labels} {cum} {round_index}")
    base = _label_text(entry["labels"])
    lines.append(f"{entry['name']}_sum{base} {_value_text(total)} {round_index}")
    lines.append(f"{entry['name']}_count{base} {count} {round_index}")
    return lines


def _label_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _le_text(edge: float) -> str:
    if math.isinf(edge):
        return "+Inf"
    return f"{edge:g}"


def _value_text(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


# ----------------------------------------------------------------------
# Minimal strict parser (used by tests and the CI determinism step)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpenMetricsSample:
    """One parsed exposition sample."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    timestamp: float | None


def parse_openmetrics(text: str) -> list[OpenMetricsSample]:
    """Parse an exposition, enforcing the invariants we rely on.

    Raises :class:`ConfigurationError` on malformed lines, samples whose
    family has no ``# TYPE`` metadata, non-monotone histogram buckets,
    or a missing terminal ``# EOF``.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ConfigurationError("exposition must end with '# EOF'")
    types: dict[str, str] = {}
    samples: list[OpenMetricsSample] = []
    bucket_state: dict[tuple, float] = {}
    for line_number, line in enumerate(lines[:-1], start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) != 4 or not _NAME.fullmatch(parts[2]):
                raise ConfigurationError(f"line {line_number}: malformed TYPE line {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            raise ConfigurationError(f"line {line_number}: unknown comment {line!r}")
        match = _SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(f"line {line_number}: malformed sample {line!r}")
        name = match.group("name")
        family = _family_name(name)
        if family not in types:
            raise ConfigurationError(
                f"line {line_number}: sample {name!r} has no TYPE metadata"
            )
        raw_labels = match.group("labels") or ""
        labels = tuple((key, value) for key, value in _LABEL.findall(raw_labels))
        parsed = _parse_value(match.group("value"), line_number)
        timestamp = (
            float(match.group("timestamp")) if match.group("timestamp") is not None else None
        )
        if name.endswith("_bucket"):
            key = (name, tuple(pair for pair in labels if pair[0] != "le"))
            previous = bucket_state.get(key, 0.0)
            if parsed < previous:
                raise ConfigurationError(
                    f"line {line_number}: histogram bucket counts must be cumulative"
                )
            bucket_state[key] = parsed
        samples.append(OpenMetricsSample(name, labels, parsed, timestamp))
    return samples


def _family_name(sample_name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            trimmed = sample_name[: -len(suffix)]
            if trimmed:
                return trimmed
    return sample_name


def _parse_value(text: str, line_number: int) -> float:
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"line {line_number}: bad sample value {text!r}") from None
