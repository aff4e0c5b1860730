"""Observability plane: structured lookup tracing and run manifests.

``repro.obs`` turns the aggregate curves the runners emit into
diagnosable behaviour: per-hop trace events with pointer-class
attribution (:mod:`repro.obs.recorder`), provenance manifests on every
result document (:mod:`repro.obs.manifest`), and a traced replay of any
stable-mode cell (:mod:`repro.obs.driver`). Tracing is strictly
observe-only and zero-cost when disabled — the routing layers take a
``trace`` recorder that defaults to off.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_digest,
    config_payload,
    environment_info,
    git_revision,
    strip_volatile,
)
from repro.obs.recorder import (
    POINTER_CLASSES,
    VERDICTS,
    CounterSet,
    HopEvent,
    LookupTrace,
    LookupTracer,
    NullRecorder,
    TeeRecorder,
    TraceRecorder,
)

# The driver pulls in the experiment runners, which pull in the routing
# layers, which import ``repro.obs.recorder`` — importing it eagerly here
# would close that loop. The attribution plane imports the lookup loop
# (``repro.routing``), so it sits in the same cycle. PEP 562 lazy
# exports break both while keeping ``from repro.obs import trace_cell``
# (and ``AttributionRecorder``) working.
_DRIVER_EXPORTS = ("TRACE_SCHEMA", "trace_cell")
_ATTRIBUTION_EXPORTS = (
    "AttributionRecorder",
    "PointerStats",
    "attribute_batch",
    "oblivious_route_length",
)


def __getattr__(name):
    if name in _DRIVER_EXPORTS:
        from repro.obs import driver

        return getattr(driver, name)
    if name in _ATTRIBUTION_EXPORTS:
        from repro.obs import attribution

        return getattr(attribution, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "TRACE_SCHEMA",
    "MANIFEST_SCHEMA",
    "POINTER_CLASSES",
    "VERDICTS",
    "HopEvent",
    "LookupTrace",
    "TraceRecorder",
    "NullRecorder",
    "CounterSet",
    "LookupTracer",
    "AttributionRecorder",
    "PointerStats",
    "TeeRecorder",
    "attribute_batch",
    "build_manifest",
    "config_digest",
    "config_payload",
    "environment_info",
    "git_revision",
    "oblivious_route_length",
    "strip_volatile",
    "trace_cell",
]
