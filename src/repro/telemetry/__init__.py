"""Round-clocked telemetry: metrics registry, span profiler, exports.

The telemetry plane answers "what did the system *do over time*?" with
deterministic, diffable artifacts: every metric is sampled on a
simulation round clock (query chunks in stable mode, virtual-time
intervals under churn), so two runs of the same (config, seed) emit
byte-identical ``METRICS_v1`` documents — after
:func:`repro.obs.manifest.strip_volatile` — at any worker count.

Import discipline: the simulation / overlay / fault layers never import
this package (they duck-type the telemetry handle they are passed, which
:meth:`repro.overlay.Overlay.attach_telemetry` hands back, or ``None``
when it is disabled); only drivers and the CLI construct
:class:`RoundTelemetry`. That keeps ``repro.sim`` ↔ ``repro.telemetry``
acyclic.
"""

from repro.telemetry.export import (
    METRICS_SCHEMA,
    OpenMetricsSample,
    build_metrics_document,
    parse_openmetrics,
    to_openmetrics,
)
from repro.telemetry.registry import (
    LATENCY_BUCKET_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.telemetry.runtime import DEFAULT_ROUNDS, RoundTelemetry
from repro.telemetry.spans import SpanProfiler

__all__ = [
    "METRICS_SCHEMA",
    "DEFAULT_ROUNDS",
    "LATENCY_BUCKET_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "OpenMetricsSample",
    "RoundTelemetry",
    "SpanProfiler",
    "build_metrics_document",
    "parse_openmetrics",
    "to_openmetrics",
]
