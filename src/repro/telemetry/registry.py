"""Labelled metrics registry driven by a deterministic round clock.

The paper's dynamic claims (Sections V and VII) are about *evolution*:
incremental maintenance keeps auxiliary pointers near-optimal while
popularity drifts and peers churn. Evidence for that is a time series,
not a scalar — so this registry samples every metric on a **round
clock**: simulation rounds (query chunks in stable mode, fixed virtual-
time intervals in churn mode), never wall time. Two runs of the same
(config, seed) therefore emit bit-identical series at any ``--jobs``
fan-out, which is what lets CI diff telemetry documents for determinism.

Three metric kinds, deliberately Prometheus-shaped:

* :class:`Counter` — monotonically increasing totals (lookups, timeouts,
  injected faults, recompute spans);
* :class:`Gauge` — point-in-time values (alive nodes, per-round mean
  cost, per-round timeout rate);
* :class:`Histogram` — fixed log-spaced buckets over the hop/latency
  proxy (:data:`LATENCY_BUCKET_EDGES`), the one binning of latency.

A family (:class:`MetricFamily`) owns the name/help/type; ``labels()``
returns one child per label set. :meth:`MetricsRegistry.sample_round`
advances the round clock and appends every child's current value to its
series — children created mid-run simply start at their first sampled
round (each series entry carries its round index explicitly).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator

from repro.util.errors import ConfigurationError

__all__ = [
    "LATENCY_BUCKET_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]

_KINDS = ("counter", "gauge", "histogram")

#: Canonical log-spaced (~sqrt(2) steps) upper bucket edges for the
#: hop/latency proxy; an implicit +inf bucket closes the range.
LATENCY_BUCKET_EDGES = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 11.0, 16.0, 23.0, 32.0, 45.0, 64.0, 91.0, 128.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value", "series")
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0
        self.series: list[list] = []

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up, got increment {amount!r}")
        self.value += amount

    def sample(self, round_index: int) -> None:
        self.series.append([round_index, _json_value(self.value)])


class Gauge:
    """A point-in-time value (may go up, down, or be NaN for 'no data')."""

    __slots__ = ("value", "series")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = float("nan")
        self.series: list[list] = []

    def set(self, value: float) -> None:
        self.value = float(value)

    def sample(self, round_index: int) -> None:
        self.series.append([round_index, _json_value(self.value)])


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``edges`` are inclusive upper bounds; an implicit +inf bucket closes
    the range. Defaults to the canonical latency binning
    (:data:`LATENCY_BUCKET_EDGES`).
    """

    __slots__ = ("edges", "counts", "sum", "count", "series")
    kind = "histogram"

    def __init__(self, edges: tuple[float, ...] = LATENCY_BUCKET_EDGES) -> None:
        if not edges or list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ConfigurationError(f"bucket edges must be strictly increasing, got {edges!r}")
        self.edges = tuple(float(edge) for edge in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

        self.series: list[list] = []

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts (last entry == ``count``)."""
        running = 0
        out = []
        for count in self.counts:
            running += count
            out.append(running)
        return out

    def sample(self, round_index: int) -> None:
        self.series.append(
            [round_index, self.cumulative(), _json_value(self.sum), self.count]
        )


class MetricFamily:
    """One named metric plus its labelled children."""

    __slots__ = ("name", "help", "kind", "edges", "_children")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        edges: tuple[float, ...] = LATENCY_BUCKET_EDGES,
    ) -> None:
        if kind not in _KINDS:
            raise ConfigurationError(f"unknown metric kind {kind!r}; expected one of {_KINDS}")
        self.name = name
        self.help = help_text
        self.kind = kind
        self.edges = edges
        self._children: dict[tuple[tuple[str, str], ...], Counter | Gauge | Histogram] = {}

    def labels(self, **labels: str) -> Counter | Gauge | Histogram:
        """The child for this label set (created on first use)."""
        key = tuple(sorted((name, str(value)) for name, value in labels.items()))
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.edges)
            self._children[key] = child
        return child

    def children(self) -> Iterator[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        """(labels, child) pairs in deterministic (sorted-label) order."""
        for key in sorted(self._children):
            yield dict(key), self._children[key]


class MetricsRegistry:
    """All metric families of one run, plus the round clock.

    ``const_labels`` (e.g. overlay and policy) are attached to every
    exported series without being repeated at each call site.
    """

    def __init__(self, const_labels: dict[str, str] | None = None) -> None:
        self.const_labels = dict(const_labels or {})
        self.round = -1  # no round sampled yet
        self._families: dict[str, MetricFamily] = {}

    # -- family constructors ------------------------------------------
    def counter(self, name: str, help_text: str) -> MetricFamily:
        return self._family(name, help_text, "counter")

    def gauge(self, name: str, help_text: str) -> MetricFamily:
        return self._family(name, help_text, "gauge")

    def histogram(
        self,
        name: str,
        help_text: str,
        edges: tuple[float, ...] = LATENCY_BUCKET_EDGES,
    ) -> MetricFamily:
        return self._family(name, help_text, "histogram", edges)

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        edges: tuple[float, ...] = LATENCY_BUCKET_EDGES,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help_text, kind, edges)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}, not a {kind}"
            )
        return family

    # -- round clock ---------------------------------------------------
    def sample_round(self) -> int:
        """Advance the round clock and snapshot every child's value.

        Returns the round index just sampled (0-based).
        """
        self.round += 1
        for family in self._families.values():
            for __, child in family.children():
                child.sample(self.round)
        return self.round

    @property
    def rounds_sampled(self) -> int:
        return self.round + 1

    # -- export --------------------------------------------------------
    def to_payload(self) -> list[dict]:
        """JSON-ready series list, deterministically ordered by
        (name, labels); each entry carries its full per-round series."""
        payload = []
        for name in sorted(self._families):
            family = self._families[name]
            for labels, child in family.children():
                entry: dict = {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labels": {**self.const_labels, **labels},
                    "series": child.series,
                }
                if family.kind == "histogram":
                    entry["edges"] = list(child.edges)
                else:
                    entry["value"] = _json_value(child.value)
                payload.append(entry)
        return payload


def _json_value(value: float) -> float | int | None:
    """Strict-JSON scalar: NaN degrades to null, integral floats to int."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if value.is_integer():
            return int(value)
    return value
