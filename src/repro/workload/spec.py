"""Pluggable workload scenarios: the workload plane (DESIGN.md §13).

The paper measures pointer caching under a single static Zipf stream;
its §II-C "caching items vs caching pointers" argument really turns on
how caches behave when demand *moves*. This module makes the query
stream a first-class, named, swappable component: a
:class:`WorkloadSpec` is parsed from ``NAME[:PARAM]`` (the CLI's
``--workload`` flag), validated against the :data:`WORKLOADS` registry,
and built into a :class:`WorkloadStream` — the deterministic per-cell
query substream every runner draws its queries from.

Scenarios
---------
``static-zipf``
    The paper's workload: uniform sources, per-ranking Zipf items, no
    time variation.
``drifting-zipf[:SWAP_INTERVAL]``
    Time-varying exponent ranking via
    :class:`~repro.workload.dynamics.DynamicPopularity`: adjacent rank
    pairs swap every ``SWAP_INTERVAL`` virtual seconds (default 30).
``flash-crowd[:CROWDS]``
    Static ranking plus ``CROWDS`` scheduled popularity spikes (default
    3), each promoting a cold item to rank 1 for a slice of the horizon.
``diurnal[:PERIOD]``
    Sinusoidal rate modulation on the round clock: each node is active
    only while the diurnal intensity exceeds its (seeded) threshold, so
    the querying population swells and shrinks with period ``PERIOD``
    virtual seconds (default half the horizon).
``hotspot-rotation[:PERIOD]``
    Adversarial periodic re-ranking: every ``PERIOD`` virtual seconds
    (default 120) the whole ranking rotates by a quarter of the catalog,
    so the learned hot set goes cold in one step.
``trace:PATH``
    Replay of an external :class:`~repro.workload.trace.QueryTrace`
    JSONL file; entries whose source is not live are skipped, and stable
    mode cycles the trace to fill the configured query count.

Determinism contract
--------------------
Every generator must be a pure function of its
:class:`WorkloadContext`: all randomness comes from the two
constructor-injected streams (``rng``, ``scenario_rng``), never from
module or process state; ``advance`` is monotone in virtual time and
idempotent at equal times; and ``stream(count, live_fn)`` is exactly the
``advance(index / rate)`` + ``next_query`` call sequence. Two streams
built from equal contexts therefore emit identical queries — which is
what keeps every scenario byte-identical under ``--jobs`` process
fan-out, and what the mutation test in ``tests/workload`` enforces by
registering a deliberately state-leaking generator and watching the
gate trip.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive
from repro.workload.dynamics import DynamicPopularity, FlashCrowd
from repro.workload.items import ItemCatalog, PopularityModel
from repro.workload.queries import Query
from repro.workload.trace import QueryTrace

__all__ = [
    "DEFAULT_RATE",
    "WORKLOADS",
    "WorkloadContext",
    "WorkloadSpec",
    "WorkloadStream",
    "record_trace",
]

#: Nominal arrival rate mapping stable-mode query indices onto the
#: virtual clock (matches the churn runner's Poisson default of 4/s).
DEFAULT_RATE = 4.0


@dataclass
class WorkloadContext:
    """Everything a scenario factory may draw on — and nothing else.

    ``rng`` carries the cell's legacy ``"queries"`` substream (source and
    item draws), ``scenario_rng`` a separate stream for scenario-internal
    randomness (drift seeds, activity thresholds), so ``static-zipf``
    consumes ``rng`` exactly like the pre-plane code did.
    """

    popularity: PopularityModel
    assignment: dict[int, int]
    rng: random.Random
    scenario_rng: random.Random
    alpha: float
    horizon: float
    rate: float = DEFAULT_RATE

    @property
    def catalog(self) -> ItemCatalog:
        return self.popularity.catalog


class WorkloadStream:
    """Base class: a deterministic per-cell query substream.

    Subclasses implement :meth:`next_query`; :meth:`advance` moves the
    virtual clock (no-op for time-invariant scenarios). The stable
    runner drives :meth:`stream`, the churn runner calls
    ``advance(scheduler.now)`` + ``next_query(alive)`` per arrival.
    """

    def __init__(self, context: WorkloadContext) -> None:
        self.context = context

    def advance(self, now: float) -> None:
        """Move the scenario's virtual clock to ``now`` (monotone)."""

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        """One query from the live population, or ``None`` when the
        scenario is exhausted (trace replay past its last entry)."""
        raise NotImplementedError

    def stream(
        self, count: int, live_sources_fn: Callable[[], Sequence[int]]
    ) -> Iterator[Query]:
        """Yield up to ``count`` queries, ticking the virtual clock at
        the nominal rate and re-reading the live population each time."""
        for index in range(count):
            self.advance(index / self.context.rate)
            query = self.next_query(live_sources_fn())
            if query is None:
                return
            yield query

    def _uniform_source(self, live_sources: Sequence[int]) -> int:
        if not live_sources:
            raise ConfigurationError("no live sources to query from")
        return live_sources[self.context.rng.randrange(len(live_sources))]


def _require_assignment(context: WorkloadContext) -> None:
    """Every assigned ranking exists, and some node has one."""
    if not context.assignment:
        raise ConfigurationError("assignment must map at least one node")
    rankings = context.popularity.num_rankings
    for node, index in context.assignment.items():
        if not 0 <= index < rankings:
            raise ConfigurationError(f"node {node} assigned unknown ranking {index}")


class StaticZipfStream(WorkloadStream):
    """The paper's workload: a uniform live source, then one inverse-CDF
    item sample from the source's assigned ranking. Every stable cell
    draws its queries here, so the draws are written out in place."""

    def __init__(self, context: WorkloadContext) -> None:
        super().__init__(context)
        _require_assignment(context)

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        if not live_sources:
            raise ConfigurationError("no live sources to query from")
        context = self.context
        source = live_sources[context.rng.randrange(len(live_sources))]
        ranking = context.assignment.get(source)
        if ranking is None:
            raise ConfigurationError(f"node {source} has no ranking assignment")
        return Query(source, context.popularity.sample_item(ranking, context.rng))


class DriftingZipfStream(WorkloadStream):
    """Zipf stream whose ranking drifts on the virtual clock."""

    def __init__(self, context: WorkloadContext, swap_interval: float) -> None:
        super().__init__(context)
        catalog = context.catalog
        self.dynamics = DynamicPopularity(
            catalog,
            context.alpha,
            seed=context.scenario_rng.randrange(2**31),
            swap_interval=swap_interval,
            # Scale the per-step churn with the catalog so drift is
            # visible at any size without reshuffling everything.
            swap_count=max(1, len(catalog) // 32),
        )

    def advance(self, now: float) -> None:
        self.dynamics.advance(now)

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        source = self._uniform_source(live_sources)
        return Query(source, self.dynamics.sample_item(self.context.rng))


class FlashCrowdStream(WorkloadStream):
    """Static ranking punctuated by scheduled popularity spikes.

    ``crowds`` cold-tail items each hold rank 1 for ``horizon / (2 *
    crowds)`` virtual seconds, evenly spaced across the horizon.
    """

    def __init__(self, context: WorkloadContext, crowds: int) -> None:
        super().__init__(context)
        catalog = context.catalog
        items = list(catalog.item_ids)
        # Victims come from the cold tail so each spike is a real upset.
        tail = items[len(items) // 2 :] or items
        duration = max(context.horizon / (2 * crowds), 1.0 / context.rate)
        schedule = [
            FlashCrowd(
                item=tail[context.scenario_rng.randrange(len(tail))],
                start=context.horizon * index / crowds,
                duration=duration,
            )
            for index in range(crowds)
        ]
        self.dynamics = DynamicPopularity(
            catalog,
            context.alpha,
            seed=context.scenario_rng.randrange(2**31),
            swap_count=0,
            flash_crowds=schedule,
        )

    def advance(self, now: float) -> None:
        self.dynamics.advance(now)

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        source = self._uniform_source(live_sources)
        return Query(source, self.dynamics.sample_item(self.context.rng))


class DiurnalStream(WorkloadStream):
    """Sinusoidal activity modulation of the querying population.

    Node ``s`` is active at time ``t`` when its seeded threshold lies
    below the diurnal intensity ``(1 + sin(2πt / period)) / 2``; item
    draws follow the legacy per-ranking Zipf model, so only *who asks*
    varies with the clock, never *what is popular*.
    """

    def __init__(self, context: WorkloadContext, period: float) -> None:
        super().__init__(context)
        _require_assignment(context)
        self.period = period
        # Thresholds are drawn in sorted-node order so they do not
        # depend on dict iteration order.
        self._thresholds = {
            source: context.scenario_rng.random()
            for source in sorted(context.assignment)
        }
        self._now = 0.0

    def advance(self, now: float) -> None:
        self._now = max(self._now, now)

    def intensity(self, now: float) -> float:
        """Diurnal activity level in [0, 1] at virtual time ``now``."""
        return 0.5 * (1.0 + math.sin(2.0 * math.pi * now / self.period))

    def active_sources(self, live_sources: Sequence[int]) -> list[int]:
        level = self.intensity(self._now)
        active = [
            source
            for source in live_sources
            if self._thresholds.get(source, 1.0) <= level
        ]
        # Midnight trough: nobody clears the bar, so arrivals fall back
        # to the whole live population rather than stalling the stream.
        return active or list(live_sources)

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        active = self.active_sources(live_sources)
        if not active:
            raise ConfigurationError("no live sources to query from")
        context = self.context
        source = active[context.rng.randrange(len(active))]
        ranking = context.assignment.get(source)
        if ranking is None:
            raise ConfigurationError(f"node {source} has no ranking assignment")
        return Query(source, context.popularity.sample_item(ranking, context.rng))


class HotspotRotationStream(WorkloadStream):
    """Adversarial periodic re-ranking: every ``period`` virtual seconds
    the ranking rotates by a quarter of the catalog, so frequency tables
    learned in one epoch point at the wrong hot set in the next."""

    def __init__(self, context: WorkloadContext, period: float) -> None:
        super().__init__(context)
        self.period = period
        self._ranking = list(context.catalog.item_ids)
        self.stride = max(1, len(self._ranking) // 4)
        self._epoch = 0

    def advance(self, now: float) -> None:
        self._epoch = max(self._epoch, int(now // self.period))

    def ranking(self) -> list[int]:
        """The current epoch's ranking (hottest first)."""
        offset = (self._epoch * self.stride) % len(self._ranking)
        return self._ranking[offset:] + self._ranking[:offset]

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        source = self._uniform_source(live_sources)
        rank = self.context.popularity.distribution.sample_rank(self.context.rng)
        offset = (self._epoch * self.stride) % len(self._ranking)
        return Query(source, self._ranking[(rank - 1 + offset) % len(self._ranking)])


class TraceStream(WorkloadStream):
    """Replay of a recorded :class:`QueryTrace`.

    Entries are consumed in order; an entry whose source is not in the
    live population is skipped (matching ``QueryTrace.replay_onto``).
    Stable mode cycles the trace to fill the configured query count; a
    full fruitless pass (no live source anywhere) ends the stream.
    """

    def __init__(self, context: WorkloadContext, trace: QueryTrace) -> None:
        super().__init__(context)
        if not len(trace):
            raise ConfigurationError("trace workload is empty: no entries to replay")
        self.trace = trace
        self._cursor = 0

    def next_query(self, live_sources: Sequence[int]) -> Query | None:
        live = set(live_sources)
        for __ in range(len(self.trace)):
            entry = self.trace.entries[self._cursor]
            self._cursor = (self._cursor + 1) % len(self.trace)
            if entry.source in live:
                return entry.query()
        return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def _parse_float(name: str, param: str) -> float:
    try:
        value = float(param)
    except ValueError:
        raise ConfigurationError(
            f"workload {name!r} expects a numeric parameter, got {param!r}"
        ) from None
    return require_positive(value, f"workload {name!r} parameter")


def _parse_int(name: str, param: str, minimum: int) -> int:
    try:
        value = int(param)
    except ValueError:
        raise ConfigurationError(
            f"workload {name!r} expects an integer parameter, got {param!r}"
        ) from None
    if value < minimum:
        raise ConfigurationError(
            f"workload {name!r} parameter must be >= {minimum}, got {value}"
        )
    return value


def _build_static(context: WorkloadContext, param: str | None) -> WorkloadStream:
    if param is not None:
        raise ConfigurationError("workload 'static-zipf' takes no parameter")
    return StaticZipfStream(context)


def _build_drifting(context: WorkloadContext, param: str | None) -> WorkloadStream:
    interval = _parse_float("drifting-zipf", param) if param else 30.0
    # ``advance`` applies every due drift step in turn (each draws from
    # the drift stream, so none can be skipped): allow at most one step
    # per nominal query gap, or a tiny interval spins there.
    minimum = 1.0 / context.rate
    if interval < minimum:
        raise ConfigurationError(
            f"workload 'drifting-zipf' swap interval must be at least {minimum:g} s "
            f"(one drift step per query at {context.rate:g} queries/s), got {interval:g}"
        )
    return DriftingZipfStream(context, swap_interval=interval)


def _build_flash_crowd(context: WorkloadContext, param: str | None) -> WorkloadStream:
    crowds = _parse_int("flash-crowd", param, 1) if param else 3
    # Victims come from the cold tail, one crowd object each.
    items = len(context.catalog)
    tail = items - items // 2
    if crowds > tail:
        raise ConfigurationError(
            f"workload 'flash-crowd' takes at most {tail} crowds "
            f"(the cold tail of {items} items), got {crowds}"
        )
    return FlashCrowdStream(context, crowds=crowds)


def _build_diurnal(context: WorkloadContext, param: str | None) -> WorkloadStream:
    period = _parse_float("diurnal", param) if param else max(context.horizon / 2.0, 1.0)
    return DiurnalStream(context, period=period)


def _build_hotspot(context: WorkloadContext, param: str | None) -> WorkloadStream:
    period = _parse_float("hotspot-rotation", param) if param else 120.0
    return HotspotRotationStream(context, period=period)


def _build_trace(context: WorkloadContext, param: str | None) -> WorkloadStream:
    if not param:
        raise ConfigurationError(
            "workload 'trace' needs a path parameter: trace:/path/to/file.jsonl"
        )
    return TraceStream(context, QueryTrace.load(param))


#: Scenario registry: name -> ``factory(context, param) -> WorkloadStream``.
WORKLOADS: dict[str, Callable[[WorkloadContext, str | None], WorkloadStream]] = {
    "static-zipf": _build_static,
    "drifting-zipf": _build_drifting,
    "flash-crowd": _build_flash_crowd,
    "diurnal": _build_diurnal,
    "hotspot-rotation": _build_hotspot,
    "trace": _build_trace,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """A parsed ``NAME[:PARAM]`` workload selector."""

    name: str
    param: str | None = None

    def __post_init__(self) -> None:
        if self.name not in WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.name!r}; expected one of {sorted(WORKLOADS)}"
            )

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse ``NAME`` or ``NAME:PARAM`` (``trace:PATH`` keeps the
        whole remainder — paths may contain colons). A ``:`` with nothing
        after it is an error, not the default parameter."""
        if not isinstance(text, str) or not text:
            raise ConfigurationError(f"workload must be a non-empty string, got {text!r}")
        name, sep, param = text.partition(":")
        if sep and not param:
            raise ConfigurationError(f"workload {name!r} has an empty parameter after ':'")
        return cls(name, param if sep else None)

    @property
    def label(self) -> str:
        """Canonical ``NAME[:PARAM]`` round-trip form."""
        return self.name if self.param is None else f"{self.name}:{self.param}"

    @property
    def is_static(self) -> bool:
        """True for the legacy default (the bit-identical fast path)."""
        return self.name == "static-zipf"

    def describe(self) -> str:
        """Human-readable one-liner for banners and dashboards."""
        if self.name == "static-zipf":
            return "static zipf"
        if self.name == "drifting-zipf":
            return f"drifting zipf (swap every {self.param or '30'}s)"
        if self.name == "flash-crowd":
            return f"zipf + {self.param or '3'} flash crowds"
        if self.name == "diurnal":
            period = self.param or "horizon/2"
            return f"diurnal activity (period {period}s)"
        if self.name == "hotspot-rotation":
            return f"hotspot rotation (every {self.param or '120'}s)"
        return f"trace replay ({self.param})"

    def build(self, context: WorkloadContext) -> WorkloadStream:
        """Instantiate the scenario's stream for one cell."""
        return WORKLOADS[self.name](context, self.param)


def record_trace(
    stream: WorkloadStream,
    count: int,
    live_sources_fn: Callable[[], Sequence[int]],
    metadata: dict | None = None,
) -> QueryTrace:
    """Materialize ``count`` queries of ``stream`` into a replayable
    trace, timestamped on the stream's own virtual clock."""
    trace = QueryTrace(metadata=metadata or {})
    rate = stream.context.rate
    for index, query in enumerate(stream.stream(count, live_sources_fn)):
        trace.record(index / rate, query.source, query.item)
    return trace
