"""Structured lookup tracing: per-hop events and pluggable recorders.

The paper's evaluation (Section V/VI) reasons about *per-lookup hop
paths* — which pointer class (core finger, successor list, leaf set,
auxiliary) resolved each hop, and where retries and timeouts were
charged — but the aggregate :class:`~repro.sim.metrics.HopStatistics`
cannot answer "why did this cell's mean move?". This module is the
observation plane that can.

Design contract — **zero cost when disabled**:

* The lookup loop (:func:`repro.routing.route`) accepts
  ``trace: TraceRecorder | None = None``. At entry it normalizes the
  recorder to ``None`` unless it is *enabled* (``NullRecorder``
  normalizes away exactly like ``None``), so the hot loop pays a single
  ``is not None`` branch per event site and allocates nothing.
  ``repro.perf.overhead`` measures this and the bench gate holds it
  under 2%.
* With tracing enabled, routing behaviour is bit-identical: recorders
  never touch the overlay, the RNG streams, or the returned result —
  they only observe. ``tests/obs`` asserts this.

Event model: one :class:`HopEvent` per *attempted forwarding target*
(delivered or evicted), carrying the forwarding node, the chosen
pointer class, the number of delivery attempts, the extra backoff
penalty, and the per-failed-attempt fault verdicts (``"dead"``,
``"dropped"``, ``"blocked"``). One :class:`LookupTrace` bundles a whole
lookup. Recorders receive the finished trace via ``record_lookup``:

* :class:`NullRecorder` — the disabled default; never sees an event.
* :class:`CounterSet` — cheap aggregate: hop counts per pointer class,
  timeout counts per verdict, retries, penalties. It is the only code
  that turns hop events into counts: TRACE_v1's counters and METRICS_v1's
  lookup series (:class:`~repro.telemetry.runtime.RoundTelemetry` keeps
  one) are both read from it.
* :class:`LookupTracer` — keeps full traces, optionally bounded by
  seeded reservoir sampling so production-size runs stay bounded; also
  feeds an embedded :class:`CounterSet` with *every* lookup (sampling
  only limits stored paths, never the aggregates).
* :class:`TeeRecorder` — fans each lookup out to any mix of enabled
  recorders (a tracer, a telemetry runtime, an attribution recorder).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.util.errors import ConfigurationError

__all__ = [
    "POINTER_CLASSES",
    "VERDICTS",
    "HopEvent",
    "LookupTrace",
    "TraceRecorder",
    "NullRecorder",
    "CounterSet",
    "LookupTracer",
    "TeeRecorder",
]

#: Pointer classes a hop can be attributed to. ``core`` = finger/routing
#: table entry, ``successor`` = Chord successor list, ``leaf`` = Pastry
#: leaf set, ``auxiliary`` = a selection-installed pointer, ``fallback``
#: = Pastry's rare numerically-closer-neighbor escape hatch.
POINTER_CLASSES = ("core", "successor", "leaf", "auxiliary", "fallback", "unknown")

#: Why a delivery attempt failed: the target was dead, the fault plane
#: dropped the message, or a partition blocked it.
VERDICTS = ("dead", "dropped", "blocked")


@dataclass(frozen=True)
class HopEvent:
    """One attempted forward to one target during a lookup.

    ``attempts`` counts delivery attempts made (>= 1); ``timeouts`` the
    failed ones among them (``attempts - 1`` when delivered, otherwise
    ``attempts``). ``penalty`` is the *extra* backoff latency charged
    beyond the one-hop-per-timeout baseline. ``verdicts`` holds one
    entry per failed attempt, aligned with attempt order.
    """

    forwarder: int
    target: int
    pointer_class: str
    delivered: bool
    attempts: int
    timeouts: int
    penalty: float
    verdicts: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "forwarder": self.forwarder,
            "target": self.target,
            "pointer_class": self.pointer_class,
            "delivered": self.delivered,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "penalty": self.penalty,
            "verdicts": list(self.verdicts),
        }


@dataclass(frozen=True)
class LookupTrace:
    """The full per-hop story of one lookup."""

    key: int
    source: int
    destination: int | None
    succeeded: bool
    hops: int
    timeouts: int
    penalty: float
    events: tuple[HopEvent, ...] = ()

    @property
    def path(self) -> list[int]:
        """The node path actually travelled (delivered hops only)."""
        return [self.source] + [e.target for e in self.events if e.delivered]

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "source": self.source,
            "destination": self.destination,
            "succeeded": self.succeeded,
            "hops": self.hops,
            "timeouts": self.timeouts,
            "penalty": self.penalty,
            "events": [event.to_dict() for event in self.events],
        }


@runtime_checkable
class TraceRecorder(Protocol):
    """What the routing layers need from a recorder.

    ``enabled`` is consulted **once per lookup** at route entry; when
    false the router behaves exactly as if no recorder was passed (this
    is what makes :class:`NullRecorder` free). ``record_lookup`` is
    called once per lookup with the result object and the hop events.
    """

    enabled: bool

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None: ...


class NullRecorder:
    """The do-nothing default recorder: disabled, records nothing.

    Routing normalizes a disabled recorder to ``None`` at entry, so
    passing ``NullRecorder()`` costs exactly as much as passing nothing
    — the property the ``obs_overhead`` bench gate certifies.
    """

    __slots__ = ()
    enabled = False

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:  # pragma: no cover
        return None


@dataclass
class CounterSet:
    """Aggregate trace statistics: who resolved hops, what failed, and
    how much retrying cost — the hop-class breakdown ``repro trace``
    prints."""

    enabled: bool = field(default=True, init=False, repr=False)
    lookups: int = 0
    succeeded: int = 0
    failed: int = 0
    hops_by_class: dict[str, int] = field(default_factory=dict)
    timeouts_by_verdict: dict[str, int] = field(default_factory=dict)
    retried_targets: int = 0
    evictions: int = 0
    total_penalty: float = 0.0

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:
        self.lookups += 1
        if getattr(result, "succeeded", False):
            self.succeeded += 1
        else:
            self.failed += 1
        for event in events:
            if event.delivered:
                self.hops_by_class[event.pointer_class] = (
                    self.hops_by_class.get(event.pointer_class, 0) + 1
                )
            else:
                self.evictions += 1
            if event.attempts > 1:
                self.retried_targets += 1
            for verdict in event.verdicts:
                self.timeouts_by_verdict[verdict] = (
                    self.timeouts_by_verdict.get(verdict, 0) + 1
                )
            self.total_penalty += event.penalty

    @property
    def total_hops(self) -> int:
        return sum(self.hops_by_class.values())

    @property
    def total_timeouts(self) -> int:
        return sum(self.timeouts_by_verdict.values())

    def to_dict(self) -> dict:
        """JSON-ready snapshot with stable key order."""
        return {
            "lookups": self.lookups,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "hops_by_class": dict(sorted(self.hops_by_class.items())),
            "timeouts_by_verdict": dict(sorted(self.timeouts_by_verdict.items())),
            "retried_targets": self.retried_targets,
            "evictions": self.evictions,
            "total_penalty": self.total_penalty,
        }


class LookupTracer:
    """Recorder keeping full per-lookup traces, optionally reservoir-
    sampled to a bound.

    ``sample=None`` keeps every trace (tests, tiny cells); ``sample=N``
    keeps a uniform N-trace reservoir (Vitter's algorithm R) over the
    lookup stream, so tracing a production-size run stays O(N) memory.
    The reservoir's randomness comes from its own seeded generator —
    it never perturbs simulation RNG streams, and the kept set is a
    pure function of ``(seed, stream order)``, which is what makes
    traced runs reproducible at any ``--jobs`` fan-out (cells are
    traced independently, each with its own tracer).

    The embedded :class:`CounterSet` sees **every** lookup regardless of
    sampling.
    """

    __slots__ = ("enabled", "sample", "counters", "seen", "_traces", "_rng")

    def __init__(self, sample: int | None = None, seed: int = 0) -> None:
        if sample is not None and sample < 1:
            raise ConfigurationError(f"sample must be >= 1 or None, got {sample!r}")
        self.enabled = True
        self.sample = sample
        self.counters = CounterSet()
        self.seen = 0
        self._traces: list[LookupTrace] = []
        self._rng = random.Random(seed)

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:
        self.counters.record_lookup(result, events)
        trace = LookupTrace(
            key=result.key,
            source=result.source,
            destination=result.destination,
            succeeded=result.succeeded,
            hops=result.hops,
            timeouts=result.timeouts,
            penalty=result.penalty,
            events=tuple(events),
        )
        self.seen += 1
        if self.sample is None:
            self._traces.append(trace)
            return
        if len(self._traces) < self.sample:
            self._traces.append(trace)
            return
        index = self._rng.randrange(self.seen)
        if index < self.sample:
            self._traces[index] = trace

    @property
    def traces(self) -> list[LookupTrace]:
        """The kept traces (reservoir order; a copy)."""
        return list(self._traces)

    def to_dict(self) -> dict:
        return {
            "sample": self.sample,
            "seen": self.seen,
            "kept": len(self._traces),
            "counters": self.counters.to_dict(),
            "traces": [trace.to_dict() for trace in self._traces],
        }


class TeeRecorder:
    """Fan one lookup out to several recorders (all observe-only, so
    order is irrelevant); disabled members are dropped at construction
    and an all-disabled tee normalizes away like ``NullRecorder``."""

    __slots__ = ("enabled", "recorders")

    def __init__(self, *recorders) -> None:
        self.recorders = tuple(r for r in recorders if r is not None and r.enabled)
        self.enabled = bool(self.recorders)

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:
        for recorder in self.recorders:
            recorder.record_lookup(result, events)
