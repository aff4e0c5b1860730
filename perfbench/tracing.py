"""Traced runs: spans around each layer's public entry points.

The wrappers are installed from the benchmark's own files, on the
attributes the program's callers look up at call time: the overlay
classes' methods, the policy functions as :mod:`repro.sim.runner` holds
them, the engine's snapshot and batch-route functions (imported inside
the runner's columnar path), ``PopularityModel`` and
``EventScheduler.schedule``. :meth:`Tracer.uninstall` restores every
original, so untraced repetitions run the unmodified program.

Spans are kept in memory as ``(name, start, end, parent, repetition)``
and written out at exit. A span's self time is its duration minus its
children's. Host-speed probes that interrupt a span are kept as
``host.probe`` children of it, so the self times of one repetition's
layers add up exactly to its probe-free wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

__all__ = ["Tracer", "LAYER_SPANS", "PROBE", "ROOT"]

PROBE = "host.probe"
ROOT = "sim.runner"
#: Span name -> the per-layer metric its self time is reported under.
LAYER_SPANS = {
    ROOT: "sim.runner.self_s",
    "overlay.build": "overlay.build.s",
    "overlay.seed": "overlay.seed.s",
    "overlay.recompute": "overlay.install.s",
    "core.select_optimal": "core.select_optimal.s",
    "core.select_oblivious": "core.select_oblivious.s",
    "overlay.lookup": "overlay.lookup.s",
    "overlay.stabilize": "overlay.stabilize.s",
    "overlay.membership": "overlay.membership.s",
    "engine.snapshot": "engine.snapshot.s",
    "engine.route": "engine.route.s",
    "workload.popularity": "workload.popularity.s",
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        #: Probe intervals as (start, end, parent span, repetition); kept
        #: apart from ``spans`` because the signal handler that adds them
        #: may interrupt a wrapper between reserving and filling a slot.
        self.probes: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.repetition = -1
        #: Above zero inside an opaque span (overlay build), whose inner
        #: calls stay part of it.
        self.opaque = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def on_probe(self, start: float, end: float) -> None:
        if self.repetition >= 0:
            parent = self.stack[-1] if self.stack else -1
            self.probes.append((start, end, parent, self.repetition))

    def _wrap(self, name: str, function, before=None, after=None, opaque=False):
        tracer = self
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            if tracer.opaque:
                return function(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if opaque:
                tracer.opaque += 1
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if opaque:
                    tracer.opaque -= 1
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, tracer.repetition)
            if after is not None:
                after(token, result)
            return result

        return traced

    def _counter(self, key: str):
        counts = self.counts

        def add(token, result) -> None:
            counts[key] += 1

        return add

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def run_cell(self, repetition: int, runner, config):
        """Run one cell as the root span of ``repetition``."""
        self.repetition = repetition
        try:
            return self._wrap(ROOT, runner)(config)
        finally:
            self.repetition = -1

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        from repro.chord.ring import ChordRing
        from repro.engine import columnar, router
        from repro.kademlia.network import KademliaNetwork
        from repro.pastry.network import PastryNetwork
        from repro.sim import runner
        from repro.sim.events import EventScheduler
        from repro.workload.items import PopularityModel

        counts = self.counts

        def count_lookup(token, result) -> None:
            counts["overlay.lookup.calls"] += 1
            counts["overlay.lookup.hops"] += result.hops
            counts["overlay.lookup.timeouts"] += result.timeouts

        def auxiliary_before(args, kwargs):
            node = args[0].nodes[args[1]]
            return node, set(node.auxiliary)

        def count_recompute(token, result) -> None:
            node, previous = token
            counts["overlay.recompute.calls"] += 1
            if node.auxiliary == previous:
                counts["overlay.recompute.unchanged"] += 1

        overlay_methods = {
            # method: (span name, after hook)
            "seed_frequencies": ("overlay.seed", None),
            "recompute_all_auxiliary": ("overlay.recompute", None),
            "lookup": ("overlay.lookup", count_lookup),
            "stabilize": ("overlay.stabilize", self._counter("overlay.stabilize.calls")),
            "crash": ("overlay.membership", self._counter("overlay.membership.calls")),
            "rejoin": ("overlay.membership", self._counter("overlay.membership.calls")),
        }
        for overlay in (ChordRing, PastryNetwork, KademliaNetwork):
            build = overlay.__dict__["build"].__func__
            self._patch(
                overlay, "build", classmethod(self._wrap("overlay.build", build, opaque=True))
            )
            for method, (name, after) in overlay_methods.items():
                self._patch(overlay, method, self._wrap(name, overlay.__dict__[method], after=after))
            self._patch(
                overlay,
                "recompute_auxiliary",
                self._wrap(
                    "overlay.recompute",
                    overlay.__dict__["recompute_auxiliary"],
                    before=auxiliary_before,
                    after=count_recompute,
                ),
            )

        def problem_size(args, kwargs):
            return len(args[0].frequencies)

        def count_solve(peers, result) -> None:
            counts["core.select_optimal.calls"] += 1
            counts["core.select_optimal.peers"] += peers

        for overlay in ("chord", "pastry", "kademlia"):
            optimal, oblivious = f"{overlay}_optimal", f"{overlay}_oblivious"
            self._patch(
                runner,
                optimal,
                self._wrap(
                    "core.select_optimal",
                    getattr(runner, optimal),
                    before=problem_size,
                    after=count_solve,
                ),
            )
            self._patch(
                runner,
                oblivious,
                self._wrap(
                    "core.select_oblivious",
                    getattr(runner, oblivious),
                    after=self._counter("core.select_oblivious.calls"),
                ),
            )

        def lane_count(args, kwargs):
            return len(args[1])

        def count_lanes(lanes, result) -> None:
            counts["engine.route.lanes"] += lanes

        for overlay in ("chord", "pastry"):
            snapshot, route = f"snapshot_{overlay}", f"batch_route_{overlay}"
            self._patch(
                columnar, snapshot, self._wrap("engine.snapshot", getattr(columnar, snapshot))
            )
            self._patch(
                router,
                route,
                self._wrap(
                    "engine.route", getattr(router, route), before=lane_count, after=count_lanes
                ),
            )

        for method in ("__init__", "assign_rankings", "node_frequencies"):
            self._patch(
                PopularityModel,
                method,
                self._wrap("workload.popularity", PopularityModel.__dict__[method]),
            )

        schedule = EventScheduler.__dict__["schedule"]

        def counted_schedule(scheduler, delay, action):
            counts["sim.events.scheduled"] += 1
            return schedule(scheduler, delay, action)

        self._patch(EventScheduler, "schedule", counted_schedule)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- analysis -------------------------------------------------------
    def self_times(self, repetition: int) -> dict[str, float]:
        """Span name -> summed self time for one repetition, with the
        probes that interrupted its spans under ``host.probe``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, rep in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {PROBE: 0.0}
        for start, end, parent, rep in self.probes:
            if parent >= 0:
                child_time[parent] += end - start
                if rep == repetition:
                    totals[PROBE] += end - start
        for index, (name, start, end, parent, rep) in enumerate(self.spans):
            if rep == repetition:
                totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        """Write every span, probes last, as one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(["name", "start", "end", "parent", "repetition"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for start, end, parent, repetition in self.probes:
                handle.write(json.dumps([PROBE, start, end, parent, repetition]) + "\n")
