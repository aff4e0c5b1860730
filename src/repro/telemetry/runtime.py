"""The live telemetry runtime threaded through the simulation layers.

:class:`RoundTelemetry` bundles everything one instrumented universe
needs: a :class:`~repro.telemetry.registry.MetricsRegistry`, a
:class:`~repro.telemetry.spans.SpanProfiler`, and the lookup tally. It
is itself a ``TraceRecorder``, so it plugs into the lookup loop's
existing event path — the hot loop gains **no new hook sites**, and the
zero-cost-when-disabled contract the obs plane already certifies
carries over unchanged: a disabled runtime is normalized to ``None`` at
route entry like any disabled recorder, and
:meth:`repro.overlay.Overlay.attach_telemetry` returns ``None`` for it,
which is the handle every instrumented layer is then given.

Instrumented call sites and what they record:

* the lookup loop (via ``record_lookup``): a
  :class:`~repro.obs.recorder.CounterSet` — the same tally TRACE_v1's
  counters come from — and the cost histogram of successful lookups.
  METRICS_v1's lookup series (totals, failures, hops per pointer class,
  timeouts per verdict, retry attempts, backoff penalty, cost total) are
  read from the two at each round tick and when the document is built,
  so trace and telemetry counts cannot drift apart;
* overlay maintenance (``recompute_auxiliary`` / ``stabilize``):
  selection-recompute spans, pointer-update work, stabilization
  messages;
* the churn process: crash/rejoin transition counters;
* the fault plane wiring: injected-fault counters by kind.

:meth:`RoundTelemetry.sample_round` is the round-clock tick the runners
call once per simulation round: it derives the per-round gauges (mean
cost, timeout rate, lookup volume — deltas of the running counters) and
snapshots every series.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.recorder import POINTER_CLASSES, VERDICTS, CounterSet, HopEvent
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import SpanProfiler
from repro.util.errors import ConfigurationError

__all__ = ["RoundTelemetry"]

#: Default round count when a driver does not choose one.
DEFAULT_ROUNDS = 12

#: METRICS_v1's lookup counters: name, help text, and how each is read
#: off the tally (a :class:`CounterSet` and the cost histogram).
_LOOKUP_SERIES = (
    ("repro_lookups_total", "Lookups routed (all outcomes).", lambda c, cost: c.lookups),
    (
        "repro_lookup_successes_total",
        "Lookups that reached the responsible node.",
        lambda c, cost: c.succeeded,
    ),
    (
        "repro_lookup_failures_total",
        "Lookups stranded before the responsible node.",
        lambda c, cost: c.failed,
    ),
    (
        "repro_lookup_cost_total",
        "Sum of the per-lookup latency proxy (hops + timeouts + penalty) "
        "over successful lookups.",
        lambda c, cost: cost.sum,
    ),
    # Every attempted target makes at least one attempt, so the attempts
    # beyond the first are the failed ones minus one per evicted target.
    (
        "repro_retry_attempts_total",
        "Extra delivery attempts beyond the first, across all targets.",
        lambda c, cost: c.total_timeouts - c.evictions,
    ),
    (
        "repro_backoff_penalty_total",
        "Extra backoff latency charged beyond the one-hop-per-timeout baseline.",
        lambda c, cost: c.total_penalty,
    ),
)


class RoundTelemetry:
    """One universe's telemetry: registry + spans + lookup tally + round
    clock, and the ``TraceRecorder`` its lookups are routed with.

    ``rounds`` fixes how many round-clock samples the driving runner
    takes (query chunks in stable mode, equal virtual-time intervals in
    churn mode). ``enabled=False`` builds the inert variant every layer
    normalizes away — the shape the ``telemetry_overhead`` bench gate
    measures.
    """

    __slots__ = (
        "enabled",
        "rounds",
        "registry",
        "spans",
        "counters",
        "_cost",
        "_series",
        "_hops",
        "_timeouts",
        "_last",
        "_gauges",
    )

    def __init__(
        self,
        rounds: int = DEFAULT_ROUNDS,
        const_labels: dict[str, str] | None = None,
        enabled: bool = True,
    ) -> None:
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds!r}")
        self.enabled = enabled
        self.rounds = rounds
        self.registry = MetricsRegistry(const_labels)
        self.spans = SpanProfiler()
        self.counters = CounterSet()
        registry = self.registry
        self._cost = registry.histogram(
            "repro_lookup_cost",
            "Latency proxy of successful lookups (canonical log-spaced buckets).",
        ).labels()
        self._series = [
            (registry.counter(name, help_text).labels(), read)
            for name, help_text, read in _LOOKUP_SERIES
        ]
        hops = registry.counter(
            "repro_hops_total", "Delivered forwards by resolving pointer class."
        )
        self._hops = {name: hops.labels(pointer_class=name) for name in POINTER_CLASSES}
        timeouts = registry.counter(
            "repro_timeouts_total", "Failed delivery attempts by fault verdict."
        )
        self._timeouts = {name: timeouts.labels(verdict=name) for name in VERDICTS}
        self._last: dict[str, float] = {}
        self._gauges = {
            "alive": registry.gauge("repro_alive_nodes", "Live overlay nodes.").labels(),
            "round_cost": registry.gauge(
                "repro_round_cost",
                "Mean latency proxy of the lookups that succeeded this round.",
            ).labels(),
            "round_timeout_rate": registry.gauge(
                "repro_round_timeout_rate", "Timeouts per lookup this round."
            ).labels(),
            "round_lookups": registry.gauge(
                "repro_round_lookups", "Lookups routed this round."
            ).labels(),
            "round_failure_rate": registry.gauge(
                "repro_round_failure_rate", "Failed-lookup fraction this round."
            ).labels(),
            "virtual_time": registry.gauge(
                "repro_virtual_time_seconds",
                "Simulation clock at the round boundary (churn mode only).",
            ).labels(),
        }

    # -- TraceRecorder protocol ----------------------------------------
    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:
        self.counters.record_lookup(result, events)
        if result.succeeded:
            self._cost.observe(result.latency)

    def _publish(self) -> None:
        """Read METRICS_v1's lookup series off the tally."""
        counters = self.counters
        for child, read in self._series:
            child.value = read(counters, self._cost)
        for name, child in self._hops.items():
            child.value = counters.hops_by_class.get(name, 0)
        for name, child in self._timeouts.items():
            child.value = counters.timeouts_by_verdict.get(name, 0)

    def to_payload(self) -> list[dict]:
        """The registry's JSON-ready series with the lookup counters read
        off the tally first (see :meth:`MetricsRegistry.to_payload`)."""
        self._publish()
        return self.registry.to_payload()

    @classmethod
    def disabled(cls) -> "RoundTelemetry":
        """The inert variant: every layer normalizes it to ``None``."""
        return cls(rounds=1, enabled=False)

    # -- instrumentation hooks (all no-ops when normalized away) -------
    def span(self, name: str):
        """Time-and-count one maintenance phase; also feeds the round
        series so per-phase work is visible per round."""
        self._span_counter(name).inc()
        return self.spans.span(name)

    def add_work(self, name: str, amount: float = 1.0) -> None:
        if amount:
            self.spans.add_work(name, amount)
            self._work_counter(name).inc(amount)

    def record_churn(self, kind: str) -> None:
        self.registry.counter(
            "repro_churn_transitions_total", "Churn-process node transitions by kind."
        ).labels(kind=kind).inc()

    def record_fault(self, kind: str, amount: float = 1.0) -> None:
        self.registry.counter(
            "repro_faults_injected_total", "Injected faults by kind."
        ).labels(kind=kind).inc(amount)

    def record_budget(self, kind: str, amount: float = 1.0) -> None:
        """Budget-rebalancer activity: rounds scored, rounds skipped for
        lack of drift, and single-pointer moves applied."""
        self.registry.counter(
            "repro_budget_rebalance_total", "Budget-rebalancer activity by kind."
        ).labels(kind=kind).inc(amount)

    def _span_counter(self, name: str):
        return self.registry.counter(
            "repro_span_entries_total", "Profiled maintenance-phase entries by span."
        ).labels(span=name)

    def _work_counter(self, name: str):
        return self.registry.counter(
            "repro_span_work_total", "Work units accumulated by span."
        ).labels(span=name)

    # -- the round-clock tick ------------------------------------------
    def sample_round(self, alive: int | None = None, now: float | None = None) -> int:
        """Derive the per-round gauges from counter deltas, then snapshot
        every series at the next round index. Called by the runners once
        per simulation round; returns the sampled round index."""
        if alive is not None:
            self._gauges["alive"].set(alive)
        if now is not None:
            self._gauges["virtual_time"].set(now)
        counters = self.counters
        totals = {
            "lookups": counters.lookups,
            "successes": counters.succeeded,
            "failures": counters.failed,
            "cost": self._cost.sum,
            "timeouts": counters.total_timeouts,
        }
        delta = {name: value - self._last.get(name, 0) for name, value in totals.items()}
        self._last = totals
        nan = float("nan")
        lookups, successes = delta["lookups"], delta["successes"]
        self._gauges["round_lookups"].set(lookups)
        self._gauges["round_cost"].set(delta["cost"] / successes if successes else nan)
        self._gauges["round_timeout_rate"].set(delta["timeouts"] / lookups if lookups else nan)
        self._gauges["round_failure_rate"].set(delta["failures"] / lookups if lookups else nan)
        self._publish()
        return self.registry.sample_round()
