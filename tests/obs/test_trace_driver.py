"""Integration tests: tracing observes without perturbing, at any fan-out.

The contracts defended here are the tentpole's acceptance criteria:

* a traced cell reports the *same* aggregate numbers as the untraced
  ``run_stable`` of the same config (recorders only observe);
* routing results are bit-identical whether ``trace`` is ``None``, a
  ``NullRecorder`` or a live tracer;
* with the default single-attempt ``RetryPolicy()`` the hop/timeout
  accounting visible in trace events matches the legacy (pre-fault-plane)
  totals bit for bit.
"""

import json

import pytest

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.obs.driver import trace_cell
from repro.obs.recorder import LookupTracer, NullRecorder
from repro.sim.runner import ExperimentConfig, run_stable


def cell_config(overlay="chord", **overrides) -> ExperimentConfig:
    base = dict(overlay=overlay, n=24, bits=16, queries=300, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestObserveOnly:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"workload": "flash-crowd:2"}, {"budget_mode": "allocated", "budget_total": 100}],
        ids=["default", "flash-crowd", "allocated-budget"],
    )
    def test_traced_stats_match_untraced_run(self, overrides):
        config = cell_config(**overrides)
        untraced = run_stable(config).optimized
        traced = trace_cell(config, policy="optimal")["stats"]
        assert traced["lookups"] == untraced.lookups
        assert traced["successes"] == untraced.successes
        assert traced["failures"] == untraced.failures
        assert traced["mean_hops"] == untraced.mean_hops
        assert traced["timeout_rate"] == untraced.timeout_rate

    def test_traced_stats_match_under_faults(self):
        config = cell_config(
            overlay="pastry", faults=FaultSchedule(loss_rate=0.05, crash_burst_size=2)
        )
        untraced = run_stable(config).baseline
        document = trace_cell(config, policy="oblivious")
        assert document["stats"]["lookups"] == untraced.lookups
        assert document["stats"]["mean_hops"] == untraced.mean_hops
        assert document["stats"]["failure_rate"] == untraced.failure_rate
        # The fault plane saw real injections and the events recorded them.
        assert document["fault_counters"]["dropped"] > 0
        verdicts = document["counters"]["timeouts_by_verdict"]
        assert sum(verdicts.values()) == document["counters"]["timeouts_by_verdict"].get(
            "dead", 0
        ) + verdicts.get("dropped", 0) + verdicts.get("blocked", 0)
        assert verdicts  # loss/crash produced at least one verdict

    def test_null_recorder_routes_identically_to_none(self, small_universe):
        def lookups(trace):
            overlay = small_universe("chord", n=24, seed=7)
            ids = overlay.alive_ids()
            return [
                overlay.lookup(source, key, record_access=False, trace=trace)
                for source in ids[:6]
                for key in ids
                if key != source
            ]

        as_none = lookups(None)
        as_null = lookups(NullRecorder())
        as_live = lookups(LookupTracer())
        fields = lambda r: (r.hops, r.timeouts, r.penalty, r.path, r.succeeded)
        assert [fields(r) for r in as_none] == [fields(r) for r in as_null]
        assert [fields(r) for r in as_none] == [fields(r) for r in as_live]


class TestTraceDocuments:
    def test_document_shape(self):
        document = trace_cell(cell_config(), sample=4)
        assert document["schema"] == "TRACE_v1"
        assert document["manifest"]["schema"] == "MANIFEST_v1"
        assert document["kept"] == 4
        assert document["seen"] == 300
        assert len(document["traces"]) == 4
        for trace in document["traces"]:
            delivered = [e for e in trace["events"] if e["delivered"]]
            assert len(delivered) == trace["hops"]
        assert json.dumps(document, sort_keys=True)  # JSON-clean, no NaN

    def test_counters_cover_every_lookup_despite_sampling(self):
        full = trace_cell(cell_config())
        sampled = trace_cell(cell_config(), sample=3)
        assert sampled["counters"] == full["counters"]

    def test_hop_class_attribution_vocabulary(self):
        chord = trace_cell(cell_config("chord"))["counters"]["hops_by_class"]
        pastry = trace_cell(cell_config("pastry"))["counters"]["hops_by_class"]
        assert set(chord) <= {"core", "successor", "auxiliary", "unknown"}
        assert set(pastry) <= {"core", "leaf", "auxiliary", "fallback", "unknown"}
        assert chord and pastry


class TestRetryExactness:
    """Satellite: ``RetryPolicy()`` must reproduce pre-fault-plane hop
    totals bit for bit, verified through the trace events themselves."""

    def faulty_overlay(self, build):
        overlay = build(seed=13)
        for victim in overlay.alive_ids()[-4:]:
            overlay.crash(victim)
        return overlay

    def run_all(self, overlay, **kwargs):
        ids = overlay.alive_ids()
        return [
            overlay.lookup(source, key, record_access=False, **kwargs)
            for source in ids[:8]
            for key in ids
            if key != source
        ]

    def check_overlay(self, small_universe, kind):
        build = lambda **kwargs: small_universe(kind, **kwargs)
        legacy = self.run_all(self.faulty_overlay(build))
        tracer = LookupTracer()
        defaulted = self.run_all(
            self.faulty_overlay(build), retry=RetryPolicy(), trace=tracer
        )
        fields = lambda r: (r.hops, r.timeouts, r.path, r.succeeded)
        assert [fields(r) for r in legacy] == [fields(r) for r in defaulted]
        assert sum(r.timeouts for r in legacy) > 0  # the run actually hit faults
        # Event-level accounting: the default policy charges exactly one
        # hop per timeout and zero backoff, so the legacy latency identity
        # (latency == hops + timeouts) holds on every trace.
        for trace in tracer.traces:
            assert trace.penalty == 0.0
            assert sum(event.timeouts for event in trace.events) == trace.timeouts
            assert sum(event.penalty for event in trace.events) == 0.0
            assert all(event.attempts <= 1 for event in trace.events)
        assert tracer.counters.total_timeouts == sum(r.timeouts for r in defaulted)

    def test_chord(self, small_universe):
        self.check_overlay(small_universe, "chord")

    def test_pastry(self, small_universe):
        self.check_overlay(small_universe, "pastry")
