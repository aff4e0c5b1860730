"""Determinism and observe-only pins for the telemetry driver.

These are the acceptance tests for the round clock: the stripped
METRICS_v1 document must be byte-identical at any worker count, and
attaching telemetry must never change what the simulation computes.
"""

import json

import pytest

from repro.faults.schedule import FaultSchedule
from repro.obs.manifest import strip_volatile
from repro.obs.recorder import POINTER_CLASSES, VERDICTS, LookupTracer
from repro.sim.runner import ChurnConfig, ExperimentConfig, run_churn, run_stable, stable_cell
from repro.telemetry.driver import metrics_cell, metrics_document
from repro.telemetry.export import parse_openmetrics, to_openmetrics
from repro.telemetry.runtime import RoundTelemetry
from repro.util.errors import ConfigurationError


def small_stable(overlay, seed=3):
    return ExperimentConfig(overlay=overlay, n=64, bits=16, queries=400, seed=seed)


def small_churn(seed=4):
    return ChurnConfig(
        overlay="chord", n=48, bits=18, seed=seed, duration=300.0, warmup=75.0
    )


def stripped(document):
    return json.dumps(strip_volatile(document), sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize("overlay", ["chord", "pastry"])
    def test_stable_document_identical_serial_vs_parallel(self, overlay):
        config = small_stable(overlay)
        serial = metrics_document(config, rounds=4, jobs=1)
        parallel = metrics_document(config, rounds=4, jobs=4)
        assert stripped(serial) == stripped(parallel)

    def test_churn_document_identical_serial_vs_parallel(self):
        config = small_churn()
        serial = metrics_document(config, rounds=4, jobs=1)
        parallel = metrics_document(config, rounds=4, jobs=4)
        assert stripped(serial) == stripped(parallel)

    def test_repeat_run_identical(self):
        config = small_stable("chord")
        assert stripped(metrics_document(config, rounds=3)) == stripped(
            metrics_document(config, rounds=3)
        )

    def test_different_seed_differs(self):
        first = metrics_document(small_stable("chord", seed=3), rounds=3)
        second = metrics_document(small_stable("chord", seed=7), rounds=3)
        assert stripped(first) != stripped(second)


class TestObserveOnly:
    def test_stable_results_unchanged_by_telemetry(self):
        config = small_stable("chord")
        bare = run_stable(config)
        telemetry = {
            "optimal": RoundTelemetry(rounds=4, const_labels={"policy": "optimal"}),
            "oblivious": RoundTelemetry(rounds=4, const_labels={"policy": "oblivious"}),
        }
        observed = run_stable(config, telemetry=telemetry)
        assert observed.optimized.mean_hops == bare.optimized.mean_hops
        assert observed.baseline.mean_hops == bare.baseline.mean_hops
        assert observed.improvement == bare.improvement
        # ...and the registry actually saw the traffic.
        payload = telemetry["optimal"].registry.to_payload()
        lookups = next(e for e in payload if e["name"] == "repro_lookups_total")
        assert lookups["value"] == config.queries

    def test_churn_results_unchanged_by_telemetry(self):
        config = small_churn()
        bare = run_churn(config)
        observed = run_churn(
            config,
            telemetry={
                "optimal": RoundTelemetry(rounds=3),
                "oblivious": RoundTelemetry(rounds=3),
            },
        )
        assert observed.optimized.mean_hops == bare.optimized.mean_hops
        assert observed.baseline.mean_hops == bare.baseline.mean_hops
        assert observed.optimized.timeout_rate == bare.optimized.timeout_rate

    def test_disabled_telemetry_records_nothing(self):
        config = small_stable("chord")
        inert = {
            "optimal": RoundTelemetry.disabled(),
            "oblivious": RoundTelemetry.disabled(),
        }
        run_stable(config, telemetry=inert)
        payload = inert["optimal"].registry.to_payload()
        lookups = next(e for e in payload if e["name"] == "repro_lookups_total")
        assert lookups["value"] == 0
        assert inert["optimal"].registry.rounds_sampled == 0


class TestTraceAndTelemetry:
    """One stable cell observed by a tracer and telemetry at once: both
    see every lookup, and METRICS_v1's lookup series equal the tracer's
    counters."""

    @pytest.mark.parametrize(
        "faults", [None, FaultSchedule(loss_rate=0.05, crash_burst_size=3)], ids=["clean", "lossy"]
    )
    def test_both_observers_see_every_lookup(self, faults):
        config = ExperimentConfig(
            overlay="chord", n=32, bits=16, queries=200, seed=1, faults=faults
        )
        bare = stable_cell(config, "optimal").stats
        tracer = LookupTracer()
        telemetry = RoundTelemetry(rounds=4)
        stats = stable_cell(config, "optimal", trace=tracer, telemetry=telemetry).stats
        assert stats.summary() == bare.summary()
        assert stats.total_hops == bare.total_hops

        values = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry.get("value")
            for entry in telemetry.registry.to_payload()
        }

        def value(name, **labels):
            return values[(name, tuple(sorted(labels.items())))]

        counters = tracer.counters
        assert counters.lookups == config.queries
        assert value("repro_lookups_total") == counters.lookups
        assert value("repro_lookup_successes_total") == counters.succeeded
        assert value("repro_lookup_failures_total") == counters.failed
        for pointer_class in POINTER_CLASSES:
            assert value("repro_hops_total", pointer_class=pointer_class) == (
                counters.hops_by_class.get(pointer_class, 0)
            )
        for verdict in VERDICTS:
            assert value("repro_timeouts_total", verdict=verdict) == (
                counters.timeouts_by_verdict.get(verdict, 0)
            )
        assert value("repro_backoff_penalty_total") == counters.total_penalty
        retries = counters.total_timeouts - counters.evictions
        assert value("repro_retry_attempts_total") == retries
        if faults is not None:
            assert retries > 0 and counters.evictions > 0


class TestCells:
    def test_cell_samples_requested_rounds_and_matches_bare_stats(self):
        config = small_stable("pastry")
        cell = metrics_cell(config, "optimal", rounds=5)
        assert cell["rounds_sampled"] == 5
        bare = run_stable(config)
        assert cell["stats"]["mean_hops"] == bare.optimized.mean_hops
        assert cell["stats"]["lookups"] == bare.optimized.lookups

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics_cell(small_stable("chord"), "greedy")

    def test_bad_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            metrics_document(small_stable("chord"), rounds=0)

    def test_churn_cell_tracks_virtual_time(self):
        config = small_churn()
        cell = metrics_cell(config, "optimal", rounds=3)
        clock = next(
            e
            for e in cell["metrics"]
            if e["name"] == "repro_virtual_time_seconds"
        )
        times = [value for __, value in clock["series"]]
        assert times == [100.0, 200.0, 300.0]


class TestEndToEndExposition:
    def test_document_round_trips_through_openmetrics(self):
        document = metrics_document(small_stable("chord"), rounds=3)
        samples = parse_openmetrics(to_openmetrics(document))
        lookup_samples = [
            s
            for s in samples
            if s.name == "repro_lookups_total"
            and dict(s.labels)["policy"] == "optimal"
        ]
        assert [s.timestamp for s in lookup_samples] == [0.0, 1.0, 2.0]
        assert lookup_samples[-1].value == 400.0
