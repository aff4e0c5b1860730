"""Tests for the disabled-telemetry overhead gate (cheap pieces plus the
leaky-registry mutation test; the full gated measurement runs via
``repro bench`` in CI).

The mutation test is the important one: it proves the gate would catch a
regression where the "disabled" path silently runs a live registry. We
monkeypatch the seam (:func:`repro.perf.overhead.disabled_telemetry`)
to return an *enabled* runtime and assert the measured ratio blows past
the threshold — so a leak cannot slip through the bench unnoticed.
"""

import itertools
from types import SimpleNamespace

import repro.perf.overhead as perf_overhead
from repro.perf.overhead import (
    OVERHEAD_THRESHOLD,
    SECTIONS,
    _build_workload,
    _measure_overlay,
    _trial_ratio,
    disabled_telemetry,
)
from repro.telemetry.runtime import RoundTelemetry


class TestGatePieces:
    def test_threshold_matches_trace_gate(self):
        # One harness gates every disabled observer on the one bar.
        assert "telemetry_overhead" in SECTIONS and "obs_overhead" in SECTIONS
        assert OVERHEAD_THRESHOLD == 1.02

    def test_disabled_telemetry_is_inert(self):
        telemetry = disabled_telemetry()
        assert telemetry.enabled is False

    def test_trial_ratio_is_a_sane_positive_number(self, monkeypatch):
        # A host slowing down steadily: the n-th clock read is n**2, so
        # each timed chunk takes longer than the one before. Alternating
        # which variant leads cancels that drift exactly, which pins the
        # ratio at 1 without timing real lookups.
        reads = itertools.count(1)
        monkeypatch.setattr(
            perf_overhead, "time", SimpleNamespace(perf_counter=lambda: next(reads) ** 2)
        )
        overlay, pairs = _build_workload("chord", 32, 40)
        telemetry = disabled_telemetry()
        ratio = _trial_ratio(overlay, pairs, chunk=5, rounds=2, telemetry=telemetry)
        assert 1 / 3 < ratio < 3
        assert ratio == 1.0

    def test_measure_overlay_reports_sorted_ratios_and_median(self):
        report = _measure_overlay(
            "telemetry_overhead", "chord", n=48, lookups=100, trials=3, chunk=5, rounds=2
        )
        assert report["trials"] == 3
        assert len(report["ratios"]) == 3
        assert report["ratios"] == sorted(report["ratios"])
        assert report["min_ratio"] <= report["median_ratio"] <= report["max_ratio"]


class TestMutation:
    def test_leaky_disabled_path_is_caught_by_the_gate(self, monkeypatch):
        """If the disabled path secretly runs an enabled registry, the
        measured overhead must exceed the gate threshold."""
        monkeypatch.setattr(
            perf_overhead,
            "disabled_telemetry",
            lambda: RoundTelemetry(rounds=1, enabled=True),
        )
        report = _measure_overlay(
            "telemetry_overhead", "chord", n=64, lookups=150, trials=5, chunk=5, rounds=4
        )
        assert report["median_ratio"] >= OVERHEAD_THRESHOLD
