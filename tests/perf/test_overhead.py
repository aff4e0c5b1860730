"""Unit tests for the disabled-observer overhead bench (cheap pieces only;
the full gated measurement runs via ``repro bench`` in CI)."""

import pytest

from repro.obs.recorder import NullRecorder
from repro.perf.overhead import (
    OVERHEAD_THRESHOLD,
    SECTIONS,
    _build_workload,
    _measure_overlay,
    _trial_ratio,
)
from repro.util.errors import ConfigurationError


class TestWorkload:
    def test_deterministic_lookup_stream(self):
        overlay_a, pairs_a = _build_workload("chord", 32, 40)
        overlay_b, pairs_b = _build_workload("chord", 32, 40)
        assert pairs_a == pairs_b
        assert overlay_a.alive_ids() == overlay_b.alive_ids()

    def test_sources_are_alive_nodes(self):
        for overlay_name in ("pastry", "kademlia"):
            overlay, pairs = _build_workload(overlay_name, 32, 40)
            alive = set(overlay.alive_ids())
            assert all(source in alive for source, _ in pairs)


class TestTrialRatio:
    def test_ratio_is_a_sane_positive_number(self):
        overlay, pairs = _build_workload("chord", 32, 40)
        ratio = _trial_ratio(overlay, pairs, chunk=5, rounds=2, trace=NullRecorder())
        # One tiny trial is noisy, but a 3x swing would mean the variants
        # are not running the same workload at all.
        assert 1 / 3 < ratio < 3


class TestGate:
    def test_threshold_is_the_two_percent_claim(self):
        assert OVERHEAD_THRESHOLD == 1.02

    @pytest.mark.parametrize("section", SECTIONS)
    def test_every_section_measures_kademlia(self, section):
        report = _measure_overlay(section, "kademlia", n=24, lookups=20, trials=2, chunk=5, rounds=1)
        assert report["ratios"] == sorted(report["ratios"])
        assert 1 / 3 < report["median_ratio"] < 3

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="nosuch"):
            _measure_overlay("nosuch", "chord", n=8, lookups=5, trials=1, chunk=5, rounds=1)
