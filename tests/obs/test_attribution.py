"""Unit and property tests for the cache attribution plane.

The load-bearing claims pinned here:

* the oblivious walker *is* the real router on an auxiliary-free
  overlay — hop for hop, on all three overlays — so "credit" really
  measures the marginal value of cached pointers and nothing else;
* credits telescope, so the conservation law holds exactly (integer
  arithmetic, no tolerance) with and without auxiliary pointers;
* a disabled recorder perturbs nothing: routing results are identical
  to ``trace=None`` and the recorder stays empty;
* :func:`~repro.core.budget.measured_loads`, which turns a recorder's
  per-node query counts into loads, is a valid
  :class:`~repro.core.budget.CostCurve` input by construction: strictly
  positive, mean exactly one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import measured_loads
from repro.obs.attribution import (
    AttributionRecorder,
    PointerStats,
    _credit,
    oblivious_route_length,
)
from repro.obs.recorder import HopEvent, TeeRecorder
from repro.sim.runner import OVERLAYS

KINDS = list(OVERLAYS)


class FakeResult:
    def __init__(self, key=1, source=0, destination=9, succeeded=True, hops=0):
        self.key = key
        self.source = source
        self.destination = destination
        self.succeeded = succeeded
        self.hops = hops
        self.timeouts = 0
        self.penalty = 0.0


def run_lookups(overlay, count=200, sources=6, trace=None, seed=11):
    import random

    rng = random.Random(seed)
    ids = overlay.alive_ids()
    results = []
    for _ in range(count):
        source = ids[rng.randrange(min(sources, len(ids)))]
        key = rng.randrange(overlay.space.size)
        results.append(overlay.lookup(source, key, record_access=False, trace=trace))
    return results


class TestCredit:
    def test_shortcut_hop_earns_the_gap(self):
        assert _credit(5, 2) == 2

    def test_core_plane_hop_earns_zero(self):
        # The oblivious route takes the identical hop: R drops by one.
        assert _credit(3, 2) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 64), min_size=2, max_size=12))
    def test_credits_telescope(self, lengths):
        credits = [_credit(a, b) for a, b in zip(lengths, lengths[1:])]
        assert sum(credits) == lengths[0] - lengths[-1] - (len(lengths) - 1)


class TestConstruction:
    def test_disabled_recorder_reports_disabled(self, small_universe):
        recorder = AttributionRecorder(
            "chord", small_universe("chord", n=8), enabled=False
        )
        assert recorder.enabled is False


class TestTeeRecorder:
    class Sink:
        def __init__(self, enabled=True):
            self.enabled = enabled
            self.seen = []

        def record_lookup(self, result, events):
            self.seen.append(result.key)

    def test_fans_out_to_every_enabled_member(self):
        a, b = self.Sink(), self.Sink()
        tee = TeeRecorder(a, b)
        assert tee.enabled is True
        tee.record_lookup(FakeResult(key=7), [])
        assert a.seen == [7] and b.seen == [7]

    def test_drops_none_and_disabled_members(self):
        live, dead = self.Sink(), self.Sink(enabled=False)
        tee = TeeRecorder(None, dead, live)
        assert tee.recorders == (live,)
        tee.record_lookup(FakeResult(key=3), [])
        assert live.seen == [3] and dead.seen == []

    def test_all_disabled_tee_normalizes_away(self):
        assert TeeRecorder(None, self.Sink(enabled=False)).enabled is False


class TestObliviousWalk:
    @pytest.mark.parametrize("kind", KINDS)
    def test_key_at_source_is_terminal(self, small_universe, kind):
        overlay = small_universe(kind, n=16)
        source = overlay.alive_ids()[0]
        assert oblivious_route_length(overlay, source, source) == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_real_router_without_auxiliary(self, small_universe, kind):
        """On a fresh overlay the masked walk and the real route are the
        same walk, so R(source) == observed hops — the zero point the
        credit ledger is calibrated against. Pastry's walk follows the
        network's own routing mode, greedy as well as the default."""
        import random

        overlays = [small_universe(kind, n=32)]
        if kind == "pastry":
            overlays.append(small_universe(kind, n=32, mode="greedy"))
        hops = []
        for overlay in overlays:
            ids = overlay.alive_ids()
            rng = random.Random(1)
            hops.append([])
            for _ in range(150):
                source = rng.choice(ids)
                key = rng.randrange(overlay.space.size)
                result = overlay.lookup(source, key, record_access=False)
                assert oblivious_route_length(overlay, source, key) == result.hops
                hops[-1].append(result.hops)
        # The two modes take different routes, so matching both is real.
        assert len(hops) == 1 or hops[0] != hops[1]

    def test_memo_is_consistent_with_fresh_walks(self, small_universe):
        """Suffix memoization must be an optimization, not an answer
        change: a shared memo returns the same lengths as fresh walks."""
        import random

        from repro.obs.attribution import _ObliviousWalker

        overlay = small_universe("chord", n=24)
        walker = _ObliviousWalker(overlay)
        ids = overlay.alive_ids()
        rng = random.Random(5)
        for _ in range(30):
            key = rng.randrange(overlay.space.size)
            memo = {}
            shared = {node: walker.route_length(node, key, memo) for node in ids}
            fresh = {node: walker.route_length(node, key, {}) for node in ids}
            assert shared == fresh


class TestConservation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_with_zero_credit_on_fresh_overlay(self, small_universe, kind):
        overlay = small_universe(kind, n=32)
        recorder = AttributionRecorder(kind, overlay)
        run_lookups(overlay, trace=recorder)
        ledger = recorder.conservation()
        assert ledger["exact"] is True
        assert ledger["failures"] == []
        # No auxiliary pointers installed -> nothing to credit.
        assert ledger["credited"] == 0
        assert ledger["attributed"] + ledger["unattributed"] == ledger["lookups"]
        for stats in recorder.by_pointer.values():
            assert 0 <= stats.hits <= stats.uses
            assert 0 <= stats.stale_uses <= stats.uses

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_with_positive_credit_under_auxiliary(self, small_universe, kind):
        """Hand-install shortcut pointers and the ledger must stay exact
        while the auxiliary class earns strictly positive credit."""
        import random

        overlay = small_universe(kind, n=32)
        rng = random.Random(2)
        ids = overlay.alive_ids()
        for node_id in ids:
            overlay.node(node_id).set_auxiliary(set(rng.sample(ids, 6)))
        recorder = AttributionRecorder(kind, overlay)
        run_lookups(overlay, count=300, trace=recorder)
        ledger = recorder.conservation()
        assert ledger["exact"] is True
        assert ledger["failures"] == []
        classes = recorder.class_totals()
        assert classes["auxiliary"].credited > 0
        assert classes["auxiliary"].hits > 0

    def test_exact_under_churn_evictions(self, small_universe):
        """Crashing nodes mid-stream exercises stale pointers, retries
        and evictions; the per-lookup law must survive all of it because
        R is computed against the live tables."""
        overlay = small_universe("chord", n=32)
        import random

        rng = random.Random(3)
        ids = overlay.alive_ids()
        for node_id in ids:
            overlay.node(node_id).set_auxiliary(set(rng.sample(ids, 6)))
        for victim in ids[-6:]:
            overlay.crash(victim)
        recorder = AttributionRecorder("chord", overlay)
        run_lookups(overlay, count=300, trace=recorder)
        ledger = recorder.conservation()
        assert ledger["exact"] is True
        stale = sum(s.stale_uses for s in recorder.class_totals().values())
        assert stale > 0  # the probe actually saw staleness


class TestDisabledIdentity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_routing_identical_and_recorder_untouched(self, small_universe, kind):
        fields = lambda r: (r.hops, r.timeouts, r.penalty, r.path, r.succeeded)
        bare = [fields(r) for r in run_lookups(small_universe(kind, n=24))]
        overlay = small_universe(kind, n=24)
        recorder = AttributionRecorder(kind, overlay, enabled=False)
        traced = [fields(r) for r in run_lookups(overlay, trace=recorder)]
        assert bare == traced
        assert recorder.totals.lookups == 0
        assert recorder.by_node_class == {}

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_identity_holds_for_any_seed(self, seed):
        from repro.chord.ring import ChordRing
        from repro.util.ids import IdSpace

        def routes(trace):
            overlay = ChordRing.build(16, space=IdSpace(12), seed=seed)
            return [
                (r.hops, r.path, r.succeeded)
                for r in run_lookups(overlay, count=40, trace=trace, seed=seed)
            ]

        disabled = AttributionRecorder(
            "chord",
            ChordRing.build(16, space=IdSpace(12), seed=seed),
            enabled=False,
        )
        assert routes(None) == routes(disabled)


class TestMeasuredLoads:
    def test_empty_recorder_yields_empty(self):
        assert measured_loads({}) == {}

    def test_uniform_counts_yield_unit_loads(self):
        assert measured_loads({1: 5, 2: 5, 3: 5}) == {1: 1.0, 2: 1.0, 3: 1.0}

    def test_skew_orders_loads_and_unqueried_stay_positive(self):
        loads = measured_loads({1: 30, 2: 3}, [1, 2, 3])
        assert loads[1] > loads[2] > loads[3] > 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(0, 63), st.integers(0, 30), min_size=1, max_size=12
        )
    )
    def test_loads_are_positive_with_mean_one(self, counts):
        loads = measured_loads(counts, sorted(counts))
        assert all(load > 0.0 for load in loads.values())
        assert sum(loads.values()) / len(loads) == pytest.approx(1.0)


class TestExports:
    def aux_recorder(self, small_universe, kind="chord", seed=2):
        import random

        overlay = small_universe(kind, n=32)
        rng = random.Random(seed)
        ids = overlay.alive_ids()
        for node_id in ids:
            overlay.node(node_id).set_auxiliary(set(rng.sample(ids, 4)))
        quotas = {node_id: 4 for node_id in ids}
        recorder = AttributionRecorder(kind, overlay, quotas=quotas)
        run_lookups(overlay, count=250, trace=recorder)
        return recorder

    def test_top_pointers_deterministic_and_bounded(self, small_universe):
        first = self.aux_recorder(small_universe).top_pointers(5)
        second = self.aux_recorder(small_universe).top_pointers(5)
        assert first == second
        assert len(first) == 5
        credited = [entry["credited"] for entry in first]
        assert credited == sorted(credited, reverse=True)

    def test_quota_utilization_shape(self, small_universe):
        recorder = self.aux_recorder(small_universe)
        utilization = recorder.quota_utilization()
        assert set(utilization) == set(recorder.overlay.alive_ids())
        for entry in utilization.values():
            assert entry["quota"] == 4
            assert 0 <= entry["hit"] <= entry["installed"]
            assert entry["utilization"] == entry["installed"] / entry["quota"]

    def test_to_dict_is_json_clean_and_stable(self, small_universe):
        import json

        document = self.aux_recorder(small_universe).to_dict()
        assert document["overlay"] == "chord"
        assert json.dumps(document, sort_keys=True, allow_nan=False)
        again = self.aux_recorder(small_universe).to_dict()
        assert document == again

    def test_class_totals_cover_pointer_buckets(self, small_universe):
        recorder = self.aux_recorder(small_universe)
        by_class = {name: PointerStats() for name in recorder.class_totals()}
        for (__, ___, pointer_class), stats in recorder.by_pointer.items():
            by_class[pointer_class].merge(stats)
        assert {
            name: stats.to_dict() for name, stats in by_class.items()
        } == {
            name: stats.to_dict() for name, stats in recorder.class_totals().items()
        }
