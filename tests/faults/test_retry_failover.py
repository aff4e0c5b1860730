"""Routing under faults: retry accounting, failover, bit-compatibility.

The contract being defended: with no retry policy and no fault plane the
routing layer must behave *bit for bit* like the pre-fault code, and with
them the lookup must degrade gracefully — retries are charged as hop
penalties, exhausted neighbors are evicted, and the successor-list /
leaf-set redundancy routes around the hole.
"""

import random

import pytest

from repro.faults import FaultPlane, FaultSchedule, RetryPolicy
from repro.routing import LookupResult


def all_lookups(overlay, is_chord, **kwargs):
    """Lookups from every node to the first eight node ids (both overlays
    take the same keyword surface; Pastry defaults to proximity mode)."""
    del is_chord  # same call shape either way; kept for test readability
    ids = overlay.alive_ids()
    results = []
    for source in ids:
        for key in ids[:8]:
            if key != source:
                results.append(overlay.lookup(source, key, record_access=False, **kwargs))
    return results


class TestLatencyAccounting:
    def test_penalty_free_latency_stays_integral(self):
        result = LookupResult(key=1, source=2, destination=3, hops=4, timeouts=2)
        assert result.latency == 6
        assert isinstance(result.latency, int)

    def test_penalty_adds_to_latency(self):
        result = LookupResult(key=1, source=2, destination=3, hops=4, timeouts=3, penalty=4.0)
        # 3 timeouts cost 3 baseline + 4.0 extra backoff.
        assert result.latency == pytest.approx(11.0)


class TestBitCompatibility:
    @pytest.mark.parametrize("is_chord", [True, False])
    def test_explicit_single_policy_matches_default(self, is_chord, small_universe):
        kind = "chord" if is_chord else "pastry"
        before = all_lookups(small_universe(kind), is_chord)
        after = all_lookups(small_universe(kind), is_chord, retry=RetryPolicy.single())
        assert [(r.hops, r.timeouts, r.path) for r in before] == [
            (r.hops, r.timeouts, r.path) for r in after
        ]
        assert all(r.penalty == 0.0 for r in after)

    @pytest.mark.parametrize("is_chord", [True, False])
    def test_lossless_plane_matches_no_plane(self, is_chord, small_universe):
        kind = "chord" if is_chord else "pastry"
        plane = FaultPlane(FaultSchedule(), random.Random(0))
        before = all_lookups(small_universe(kind), is_chord)
        after = all_lookups(small_universe(kind), is_chord, faults=plane)
        assert [(r.hops, r.timeouts, r.path) for r in before] == [
            (r.hops, r.timeouts, r.path) for r in after
        ]


class TestRetryUnderLoss:
    @pytest.mark.parametrize("is_chord", [True, False])
    def test_robust_retry_keeps_lookups_succeeding(self, is_chord, small_universe):
        overlay = small_universe("chord" if is_chord else "pastry")
        plane = FaultPlane(FaultSchedule(loss_rate=0.1), random.Random(5))
        results = all_lookups(overlay, is_chord, retry=RetryPolicy.robust(), faults=plane)
        assert plane.dropped > 0
        success_rate = sum(r.succeeded for r in results) / len(results)
        assert success_rate > 0.99
        # Backoff penalties only appear on lookups that actually timed out.
        for r in results:
            assert r.penalty >= 0.0
            assert (r.penalty == 0.0) or (r.timeouts > 0)
            assert r.latency >= r.hops + r.timeouts

    def test_retry_drops_fewer_live_neighbors_than_single(self, small_universe):
        """The point of retrying: under pure message loss (all nodes live)
        the single-attempt policy evicts healthy neighbors on every drop;
        the robust policy retries through, keeping timeout counts at the
        same order but never severing live links permanently."""
        schedule = FaultSchedule(loss_rate=0.15)
        single_overlay = small_universe("chord", seed=6)
        single_results = all_lookups(
            single_overlay,
            True,
            retry=RetryPolicy.single(),
            faults=FaultPlane(schedule, random.Random(9)),
        )
        robust_overlay = small_universe("chord", seed=6)
        robust_results = all_lookups(
            robust_overlay,
            True,
            retry=RetryPolicy.robust(),
            faults=FaultPlane(schedule, random.Random(9)),
        )
        evicted_single = sum(
            len(single_overlay.node(i).table) for i in single_overlay.alive_ids()
        )
        evicted_robust = sum(
            len(robust_overlay.node(i).table) for i in robust_overlay.alive_ids()
        )
        # Robust tables keep (weakly) more entries: retries resolve drops.
        assert evicted_robust >= evicted_single
        assert all(r.succeeded for r in robust_results)
        assert single_results  # both universes actually routed


class TestFailover:
    def test_chord_routes_around_a_crashed_hop(self, small_universe):
        ring = small_universe("chord", n=48, seed=11)
        ids = ring.alive_ids()
        # Find a lookup that transits an intermediate node.
        probe = None
        for source in ids:
            for key in ids:
                if key == source:
                    continue
                result = ring.lookup(source, key, record_access=False)
                if result.succeeded and len(result.path) >= 3:
                    probe = (source, key, result.path[1])
                    break
            if probe:
                break
        assert probe is not None
        source, key, intermediate = probe
        ring.crash(intermediate)
        rerouted = ring.lookup(source, key, record_access=False, retry=RetryPolicy.robust())
        assert rerouted.succeeded
        assert intermediate not in rerouted.path
        assert rerouted.timeouts >= 1  # paid for discovering the corpse

    def test_exhausted_neighbor_is_evicted(self, small_universe):
        ring = small_universe("chord", n=24, seed=2)
        source = ring.alive_ids()[0]
        # Any table entry works as the victim: keying the lookup on the
        # victim id itself makes it the forced first hop.
        victim = ring.node(source).table.entries()[-1]
        ring.crash(victim)
        assert victim in ring.node(source).table.entries()
        ring.lookup(source, victim, record_access=False, retry=RetryPolicy.robust())
        assert victim not in ring.node(source).table.entries()


class TestPartitionedRouting:
    def test_partition_blocks_cross_cut_forwards(self, small_universe):
        ring = small_universe("chord", n=32, seed=8)
        plane = FaultPlane(FaultSchedule(partition_fraction=0.4), random.Random(1))
        plane.start_partition(ring.alive_ids())
        all_lookups(ring, True, faults=plane)
        assert plane.blocked > 0
