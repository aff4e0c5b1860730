"""Unit tests for Chord ring membership, fingers and auxiliary policies."""

import random

import pytest

from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing, oblivious_policy, optimal_policy
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace


class TestBuild:
    def test_build_places_n_distinct_nodes(self):
        ring = ChordRing.build(32, space=IdSpace(16), seed=0)
        assert ring.alive_count() == 32
        assert len(set(ring.alive_ids())) == 32

    def test_build_rejects_overfull_space(self):
        with pytest.raises(ConfigurationError):
            ChordRing.build(20, space=IdSpace(4))


class TestResponsibility:
    def test_key_assigned_to_predecessor(self):
        ring = ChordRing(IdSpace(8))
        for node_id in [10, 100, 200]:
            ring.add_node(node_id)
        assert ring.responsible(10) == 10  # exact hit: "equal to k"
        assert ring.responsible(50) == 10
        assert ring.responsible(150) == 100
        assert ring.responsible(250) == 200
        assert ring.responsible(5) == 200  # wraps around

    def test_empty_ring_raises(self):
        with pytest.raises(NodeAbsentError):
            ChordRing(IdSpace(8)).responsible(5)


class TestFingers:
    def test_paper_variant_fingers(self):
        """The i-th neighbor is the first node in [x + 2^i, x + 2^(i+1))."""
        ring = ChordRing(IdSpace(8))
        for node_id in [0, 3, 5, 9, 17, 33, 100, 200]:
            ring.add_node(node_id)
        ring.stabilize_all()
        node = ring.node(0)
        # Interval [1,2): empty; [2,4): 3; [4,8): 5; [8,16): 9; [16,32): 17;
        # [32,64): 33; [64,128): 100; [128,256): 200.
        assert node.core == {3, 5, 9, 17, 33, 100, 200}

    def test_successor_list(self):
        ring = ChordRing(IdSpace(8), successor_list_size=3)
        for node_id in [0, 3, 5, 9, 17]:
            ring.add_node(node_id)
        ring.stabilize_all()
        assert ring.node(0).successors == [3, 5, 9]

    def test_single_node_has_no_neighbors(self):
        ring = ChordRing(IdSpace(8))
        ring.add_node(42)
        ring.stabilize_all()
        assert ring.node(42).neighbor_ids() == set()


class TestSuccessorLiveness:
    """Regression: a crash burst at the top of the ring must not leave
    crashed ids in the walkers' successor answers (``_successor_of``)."""

    def make_burst_ring(self):
        # Node 100 only knows the three highest nodes (successor list
        # [200, 220, 240], fingers {200, 240}); crashing all of them wipes
        # its entire view.
        ring = ChordRing(IdSpace(8), successor_list_size=3)
        for node_id in [0, 100, 200, 220, 240]:
            ring.add_node(node_id)
        ring.stabilize_all()
        for victim in (200, 220, 240):
            ring.crash(victim)
        return ring

    def test_skips_crashed_entries_and_wraps_to_first_live(self):
        ring = self.make_burst_ring()
        node = ring.node(100)
        assert all(not ring.node(s).alive for s in node.successors)  # stale view
        successor = ring._successor_of(node, ring.space.add(100, 1))
        # The old code returned 200 (crashed); failover must wrap past the
        # burst to the first live node, 0.
        assert successor == 0

    def test_refresh_after_burst_installs_only_live_successors(self):
        ring = self.make_burst_ring()
        ring.refresh_via(100)
        node = ring.node(100)
        assert node.successors == [0]
        assert all(ring.node(s).alive for s in node.successors)

    def test_lookup_fails_over_after_refresh(self):
        ring = self.make_burst_ring()
        ring.refresh_via(100)
        result = ring.lookup(100, 5, record_access=False)
        assert result.succeeded
        assert result.destination == 0

    def test_all_other_nodes_dead_returns_none(self):
        ring = ChordRing(IdSpace(8), successor_list_size=2)
        for node_id in [0, 100, 200]:
            ring.add_node(node_id)
        ring.stabilize_all()
        ring.crash(0)
        ring.crash(200)
        assert ring._successor_of(ring.node(100), 101) is None


class TestAuxiliaryPolicies:
    def test_optimal_policy_installs_hot_peer(self):
        ring = ChordRing.build(32, space=IdSpace(16), seed=5)
        ids = ring.alive_ids()
        source = ids[0]
        node = ring.node(source)
        core_like = node.core | set(node.successors)
        hot = next(
            peer
            for peer in sorted(ids[1:], key=lambda i: -ring.space.gap(source, i))
            if peer not in core_like
        )
        ring.seed_frequencies(source, {hot: 100.0})
        result = ring.recompute_auxiliary(source, k=1, policy=optimal_policy, rng=random.Random(0))
        assert result.auxiliary == {hot}
        assert node.auxiliary == {hot}

    def test_oblivious_policy_spends_budget(self):
        ring = ChordRing.build(64, space=IdSpace(16), seed=6)
        source = ring.alive_ids()[0]
        frequencies = {peer: 1.0 for peer in ring.alive_ids()[1:33]}
        ring.seed_frequencies(source, frequencies)
        result = ring.recompute_auxiliary(source, k=6, policy=oblivious_policy, rng=random.Random(0))
        assert len(result.auxiliary) == 6

    def test_optimal_beats_oblivious_cost(self):
        ring = ChordRing.build(64, space=IdSpace(16), seed=7)
        source = ring.alive_ids()[0]
        rng = random.Random(1)
        frequencies = {peer: float(rng.randint(1, 50)) for peer in ring.alive_ids()[1:40]}
        ring.seed_frequencies(source, frequencies)
        optimal = ring.recompute_auxiliary(source, k=4, policy=optimal_policy, rng=random.Random(2))
        oblivious = ring.recompute_auxiliary(source, k=4, policy=oblivious_policy, rng=random.Random(2))
        assert optimal.cost <= oblivious.cost

    def test_auxiliary_used_in_routing(self):
        """An auxiliary pointer at the destination makes the lookup 1 hop."""
        ring = ChordRing.build(64, space=IdSpace(16), seed=8)
        ids = ring.alive_ids()
        source = ids[0]
        destination = max(ids, key=lambda i: ring.space.gap(source, i))
        without = ring.lookup(source, destination, record_access=False).hops
        ring.node(source).set_auxiliary({destination})
        with_aux = ring.lookup(source, destination, record_access=False).hops
        assert with_aux == 1
        assert with_aux <= without


class TestNodeUnit:
    def test_evict(self):
        space = IdSpace(8)
        node = ChordNode(0, space)
        node.core = {5, 9}
        node.successors = [5]
        node.auxiliary = {9, 20}
        node._rebuild_table()
        node.evict(9)
        assert 9 not in node.neighbor_ids()
        assert node.table.next_hop(9) == 5

    def test_record_access_ignores_self(self):
        node = ChordNode(3, IdSpace(8))
        node.record_access(3)
        assert node.frequency_snapshot() == {}

    def test_frequency_snapshot_limit(self):
        node = ChordNode(0, IdSpace(8))
        for peer, count in [(1, 5), (2, 3), (3, 1)]:
            for __ in range(count):
                node.record_access(peer)
        assert set(node.frequency_snapshot(limit=2)) == {1, 2}
