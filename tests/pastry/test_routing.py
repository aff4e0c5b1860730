"""Unit tests for Pastry routing in both next-hop modes."""

import pytest

from repro.pastry.network import PastryNetwork
from repro.pastry.proximity import ProximityModel
from repro.pastry.routing import circular_distance
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace


class TestCircularDistance:
    def test_short_way_around(self):
        space = IdSpace(8)
        assert circular_distance(space, 0, 10) == 10
        assert circular_distance(space, 10, 0) == 10
        assert circular_distance(space, 0, 200) == 56
        assert circular_distance(space, 5, 5) == 0


class TestProximityModel:
    def test_deterministic(self):
        a = ProximityModel(seed=3)
        b = ProximityModel(seed=3)
        assert a.latency(1, 2) == b.latency(1, 2)

    def test_metric_properties(self):
        model = ProximityModel(seed=0)
        assert model.latency(5, 5) == 0.0
        assert model.latency(1, 2) == model.latency(2, 1)
        assert model.latency(1, 2) >= 0.0

    def test_closest(self):
        model = ProximityModel(seed=1)
        candidates = [10, 20, 30]
        best = model.closest(1, candidates)
        assert best in candidates
        assert all(model.latency(1, best) <= model.latency(1, c) for c in candidates)


@pytest.fixture(scope="module", params=["greedy", "proximity"])
def mode(request):
    return request.param


class TestStableLookups:
    @pytest.fixture(scope="class")
    def network(self, mode):
        return PastryNetwork.build(64, space=IdSpace(16), seed=9, mode=mode)

    def test_lookups_succeed_and_are_correct(self, network, mode):
        assert network.mode == mode
        ids = network.alive_ids()
        for key in range(0, 2**16, 1371):
            result = network.lookup(ids[0], key)
            assert result.succeeded
            assert result.destination == network.responsible(key)
            assert result.timeouts == 0

    def test_hop_bound(self, network, mode):
        ids = network.alive_ids()
        for source in ids[:8]:
            for key in range(0, 2**16, 4093):
                result = network.lookup(source, key)
                assert result.hops <= network.space.bits

    def test_own_key_zero_hops(self, network, mode):
        source = network.alive_ids()[0]
        result = network.lookup(source, source)
        assert result.succeeded
        assert result.hops == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="teleport"):
            PastryNetwork(IdSpace(16), mode="teleport")
        with pytest.raises(ConfigurationError, match="teleport"):
            PastryNetwork.build(8, space=IdSpace(12), seed=9, mode="teleport")

    def test_lookup_from_dead_node_raises(self):
        network = PastryNetwork.build(8, space=IdSpace(12), seed=10)
        victim = network.alive_ids()[0]
        network.crash(victim)
        with pytest.raises(NodeAbsentError):
            network.lookup(victim, 5)

    def test_greedy_never_slower_on_average(self):
        """Greedy maximizes per-hop prefix progress, so its mean hop count
        is no worse than proximity routing's on the same instance."""
        keys = list(range(0, 2**16, 911))
        hops = {}
        for mode in ("greedy", "proximity"):
            network = PastryNetwork.build(64, space=IdSpace(16), seed=11, mode=mode)
            source = network.alive_ids()[0]
            hops[mode] = sum(network.lookup(source, key, record_access=False).hops for key in keys)
        assert hops["greedy"] <= hops["proximity"]


class TestAuxiliaryShortcut:
    def test_direct_pointer_shortens_lookup(self, mode):
        network = PastryNetwork.build(64, space=IdSpace(16), seed=12, mode=mode)
        ids = network.alive_ids()
        source = ids[0]
        node = network.node(source)
        # The farthest (by prefix) non-neighbor peer.
        destination = next(
            peer
            for peer in sorted(ids[1:], key=lambda i: -network.space.pastry_distance(source, i))
            if peer not in node.neighbor_ids()
        )
        baseline = network.lookup(source, destination, record_access=False).hops
        node.set_auxiliary({destination})
        direct = network.lookup(source, destination, record_access=False).hops
        assert direct == 1
        assert direct <= baseline


class TestChurnLookups:
    def test_self_heals_after_crashes(self, mode):
        network = PastryNetwork.build(64, space=IdSpace(16), seed=13, mode=mode)
        ids = network.alive_ids()
        for victim in ids[::4]:
            network.crash(victim)
        survivors = network.alive_ids()
        outcomes = [
            network.lookup(survivors[i % len(survivors)], key)
            for i, key in enumerate(range(0, 2**16, 911))
        ]
        success_rate = sum(r.succeeded for r in outcomes) / len(outcomes)
        assert success_rate > 0.8
        network.stabilize_all()
        for key in range(0, 2**16, 911):
            result = network.lookup(survivors[0], key)
            assert result.succeeded
            assert result.timeouts == 0

    def test_record_access_feeds_tracker(self):
        network = PastryNetwork.build(16, space=IdSpace(12), seed=14)
        source = network.alive_ids()[0]
        key = (source + 1000) % 2**12
        destination = network.responsible(key)
        network.lookup(source, key)
        if destination != source:
            assert network.node(source).tracker.frequency(destination) == 1.0


class TestLeafCoverageRegressions:
    """Regressions for the sided [L_min, L_max] leaf-coverage test.

    Hypothesis found a routing livelock in tiny networks: with every other
    node on one side of the current node, a shorter-side arc heuristic
    declared far keys uncovered and the query ping-ponged between a cell
    hop and the numerically-closer fallback forever.
    """

    def test_four_node_ring_key_in_the_void(self):
        # Nodes 2391/3710/16038/16250 in a 14-bit space; key 9668 falls in
        # the huge empty region and belongs to 3710.
        for mode in ("greedy", "proximity"):
            network = PastryNetwork(IdSpace(14), mode=mode)
            for node_id in [2391, 3710, 16038, 16250]:
                network.add_node(node_id)
            network.stabilize_all()
            result = network.lookup(16250, 9668, record_access=False)
            assert result.succeeded
            assert result.destination == network.responsible(9668) == 3710
            assert result.hops <= 3

    def test_exactly_full_leafset_boundary(self):
        """n - 1 == 2 * leaf_radius: the node knows everyone but its leaf
        set looks 'full'; the sided arc must still wrap far enough."""
        network = PastryNetwork.build(17, space=IdSpace(14), seed=1)
        import random as _random

        rng = _random.Random(1)
        ids = network.alive_ids()
        for __ in range(40):
            source = ids[rng.randrange(len(ids))]
            key = rng.randrange(2**14)
            result = network.lookup(source, key, record_access=False)
            assert result.succeeded
            assert result.destination == network.responsible(key)

    def test_all_small_network_sizes_route_correctly(self):
        import random as _random

        for n in range(2, 20):
            network = PastryNetwork.build(n, space=IdSpace(14), seed=n)
            rng = _random.Random(n)
            ids = network.alive_ids()
            for __ in range(10):
                source = ids[rng.randrange(len(ids))]
                key = rng.randrange(2**14)
                result = network.lookup(source, key, record_access=False)
                assert result.succeeded, f"n={n} source={source} key={key}"
