"""Kademlia network membership: build, join, crash/rejoin, maintenance.

The lookup and bucket mechanics live in test_lookup.py / test_kbuckets.py;
this file covers the network-level lifecycle — the protocol-faithful
``join_via`` in particular, whose bucket population comes from the join
lookup's surfaced contacts rather than the global view.
"""

import random

import pytest

from repro.kademlia.network import KademliaNetwork, optimal_policy
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace


def _network(n=32, bits=14, seed=7, **kwargs):
    return KademliaNetwork.build(n, space=IdSpace(bits), seed=seed, **kwargs)


class TestBuild:
    def test_default_space_is_160_bit(self):
        # The rejection-sampling path for spaces wider than ssize_t.
        network = KademliaNetwork.build(8, seed=3)
        assert network.space.bits == 160
        assert network.alive_count() == 8
        assert all(0 <= nid < network.space.size for nid in network.alive_ids())

    def test_rejects_overfull_space(self):
        with pytest.raises(ConfigurationError):
            KademliaNetwork.build(20, space=IdSpace(4))

    def test_responsible_is_xor_minimum(self):
        network = _network()
        ids = network.alive_ids()
        for key in (0, 17, network.space.size - 1):
            assert network.responsible(key) == min(ids, key=lambda nid: nid ^ key)

    def test_responsible_requires_live_nodes(self):
        network = KademliaNetwork(IdSpace(10))
        with pytest.raises(NodeAbsentError):
            network.responsible(5)


class TestAddNode:
    def test_out_of_space_id_rejected(self):
        network = _network(bits=10)
        with pytest.raises(ConfigurationError):
            network.add_node(network.space.size)

    def test_new_node_gets_ground_truth_core(self):
        network = _network()
        free = next(
            candidate
            for candidate in range(network.space.size)
            if candidate not in network.nodes
        )
        node = network.add_node(free)
        assert node.core == network.reference_core(free)


class TestJoinVia:
    def _free_id(self, network, seed=0):
        rng = random.Random(seed)
        while True:
            candidate = rng.randrange(network.space.size)
            if candidate not in network.nodes:
                return candidate

    def test_core_comes_from_the_join_lookup_surface(self):
        network = _network()
        newcomer = self._free_id(network)
        bootstrap = network.alive_ids()[0]
        node = network.join_via(newcomer, bootstrap)
        assert node.alive
        assert newcomer in network.alive_ids()
        # Contacts come from the join lookup's surface, so they are all
        # live and never include the newcomer itself.
        assert node.core
        assert all(network.nodes[contact].alive for contact in node.core)
        assert newcomer not in node.core
        # The lookup on the own id always reaches the XOR-closest
        # neighbours, so the newcomer knows its immediate vicinity.
        closest = min(
            (nid for nid in network.alive_ids() if nid != newcomer),
            key=lambda nid: nid ^ newcomer,
        )
        assert closest in node.core

    def test_joined_node_routes_and_is_found_after_stabilization(self):
        network = _network()
        newcomer = self._free_id(network, seed=1)
        network.join_via(newcomer, network.alive_ids()[-1])
        network.stabilize_all()
        # Others now know the newcomer: a lookup keyed on its id lands there.
        source = next(nid for nid in network.alive_ids() if nid != newcomer)
        result = network.find_node(source, newcomer)
        assert result.found[0] == newcomer
        assert result.timeouts == 0

    def test_crashed_node_can_rejoin_via_bootstrap_with_fresh_state(self):
        network = _network()
        victim = network.alive_ids()[5]
        network.nodes[victim].record_access(victim ^ 1)
        network.crash(victim)
        network.stabilize_all()
        node = network.join_via(victim, network.alive_ids()[0])
        assert node.alive and victim in network.alive_ids()
        assert all(network.nodes[contact].alive for contact in node.core)
        assert node.auxiliary == set()


class TestCrashAndRejoin:
    def test_recompute_at_dead_node_rejected(self):
        network = _network()
        victim = network.alive_ids()[0]
        network.crash(victim)
        with pytest.raises(NodeAbsentError):
            network.recompute_auxiliary(victim, 2, optimal_policy, random.Random(0))


class TestTelemetry:
    def test_spans_and_work_counters_recorded(self):
        from repro.telemetry.runtime import RoundTelemetry

        network = _network(n=16)
        telemetry = RoundTelemetry()
        network.attach_telemetry(telemetry)
        rng = random.Random(0)
        network.recompute_all_auxiliary(2, optimal_policy, rng)
        victim = network.alive_ids()[0]
        network.crash(victim)
        network.stabilize_all()
        spans = {
            family["labels"].get("span")
            for family in telemetry.registry.to_payload()
            if family["name"] == "repro_span_entries_total"
        }
        assert {"selection.recompute", "maintenance.stabilize"} <= spans
