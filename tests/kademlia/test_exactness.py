"""The Kademlia object path's fast rules equal the rules they replace.

* :func:`repro.kademlia.routing.next_hop` walks one distance class per
  step; the full scan over every core and auxiliary contact stays here,
  as the oracle it must equal under all four ``auxiliary``/``skip_dead``
  combinations.
* ``KademliaNetwork._bucket_core`` reads the ``bucket_size`` highest
  live ids of each distance class off the sorted live ids; a
  :class:`~repro.kademlia.node.RoutingTable` fed the live ids in
  ascending order is the oracle.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kademlia.network import KademliaNetwork
from repro.kademlia.node import RoutingTable
from repro.kademlia.routing import next_hop
from repro.util.ids import IdSpace

_FLAGS = [(auxiliary, skip_dead) for auxiliary in (True, False) for skip_dead in (True, False)]


def full_scan_next_hop(network, node, key, auxiliary=True, skip_dead=False):
    """The strictly XOR-closest eligible contact over the whole table."""
    best = None
    best_distance = node.node_id ^ key
    for plane in (node.core, node.auxiliary) if auxiliary else (node.core,):
        for neighbor in plane:
            distance = neighbor ^ key
            if distance < best_distance and (not skip_dead or network.node(neighbor).alive):
                best = neighbor
                best_distance = distance
    return None if best is None else (best, None)


def _mask_of(node):
    top = node.space.bits - 1
    return sum(1 << (top - prefix) for prefix in node.classes)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(8, 20),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
    dead_share=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_class_walk_equals_full_scan(bits, n, seed, dead_share):
    rng = random.Random(seed)
    network = KademliaNetwork(IdSpace(bits))
    for node_id in network.space.sample(rng, n):
        network.add_node(node_id)
    ids = network.alive_ids()
    # Random tables, not bucket cores: any core and auxiliary set.
    for node_id in ids:
        others = [other for other in ids if other != node_id]
        node = network.node(node_id)
        node.set_core(set(rng.sample(others, rng.randint(0, len(others)))))
        node.set_auxiliary(set(rng.sample(others, rng.randint(0, min(6, len(others))))))
    for victim in rng.sample(ids, int(dead_share * (n - 1))):
        network.crash(victim)
    for node_id in network.alive_ids():
        node = network.node(node_id)
        assert node.class_mask == _mask_of(node)
        empty = [h for h in range(bits) if not node.class_mask >> h & 1]
        keys = [node_id, *(rng.randrange(network.space.size) for __ in range(6))]
        # Keys whose own distance class at the node holds no contact.
        for h in rng.sample(empty, min(3, len(empty))):
            keys.append(node_id ^ (1 << h) ^ rng.randrange(1 << h))
        for key in keys:
            for auxiliary, skip_dead in _FLAGS:
                assert next_hop(network, node, key, auxiliary, skip_dead) == full_scan_next_hop(
                    network, node, key, auxiliary, skip_dead
                ), (node_id, key, auxiliary, skip_dead)


def test_class_mask_tracks_evictions_and_crash():
    network = KademliaNetwork.build(24, space=IdSpace(12), seed=3)
    ids = network.alive_ids()
    node = network.node(ids[0])
    node.set_auxiliary(set(ids[5:9]))
    for contact in sorted(node.neighbor_ids()):
        node.evict(contact)
        assert node.class_mask == _mask_of(node)
    assert node.class_mask == 0 and next_hop(network, node, ids[1]) is None
    network.stabilize(ids[0])
    assert node.class_mask == _mask_of(node) != 0
    network.crash(ids[0])
    assert node.class_mask == 0 and node.classes == {}


@settings(max_examples=80, deadline=None)
@given(
    bits=st.integers(1, 16),
    n=st.integers(1, 60),
    bucket_size=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
@example(bits=8, n=1, bucket_size=1, seed=0)  # a lone node keeps no contact
@example(bits=12, n=60, bucket_size=1, seed=1)
def test_bucket_core_equals_ascending_fed_tree(bits, n, bucket_size, seed):
    space = IdSpace(bits)
    network = KademliaNetwork(space, bucket_size=bucket_size)
    for node_id in space.sample(random.Random(seed), min(n, space.size)):
        network.add_node(node_id)
    alive = network.alive_ids()
    for node_id in alive:
        table = RoutingTable(node_id, space, bucket_size)
        for other in alive:
            table.insert(other)
        assert network._bucket_core(node_id) == set(table.contacts())
        assert network.reference_core(node_id) == frozenset(table.contacts())


def test_stale_class_mask_trips_table_coherence():
    from repro.verify.invariants import check_kademlia_state

    network = KademliaNetwork.build(16, space=IdSpace(10), seed=2)
    assert check_kademlia_state(network) == []
    network.node(network.alive_ids()[0]).class_mask ^= 1
    assert any("class mask" in message for message in check_kademlia_state(network))
