"""Unit tests for the path-compressed peer trie."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trie import PeerTrie
from repro.util.errors import ConfigurationError, IdSpaceError
from repro.util.ids import IdSpace


def build(bits=8, entries=()):
    trie = PeerTrie(IdSpace(bits))
    for peer, freq in entries:
        trie.insert(peer, freq)
    return trie


def insert_one(bits, peer, frequency):
    PeerTrie(IdSpace(bits)).insert(peer, frequency)


def build_one_pass(bits, peer, frequency):
    PeerTrie.from_entries(IdSpace(bits), {peer: (frequency, False)})


CONSTRUCTION_ROUTES = pytest.mark.parametrize(
    "construct", [insert_one, build_one_pass], ids=["insert", "one-pass"]
)


VERTEX_FIELDS = (
    "depth", "prefix", "peer", "frequency", "is_core", "required",
    "frequency_sum", "has_core", "eligible_count",
)


def assert_same_trie(actual, expected):
    """Vertex-by-vertex equality from the roots down: every field exact
    (``==``, not approx), the same child bits, parent links and leaf index."""
    assert len(actual) == len(expected)
    pending = [(actual.root, expected.root)]
    while pending:
        mine, theirs = pending.pop()
        assert [getattr(mine, name) for name in VERTEX_FIELDS] == [
            getattr(theirs, name) for name in VERTEX_FIELDS
        ]
        assert sorted(mine.children) == sorted(theirs.children)
        if mine.is_leaf:
            assert actual.leaf(mine.peer) is mine
        for bit, child in mine.children.items():
            assert child.parent is mine
            pending.append((child, theirs.children[bit]))


def check_invariants(trie):
    """Structural invariants of a compressed binary trie."""
    space = trie.space
    seen_leaves = []
    for vertex in trie.postorder():
        if vertex.is_leaf:
            assert vertex.depth == space.bits
            assert vertex.prefix == vertex.peer
            seen_leaves.append(vertex.peer)
        else:
            if vertex is not trie.root:
                # Path compression: internal non-root vertices branch.
                assert len(vertex.children) == 2
            for bit, child in vertex.children.items():
                assert child.parent is vertex
                assert child.depth > vertex.depth
                # The child's prefix extends the parent's and starts with `bit`.
                assert child.prefix >> (child.depth - vertex.depth) == vertex.prefix
                assert child.bit_within_prefix(vertex.depth) == bit
        # Aggregates match a recomputation from scratch.
        freq = vertex.frequency_sum
        vertex.refresh_aggregates()
        if not vertex.is_leaf:
            assert vertex.frequency_sum == pytest.approx(freq)
    assert sorted(seen_leaves) == sorted(leaf.peer for leaf in trie.leaves())
    return seen_leaves


class TestInsert:
    def test_single_insert(self):
        trie = build(entries=[(5, 2.0)])
        assert 5 in trie
        assert len(trie) == 1
        assert trie.leaf(5).frequency == 2.0
        check_invariants(trie)

    def test_split_creates_branch(self):
        trie = build(entries=[(0b10110000, 1.0), (0b10100000, 1.0)])
        check_invariants(trie)
        # Lowest common ancestor sits at the first differing bit (depth 3).
        leaf = trie.leaf(0b10110000)
        assert leaf.parent.depth == 3

    def test_reinsert_updates_payload(self):
        trie = build(entries=[(5, 2.0)])
        trie.insert(5, 7.0)
        assert trie.leaf(5).frequency == 7.0
        assert len(trie) == 1

    def test_core_flag_is_sticky(self):
        trie = build()
        trie.insert(5, 1.0, is_core=True)
        trie.insert(5, 3.0)
        assert trie.leaf(5).is_core

    @CONSTRUCTION_ROUTES
    def test_rejects_negative_frequency(self, construct):
        with pytest.raises(ConfigurationError, match="non-negative"):
            construct(8, 5, -1.0)

    @CONSTRUCTION_ROUTES
    def test_rejects_out_of_range_id(self, construct):
        with pytest.raises(IdSpaceError):
            construct(4, 16, 0.0)


class TestAggregates:
    def test_frequency_sum_propagates(self):
        trie = build(entries=[(1, 2.0), (2, 3.0), (200, 5.0)])
        assert trie.total_frequency() == pytest.approx(10.0)

    def test_core_and_eligible_counts(self):
        trie = build()
        trie.insert(1, 1.0)
        trie.insert(2, 1.0, is_core=True)
        assert trie.root.eligible_count == 1
        assert trie.root.has_core

    def test_update_frequency(self):
        trie = build(entries=[(1, 2.0), (130, 3.0)])
        trie.update_frequency(1, 10.0)
        assert trie.total_frequency() == pytest.approx(13.0)

    def test_add_frequency(self):
        trie = build(entries=[(1, 2.0)])
        trie.add_frequency(1, 0.5)
        assert trie.leaf(1).frequency == pytest.approx(2.5)
        with pytest.raises(ConfigurationError):
            trie.add_frequency(1, -10.0)


class TestRemove:
    def test_remove_leaf_and_recompress(self):
        trie = build(entries=[(0b10110000, 1.0), (0b10100000, 1.0), (0b00000001, 1.0)])
        trie.remove(0b10110000)
        assert 0b10110000 not in trie
        assert len(trie) == 2
        check_invariants(trie)

    def test_remove_last_leaf(self):
        trie = build(entries=[(5, 1.0)])
        trie.remove(5)
        assert len(trie) == 0
        assert trie.total_frequency() == 0.0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            build().remove(3)


class TestQosMarkers:
    def test_set_required_marks_right_height(self):
        trie = build(bits=8, entries=[(0b10110000, 1.0), (0b10100000, 1.0)])
        trie.set_required(0b10110000, max_distance=4)
        marked = [v for v in trie.postorder() if v.required]
        assert len(marked) == 1
        # Height of the marked subtree (bits - depth) must not exceed the bound.
        assert trie.space.bits - marked[0].depth <= 4

    def test_zero_distance_marks_leaf(self):
        trie = build(bits=8, entries=[(7, 1.0)])
        trie.set_required(7, max_distance=0)
        assert trie.leaf(7).required

    def test_clear_required(self):
        trie = build(bits=8, entries=[(7, 1.0)])
        trie.set_required(7, max_distance=2)
        trie.clear_required()
        assert not any(v.required for v in trie.postorder())


class TestTraversal:
    def test_postorder_children_first(self):
        trie = build(entries=[(1, 1.0), (2, 1.0), (200, 1.0)])
        order = list(trie.postorder())
        position = {id(v): i for i, v in enumerate(order)}
        for vertex in order:
            for child in vertex.children.values():
                assert position[id(child)] < position[id(vertex)]
        assert order[-1] is trie.root

    def test_leaves_sorted(self):
        trie = build(entries=[(9, 1.0), (1, 1.0), (5, 1.0)])
        assert [leaf.peer for leaf in trie.leaves()] == [1, 5, 9]

    def test_path_to_root(self):
        trie = build(entries=[(1, 1.0), (2, 1.0)])
        path = trie.path_to_root(trie.leaf(1))
        assert path[0].peer == 1
        assert path[-1] is trie.root


class TestNotifications:
    def test_paths_reported_leaf_first(self):
        events = []
        trie = PeerTrie(IdSpace(8), on_path_change=lambda path: events.append(list(path)))
        trie.insert(3, 1.0)
        trie.insert(200, 1.0)
        assert events  # every mutation reports
        for path in events:
            assert path[-1] is trie.root
            depths = [v.depth for v in path]
            assert depths == sorted(depths, reverse=True)


class TestOnePassBuild:
    def test_empty(self):
        assert_same_trie(PeerTrie.from_entries(IdSpace(8), {}), build())

    def test_single_peer(self):
        trie = PeerTrie.from_entries(IdSpace(8), {77: (2.5, False)})
        assert_same_trie(trie, build(entries=[(77, 2.5)]))
        assert trie.root.children[0].peer == 77

    def test_unary_root(self):
        # Every id starts with bit 1: the root keeps a single child.
        peers = [0b10110000, 0b10100000, 0b11000001]
        trie = PeerTrie.from_entries(IdSpace(8), {peer: (1.5, False) for peer in peers})
        assert list(trie.root.children) == [1]
        assert trie.root.children[1].depth == 1
        assert_same_trie(trie, build(entries=[(peer, 1.5) for peer in peers]))

    def test_deepest_trie(self):
        # 0 and every power of two: one branching vertex per bit, the
        # deepest trie a 256-bit space allows.
        peers = [0] + [1 << i for i in range(256)]
        trie = PeerTrie.from_entries(IdSpace(256), {peer: (1.0, False) for peer in peers})
        assert_same_trie(trie, build(bits=256, entries=[(peer, 1.0) for peer in peers]))
        assert trie.leaf(0).parent.depth == 255

    def test_core_only_and_zero_frequency_peers(self):
        entries = {3: (0.0, True), 200: (0.0, True), 201: (0.0, False), 90: (4.0, True)}
        reference = PeerTrie(IdSpace(8))
        for peer, (frequency, is_core) in entries.items():
            reference.insert(peer, frequency, is_core=is_core)
        trie = PeerTrie.from_entries(IdSpace(8), entries)
        assert_same_trie(trie, reference)
        assert trie.root.eligible_count == 1
        assert trie.total_frequency() == 4.0


@pytest.mark.parametrize("bits", [1, 8, 32, 160, 256])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_random_insert_remove_matches_reference(bits, data):
    """Fuzz inserts/removes against a plain dict reference model, then
    require the one-pass build of the survivors to equal the trie the
    inserts and removes left behind."""
    operations = data.draw(
        st.lists(
            st.tuples(st.integers(0, (1 << bits) - 1), st.booleans(), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    trie = PeerTrie(IdSpace(bits))
    reference = {}
    rng = random.Random(0)
    for peer, remove, is_core in operations:
        if remove and reference:
            victim = rng.choice(sorted(reference))
            trie.remove(victim)
            del reference[victim]
        else:
            freq = rng.choice([0.0, float(rng.randint(1, 9)), rng.uniform(0.0, 10.0)])
            trie.insert(peer, freq, is_core=is_core)
            reference[peer] = (freq, is_core or reference.get(peer, (0.0, False))[1])
    assert sorted(leaf.peer for leaf in trie.leaves()) == sorted(reference)
    assert trie.total_frequency() == pytest.approx(sum(freq for freq, __ in reference.values()))
    assert_same_trie(PeerTrie.from_entries(IdSpace(bits), reference), trie)
    check_invariants(trie)
