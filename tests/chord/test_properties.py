"""Chord-specific property tests.

The cross-overlay behavioural contract — termination at the linear-scan
responsible node, strict per-hop progress, hop bounds, crash/rejoin
idempotence — lives in ``tests/conformance/test_overlay_battery.py``;
only what is Chord-specific remains here: the RingTable next-hop model,
the stabilization outcome of ``ChordNode.rebuild_core`` and the
pointers-only-add-options guarantee.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.chord.routing import RingTable
from repro.util.ids import IdSpace


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 255),
    st.lists(st.integers(0, 255), min_size=1, max_size=20, unique=True),
    st.integers(0, 255),
)
def test_ring_table_next_hop_matches_naive_model(owner, entries, key):
    """next_hop == argmax over entries in (owner, key] of the clockwise
    offset — validated against a brute-force reference."""
    space = IdSpace(8)
    table = RingTable(owner, space)
    table.fill(set(entries))
    usable = [
        entry
        for entry in entries
        if entry != owner and 0 < space.gap(owner, entry) <= space.gap(owner, key)
    ]
    expected = max(usable, key=lambda e: space.gap(owner, e), default=None)
    assert table.next_hop(key) == expected


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rebuild_core_matches_per_interval_scan(data):
    """Fingers are the first live id of each ``[x + 2**i, x + 2**(i+1))``,
    successors the next live ids clockwise, and the table their union
    with the auxiliaries, whether or not the node itself is live, on a
    node whose earlier state must not survive the rebuild."""
    space = IdSpace(data.draw(st.integers(3, 32), label="bits"))
    present = data.draw(st.booleans(), label="present")
    ids = st.integers(0, space.size - 1)
    alive = data.draw(
        st.lists(ids, min_size=1, max_size=min(64, space.size - 1), unique=True), label="alive"
    )
    if present:
        node_id = data.draw(st.sampled_from(alive), label="node")
    else:
        node_id = data.draw(ids.filter(lambda i: i not in alive), label="node")
    node = ChordNode(node_id, space, data.draw(st.integers(1, 6), label="successors"))
    node.rebuild_core(sorted(set(data.draw(st.lists(ids, max_size=8), label="stale")) | {node_id}))
    node.auxiliary = set(data.draw(st.lists(ids, max_size=4), label="auxiliary"))
    node.rebuild_core(sorted(alive))

    others = sorted((peer for peer in alive if peer != node_id), key=lambda peer: space.gap(node_id, peer))
    fingers = set()
    for i in range(space.bits):
        interval = [peer for peer in others if 1 << i <= space.gap(node_id, peer) < 2 << i]
        fingers.update(interval[:1])
    successors = others[: node.successor_list_size]
    assert node.core == fingers
    assert node.successors == successors
    assert node.table.entries() == sorted((fingers | set(successors) | node.auxiliary) - {node_id})


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_auxiliary_pointers_never_slow_lookups_down(seed):
    """Installing optimal auxiliaries must not increase any node's average
    hop count over a fixed key sample (pointers only add options)."""
    import random as _random

    from repro.chord.ring import optimal_policy

    ring = ChordRing.build(32, space=IdSpace(14), seed=seed)
    rng = _random.Random(seed)
    ids = ring.alive_ids()
    source = ids[0]
    keys = [rng.randrange(2**14) for __ in range(30)]
    before = sum(ring.lookup(source, key, record_access=False).hops for key in keys)
    frequencies = {peer: float(rng.randint(1, 20)) for peer in ids[1:20]}
    ring.seed_frequencies(source, frequencies)
    ring.recompute_auxiliary(source, 4, optimal_policy, _random.Random(seed))
    after = sum(ring.lookup(source, key, record_access=False).hops for key in keys)
    assert after <= before
