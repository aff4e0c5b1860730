"""Columnar snapshot construction: shape and fallbacks."""

import random

import numpy as np
import pytest

from repro.chord.ring import ChordRing
from repro.engine.columnar import snapshot_chord, snapshot_pastry
from repro.engine.router import batch_route_chord
from repro.pastry.network import PastryNetwork
from repro.util.ids import IdSpace


class TestChordSnapshot:
    def test_axes_and_dense_tables(self):
        ring = ChordRing.build(64, seed=2)
        snapshot = snapshot_chord(ring)
        assert snapshot.ids.tolist() == ring.alive_ids()
        offsets = snapshot.table_offsets
        assert offsets[0] == 0 and (np.diff(offsets) > 0).all()
        assert snapshot.hop_gaps is not None
        # Dense rows are gap-sorted with >= 1 pad column each.
        width = snapshot.hop_width
        assert width == int(np.diff(offsets).max()) + 1
        rows = snapshot.hop_gaps.reshape(snapshot.n, width)
        assert (np.diff(rows.astype(np.int64), axis=1) >= 0).all()

    def test_wide_spaces_fall_back_to_csr(self):
        """Spaces past the uint32/exact-float window keep hop tables off;
        routing goes through the CSR bisect path instead."""
        rng = random.Random(2)
        ring = ChordRing(IdSpace(62))
        for node_id in {rng.getrandbits(62) for __ in range(16)}:
            ring.add_node(node_id)
        ring.stabilize_all()
        snapshot = snapshot_chord(ring)
        assert snapshot.hop_gaps is None
        rng = random.Random(0)
        alive = ring.alive_ids()
        sources = [rng.choice(alive) for __ in range(30)]
        keys = [rng.randrange(ring.space.size) for __ in range(30)]
        result = batch_route_chord(snapshot, sources, keys)
        for lane, key in enumerate(keys):
            assert bool(result.succeeded[lane])
            assert int(result.destinations[lane]) == ring.responsible(key)

    def test_responsible_matches_ring_oracle(self):
        ring = ChordRing.build(48, seed=4)
        snapshot = snapshot_chord(ring)
        keys = np.asarray([0, 1, 2**31, ring.space.size - 1], dtype=np.int64)
        expected = [ring.responsible(int(key)) for key in keys]
        assert snapshot.responsible(keys).tolist() == expected


class TestPastrySnapshot:
    def test_axes_and_leaf_geometry(self):
        network = PastryNetwork.build(48, seed=3)
        snapshot = snapshot_pastry(network)
        assert snapshot.ids.tolist() == network.alive_ids()
        assert snapshot.row_ptr.shape == (snapshot.n, snapshot.bits + 1)
        # Leaf rows are padded with the owner's own id.
        for position, node_id in enumerate(network.alive_ids()):
            leaves = sorted(network.node(node_id).leaves)
            row = snapshot.leaf_mat[position].tolist()
            assert row[: len(leaves)] == leaves
            assert all(value == node_id for value in row[len(leaves):])

    def test_non_binary_digits_are_rejected(self):
        network = PastryNetwork.build(16, seed=3, digit_bits=2)
        with pytest.raises(ValueError, match="digit_bits"):
            snapshot_pastry(network)

