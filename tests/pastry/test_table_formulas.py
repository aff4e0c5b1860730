"""Pastry's table arithmetic against the ``IdSpace`` formulas it replaces.

``PastryNode.cell_key``, ``PastryNetwork._locality_core`` and
``ProximityModel.closest`` compute cells, per-row digits and prefix bases
with shifts on ids the overlay already validated. The oracles below are
the ``IdSpace.common_prefix_length`` / ``digit_at`` / ``prefix`` and keyed
``min`` formulations they must equal, for 1–4-bit digits and id widths
that are not a multiple of the digit width.
"""

import re
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pastry.network import PastryNetwork
from repro.pastry.node import PastryNode
from repro.pastry.proximity import ProximityModel
from repro.util.errors import IdSpaceError
from repro.util.ids import IdSpace


def oracle_cell_key(node: PastryNode, other: int) -> tuple[int, int]:
    space = node.space
    row = space.common_prefix_length(node.node_id, other) // node.digit_bits
    return row, space.digit_at(other, row, node.digit_bits)


def oracle_closest(model: ProximityModel, origin: int, candidates: list[int]) -> int:
    return min(candidates, key=lambda c: (model.latency(origin, c), c))


class OracleNode(PastryNode):
    __slots__ = ()

    def cell_key(self, other: int) -> tuple[int, int]:
        return oracle_cell_key(self, other)


class OracleNetwork(PastryNetwork):
    """A Pastry overlay whose cells and locality tables use the formulas."""

    def _new_node(self, node_id: int) -> OracleNode:
        return OracleNode(node_id, self.space, self.digit_bits, self.leaf_radius)

    def _locality_core(self, node_id: int) -> set[int]:
        space = self.space
        alive = self._alive
        entries: set[int] = set()
        for row in range(space.num_digits(self.digit_bits)):
            prefix_bits = row * self.digit_bits
            width = min(self.digit_bits, space.bits - prefix_bits)
            own_digit = space.digit_at(node_id, row, self.digit_bits)
            suffix_bits = space.bits - prefix_bits - width
            base = space.prefix(node_id, prefix_bits) << (space.bits - prefix_bits)
            for digit in range(1 << width):
                if digit == own_digit:
                    continue
                low = base | (digit << suffix_bits)
                lo_index = bisect_left(alive, low)
                hi_index = bisect_left(alive, low + (1 << suffix_bits))
                count = hi_index - lo_index
                if count <= 0:
                    continue
                if count <= self.core_samples:
                    sample = alive[lo_index:hi_index]
                else:
                    sample = [
                        alive[self._maintenance_rng.randrange(lo_index, hi_index)]
                        for __ in range(self.core_samples)
                    ]
                entries.add(oracle_closest(self.proximity, node_id, sample))
        return entries


def _tables(network: PastryNetwork) -> dict:
    return {
        node_id: (node.cells, node.core, node.leaves, node.auxiliary, node.alive)
        for node_id, node in network.nodes.items()
    }


@st.composite
def _space_and_digits(draw, min_bits=1, max_bits=24):
    bits = draw(st.integers(min_bits, max_bits))
    return IdSpace(bits), draw(st.integers(1, 4))


@given(_space_and_digits(), st.data())
def test_cell_key_equals_formula(space_digits, data):
    space, digit_bits = space_digits
    ids = st.integers(0, space.size - 1)
    node = PastryNode(data.draw(ids), space, digit_bits)
    for other in data.draw(st.lists(ids, min_size=1, max_size=8)) + [node.node_id]:
        try:
            expected = oracle_cell_key(node, other)
        except IdSpaceError as error:
            # Its own id has no cell when the digits divide the id width.
            with pytest.raises(IdSpaceError, match=re.escape(str(error))):
                node.cell_key(other)
        else:
            assert node.cell_key(other) == expected


@pytest.mark.parametrize("bad", [-1, 1 << 12])
def test_cell_key_validates_its_argument(bad):
    node = PastryNode(5, IdSpace(12), digit_bits=3)
    with pytest.raises(IdSpaceError, match="outside"):
        node.cell_key(bad)


@settings(max_examples=40, deadline=None)
@given(
    _space_and_digits(min_bits=5, max_bits=20),
    st.integers(2, 40),
    st.integers(0, 2**16),
)
def test_built_tables_and_rng_equal_formula_build(space_digits, n, seed):
    """A build, then a crash, a rejoin and a stabilization round, leaves
    every node's tables and the maintenance RNG where the formula build
    leaves them."""
    space, digit_bits = space_digits
    n = min(n, space.size)
    networks = [
        cls.build(n, space=space, seed=seed, digit_bits=digit_bits)
        for cls in (PastryNetwork, OracleNetwork)
    ]
    for network in networks:
        victim = network.alive_ids()[seed % n]
        network.crash(victim)
        network.stabilize_all()
        if n > 1:
            network.join_via(victim, network.alive_ids()[0])
        network.stabilize_all()
    fast, oracle = networks
    assert _tables(fast) == _tables(oracle)
    assert fast._maintenance_rng.getstate() == oracle._maintenance_rng.getstate()


@settings(max_examples=40, deadline=None)
@given(_space_and_digits(min_bits=5, max_bits=20), st.integers(8, 60), st.integers(0, 2**16))
def test_locality_core_equals_formula(space_digits, n, seed):
    space, digit_bits = space_digits
    network = PastryNetwork.build(min(n, space.size), space=space, seed=seed, digit_bits=digit_bits)
    rng = network._maintenance_rng
    for node_id in network.alive_ids():
        state = rng.getstate()
        expected = OracleNetwork._locality_core(network, node_id)
        expected_state = rng.getstate()
        rng.setstate(state)
        assert network._locality_core(node_id) == expected
        assert rng.getstate() == expected_state


@given(
    st.integers(0, 2**8),
    st.integers(0, 40),
    st.lists(st.integers(0, 40), min_size=1, max_size=12),
    st.booleans(),
)
def test_closest_equals_keyed_min(seed, origin, candidates, with_origin):
    """Duplicates and the origin itself among the candidates included."""
    if with_origin:
        candidates = candidates + [origin]
    model = ProximityModel(seed)
    assert model.closest(origin, candidates) == oracle_closest(ProximityModel(seed), origin, candidates)
