"""Vectorized kernels must match the scalar references exactly.

Property-based: hypothesis generates random id spaces, frequency maps,
and pointer sets; the NumPy and scalar evaluators must agree to 1e-9
(the only permitted difference is float summation order).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import (
    _MAX_VECTOR_BITS,
    VECTORIZE_THRESHOLD,
    chord_cost,
    chord_cost_scalar,
    chord_cost_vectorized,
    chord_sorted_offsets,
    pastry_cost,
    pastry_cost_scalar,
    pastry_cost_vectorized,
)
from repro.util.ids import IdSpace


@st.composite
def cost_instances(draw):
    """(space, source, frequencies, core, auxiliary) with distinct ids."""
    bits = draw(st.integers(min_value=4, max_value=48))
    space = IdSpace(bits)
    universe = st.integers(min_value=0, max_value=space.size - 1)
    peers = draw(st.lists(universe, min_size=1, max_size=40, unique=True))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=len(peers),
            max_size=len(peers),
        )
    )
    frequencies = dict(zip(peers, weights))
    source = draw(universe)
    core = draw(st.lists(universe, min_size=0, max_size=12, unique=True))
    auxiliary = draw(st.lists(universe, min_size=0, max_size=8, unique=True))
    return space, source, frequencies, core, auxiliary


class TestPastryEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(cost_instances())
    def test_matches_scalar(self, instance):
        space, _, frequencies, core, auxiliary = instance
        scalar = pastry_cost_scalar(space, frequencies, core, auxiliary)
        vectorized = pastry_cost_vectorized(space, frequencies, core, auxiliary)
        assert vectorized == pytest.approx(scalar, abs=1e-9, rel=1e-9)

    def test_empty_pointers(self):
        space = IdSpace(8)
        frequencies = {3: 2.0, 77: 1.5}
        assert pastry_cost_vectorized(space, frequencies, [], []) == pytest.approx(
            pastry_cost_scalar(space, frequencies, [], [])
        )


class TestChordEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(cost_instances())
    def test_matches_scalar(self, instance):
        space, source, frequencies, core, auxiliary = instance
        scalar = chord_cost_scalar(space, source, frequencies, core, auxiliary)
        vectorized = chord_cost_vectorized(space, source, frequencies, core, auxiliary)
        assert vectorized == pytest.approx(scalar, abs=1e-9, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(cost_instances())
    def test_precomputed_offsets_match(self, instance):
        space, source, frequencies, core, auxiliary = instance
        offsets = chord_sorted_offsets(space, source, core, auxiliary)
        direct = chord_cost_vectorized(space, source, frequencies, core, auxiliary)
        hoisted = chord_cost_vectorized(
            space, source, frequencies, core, auxiliary, sorted_offsets=offsets
        )
        assert hoisted == pytest.approx(direct, abs=1e-9, rel=1e-9)
        scalar = chord_cost_scalar(
            space, source, frequencies, core, auxiliary, sorted_offsets=offsets
        )
        assert scalar == pytest.approx(direct, abs=1e-9, rel=1e-9)

    def test_empty_pointers(self):
        space = IdSpace(8)
        frequencies = {3: 2.0, 77: 1.5}
        assert chord_cost_vectorized(space, 5, frequencies, [], []) == pytest.approx(
            chord_cost_scalar(space, 5, frequencies, [], [])
        )

    def test_source_excluded_from_pointers(self):
        # A pointer equal to the source has gap 0 and must be ignored.
        space = IdSpace(8)
        frequencies = {i: 1.0 for i in range(10, 90)}
        scalar = chord_cost_scalar(space, 42, frequencies, [42, 50], [60])
        vectorized = chord_cost_vectorized(space, 42, frequencies, [42, 50], [60])
        assert vectorized == pytest.approx(scalar)


class TestDispatch:
    def test_large_instances_use_vector_path(self):
        space = IdSpace(16)
        frequencies = {i * 37 % space.size: float(i % 11 + 1) for i in range(VECTORIZE_THRESHOLD + 8)}
        core, auxiliary = [5, 900], [2000]
        assert pastry_cost(space, frequencies, core, auxiliary) == pytest.approx(
            pastry_cost_scalar(space, frequencies, core, auxiliary)
        )
        assert chord_cost(space, 1, frequencies, core, auxiliary) == pytest.approx(
            chord_cost_scalar(space, 1, frequencies, core, auxiliary)
        )

    def test_wide_id_spaces_stay_scalar(self):
        # frexp bit lengths are only exact below 2**53; dispatch must not
        # route a 128-bit space to the vector path.
        space = IdSpace(128)
        assert space.bits > _MAX_VECTOR_BITS
        frequencies = {(1 << 100) + i: 1.0 for i in range(VECTORIZE_THRESHOLD + 8)}
        pointers = [1 << 90]
        assert pastry_cost(space, frequencies, pointers, []) == pytest.approx(
            pastry_cost_scalar(space, frequencies, pointers, [])
        )
        assert chord_cost(space, 7, frequencies, pointers, []) == pytest.approx(
            chord_cost_scalar(space, 7, frequencies, pointers, [])
        )
