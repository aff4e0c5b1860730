"""Tests for the Chord auxiliary-neighbor selection algorithms."""

import math
import random
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import chord_selection
from repro.core.chord_selection import select_chord, select_chord_dp, select_chord_fast
from repro.core.cost import brute_force_optimal, chord_cost
from repro.core.types import SelectionProblem
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace
from tests.helpers import chord_divide_and_conquer, problem_from_lists, random_problem


def assert_valid(problem, result):
    assert result.auxiliary <= problem.candidates
    assert len(result.auxiliary) <= problem.k
    recomputed = chord_cost(
        problem.space,
        problem.source,
        problem.frequencies,
        problem.core_neighbors,
        result.auxiliary,
    )
    assert result.cost == pytest.approx(recomputed)


class TestHandPicked:
    def test_far_hot_peer_gets_pointer(self):
        # Core at gap 1; hot peer far away benefits most from a pointer.
        problem = problem_from_lists(8, 0, {200: 50.0, 3: 1.0}, [1], k=1)
        for solver in (select_chord_dp, select_chord_fast, chord_divide_and_conquer):
            result = solver(problem)
            assert result.auxiliary == {200}
            assert_valid(problem, result)

    def test_pointer_serves_following_peers(self):
        # Peers clustered at 100..103; one pointer at 100 serves them all
        # within bit_length(3) = 2 hops.
        weights = {100: 5.0, 101: 5.0, 102: 5.0, 103: 5.0}
        problem = problem_from_lists(8, 0, weights, [1], k=1)
        result = select_chord_dp(problem)
        assert result.auxiliary == {100}
        assert_valid(problem, result)

    def test_k_zero(self):
        problem = problem_from_lists(8, 0, {5: 2.0}, [1], k=0)
        result = select_chord(problem)
        assert result.auxiliary == frozenset()
        assert_valid(problem, result)

    def test_budget_exceeds_candidates(self):
        problem = problem_from_lists(8, 0, {5: 1.0, 9: 1.0}, [], k=7)
        result = select_chord(problem)
        assert result.auxiliary == {5, 9}
        assert_valid(problem, result)

    def test_empty_frequencies(self):
        problem = problem_from_lists(8, 0, {}, [1], k=2)
        result = select_chord(problem)
        assert result.auxiliary == frozenset()
        assert result.cost == 0.0

    def test_wraparound_source(self):
        problem = problem_from_lists(8, 250, {3: 10.0, 249: 1.0}, [251], k=1)
        result = select_chord_dp(problem)
        assert_valid(problem, result)
        # Peer 249 has gap 255 (almost a full loop): serving it well is
        # expensive; the hot peer at gap 9 should win the single pointer.
        assert result.auxiliary == {3}


class TestOptimality:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dp_matches_brute_force(self, seed):
        rng = random.Random(seed)
        problem = random_problem(rng, bits=6, peers=7, cores=rng.randint(0, 2), k=rng.randint(0, 3))
        reference = brute_force_optimal(problem, "chord")
        result = select_chord_dp(problem)
        assert result.cost == pytest.approx(reference.cost)
        assert_valid(problem, result)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fast_matches_dp(self, seed):
        rng = random.Random(seed)
        problem = random_problem(
            rng, bits=10, peers=rng.randint(5, 50), cores=rng.randint(0, 5), k=rng.randint(0, 6)
        )
        dp = select_chord_dp(problem)
        for fast in (select_chord_fast(problem), chord_divide_and_conquer(problem)):
            assert fast.cost == pytest.approx(dp.cost)
            assert_valid(problem, fast)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fast_matches_dp_dense_ring(self, seed):
        """Dense id spaces exercise gap collisions in the span oracle."""
        rng = random.Random(seed)
        problem = random_problem(rng, bits=7, peers=60, cores=6, k=8)
        dp = select_chord_dp(problem)
        for fast in (select_chord_fast(problem), chord_divide_and_conquer(problem)):
            assert fast.cost == pytest.approx(dp.cost)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cost_monotone_in_k(self, seed):
        rng = random.Random(seed)
        problem = random_problem(rng, bits=8, peers=20, cores=2, k=0)
        costs = [select_chord_fast(problem.with_k(k)).cost for k in range(6)]
        assert costs == sorted(costs, reverse=True)


class TestQoS:
    def test_bound_forces_nearby_pointer(self):
        # Peer 128 (gap 128) is cold but bounded to 3 hops:
        # 1 + bit_length(gap from pointer) <= 3 requires a pointer within
        # gap difference <= 3 of it.
        problem = problem_from_lists(
            8,
            0,
            {128: 0.1, 3: 100.0, 5: 90.0, 126: 1.0},
            [1],
            k=1,
            bounds={128: 3},
        )
        result = select_chord_dp(problem)
        assert result.auxiliary <= {126, 128}
        assert result.auxiliary  # a pointer was forced despite hot peers at 3/5

    def test_infeasible_raises(self):
        problem = problem_from_lists(8, 0, {128: 1.0}, [1], k=0, bounds={128: 2})
        with pytest.raises(InfeasibleConstraintError):
            select_chord_dp(problem)

    def test_matches_brute_force_with_bounds(self):
        rng = random.Random(13)
        for __ in range(20):
            base = random_problem(rng, bits=6, peers=6, cores=1, k=2)
            bounded = rng.choice(sorted(base.frequencies))
            problem = problem_from_lists(
                6,
                base.source,
                dict(base.frequencies),
                sorted(base.core_neighbors),
                k=2,
                bounds={bounded: rng.randint(2, 5)},
            )
            try:
                reference = brute_force_optimal(problem, "chord")
            except InfeasibleConstraintError:
                with pytest.raises(InfeasibleConstraintError):
                    select_chord_dp(problem)
                continue
            result = select_chord_dp(problem)
            assert result.cost == pytest.approx(reference.cost)

    def test_fast_rejects_bounds(self):
        problem = problem_from_lists(8, 0, {5: 1.0}, [], k=1, bounds={5: 3})
        with pytest.raises(ConfigurationError):
            select_chord_fast(problem)

    def test_dispatcher_routes_bounds_to_dp(self):
        problem = problem_from_lists(8, 0, {128: 1.0}, [], k=1, bounds={128: 2})
        result = select_chord(problem)
        assert result.auxiliary == {128}


#: Weight profiles that tie heavily. Sums of the non-dyadic weights
#: (0.1, 0.7, ...) round, which is what can break the monotone minima.
TIED_WEIGHTS = {
    "ties": (0.1, 0.2, 0.3),
    "ties-and-zeros": (0.0, 0.1, 0.2, 0.3),
    "non-dyadic": (0.0, 0.7, 1.0),
    "zeros": (0.0, 0.0, 1.0, 2.0),
}


def seeded_problem(seed, bits, peers, k, cores=0, weights=None):
    """``peers`` random peers on ``bits``-bit ids plus ``cores`` other core
    neighbours, weighted by ``weights`` (a choice set) or random floats."""
    rng = random.Random(seed)
    drawn: dict[int, None] = {}
    while len(drawn) < peers + cores + 1:
        drawn[rng.randrange(1 << bits)] = None
    ids = list(drawn)
    draw = (lambda: rng.choice(weights)) if weights else rng.random
    return SelectionProblem(
        space=IdSpace(bits),
        source=ids[0],
        frequencies={peer: draw() for peer in ids[1 : peers + 1]},
        core_neighbors=frozenset(ids[peers + 1 :]),
        k=k,
    )


@st.composite
def dense_problems(draw):
    """Problems on the dense path's domain, skewed to its edge cases: tied
    and zero weights, core-only and core-free neighbourhoods, budgets above
    the candidate count, 6- to 53-bit ids, the mid sizes the Chord
    workloads solve (33-255 peers with 4-24 cores) and problems of exactly
    the cap."""
    size = draw(st.sampled_from(["small", "mid", "cap"]))
    peers = {
        "small": st.integers(1, 40),
        "mid": st.integers(33, chord_selection._DENSE_MAX_PEERS - 1),
        "cap": st.just(chord_selection._DENSE_MAX_PEERS),
    }[size]
    peers = draw(peers)
    bits = draw(st.integers(6 if size == "small" else 10, 53))
    k = draw(st.integers(0, peers + 3) if size == "small" else st.integers(0, 10))
    cores = draw(st.integers(4, 24) if size == "mid" else st.integers(0, 8))
    weights = draw(st.sampled_from([None, *TIED_WEIGHTS.values()]))
    problem = seeded_problem(draw(st.integers(0, 2**32)), bits, peers, k, cores=cores, weights=weights)
    neighbourhood = draw(st.sampled_from(["given", "none", "all", "some"]))
    if neighbourhood == "given":
        return problem
    peer_ids = sorted(problem.frequencies)
    core = {
        "none": frozenset(),
        "all": frozenset(peer_ids),
        "some": problem.core_neighbors | frozenset(peer_ids[:: draw(st.integers(2, 9))]),
    }[neighbourhood]
    return SelectionProblem(
        space=problem.space,
        source=problem.source,
        frequencies=problem.frequencies,
        core_neighbors=core,
        k=problem.k,
    )


def solve_with_parents(solve, problem):
    """``solve(problem)`` and the DP parent rows it reconstructed from."""
    rows = []
    reconstruct = chord_selection._reconstruct

    def record(parents, layers, n):
        rows.extend([int(j) for j in row] for row in parents)
        return reconstruct(parents, layers, n)

    with mock.patch.object(chord_selection, "_reconstruct", record):
        return solve(problem), rows


def solver_routes(problem):
    """How many dense span matrices and divide-and-conquer layers one fast
    solve of ``problem`` used."""
    with mock.patch.object(
        chord_selection, "_dense_spans", wraps=chord_selection._dense_spans
    ) as dense, mock.patch.object(
        chord_selection, "_solve_layer_dc", wraps=chord_selection._solve_layer_dc
    ) as divide_and_conquer:
        select_chord_fast(problem)
    return dense.call_count, divide_and_conquer.call_count


def assert_matrix_matches_oracle(problem):
    """Every column of the dense kernel, built here for every peer (core
    neighbours too), equals the scalar oracle entry for entry: ``s(j, m)``
    where ``j <= m`` and ``inf`` where ``j > m``, row ``m = 0`` included."""
    inst = chord_selection._normalize_arrays(problem)
    oracle = chord_selection._SpanOracle(chord_selection._normalize(problem))
    expected = [
        [oracle.span_cost(j, m) if j <= m else math.inf for j in range(1, inst.n + 1)]
        for m in range(inst.n + 1)
    ]
    assert chord_selection._dense_spans(inst, numpy.arange(inst.n)).tolist() == expected


class TestDenseLayerSolve:
    @settings(max_examples=100, deadline=None)
    @given(dense_problems())
    def test_dense_matches_divide_and_conquer_bit_for_bit(self, problem):
        dense, dense_rows = solve_with_parents(select_chord_fast, problem)
        reference, reference_rows = solve_with_parents(chord_divide_and_conquer, problem)
        assert dense.auxiliary == reference.auxiliary
        assert dense.cost == reference.cost
        assert dense_rows == reference_rows

    @pytest.mark.parametrize(
        "problem",
        [
            # Cores that coincide with peers (4, 17), sit right after an
            # anchor (11 after 10: empty head), end a span (17: empty
            # tail), precede the first peer (1) and follow the last (201).
            problem_from_lists(
                8,
                0,
                {3: 0.1, 4: 0.7, 10: 0.3, 17: 0.2, 64: 0.1, 130: 0.3, 200: 0.7, 255: 0.1},
                [1, 4, 11, 17, 128, 201],
                k=2,
            ),
            problem_from_lists(8, 0, {3: 1.0, 4: 2.0, 10: 0.5, 130: 0.1, 255: 1.0}, [], k=2),
            problem_from_lists(8, 250, {3: 0.1, 249: 0.2, 251: 0.3, 5: 0.0}, [252], k=1),
            problem_from_lists(6, 7, {8: 1.0}, [9, 40], k=1),
            problem_from_lists(
                53, 1, {2: 0.3, 2**40: 0.1, 2**52 + 3: 0.2, 2**53 - 1: 0.7}, [2**41], k=3
            ),
        ],
        ids=["cores-everywhere", "no-cores", "wraparound", "one-peer", "53-bit"],
    )
    def test_matrix_equals_oracle_on_hand_made_instances(self, problem):
        assert_matrix_matches_oracle(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_equals_oracle_on_random_instances(self, seed):
        rng = random.Random(seed)
        small = seed % 2  # odd seeds: up to 40 peers; even: the workloads' mid sizes
        problem = seeded_problem(
            seed,
            bits=rng.choice((6, 16, 32, 53) if small else (16, 32, 53)),
            peers=rng.randint(1, 40) if small else rng.randint(33, 160),
            k=2,
            cores=rng.randint(0, 8) if small else rng.randint(4, 24),
            weights=rng.choice([None, *TIED_WEIGHTS.values()]),
        )
        assert_matrix_matches_oracle(problem)

    def test_decreasing_column_minima_fall_back_to_divide_and_conquer(self):
        # Ties from {0.1, 0.2, 0.3}: float rounding makes the leftmost
        # column minima of this problem's third layer decrease somewhere,
        # where a plain argmin would pick a different set of equal cost.
        rng = random.Random(21)
        base = random_problem(rng, bits=10, peers=24, cores=2, k=4)
        problem = problem_from_lists(
            10,
            base.source,
            {peer: rng.choice((0.1, 0.2, 0.3)) for peer in sorted(base.frequencies)},
            sorted(base.core_neighbors),
            k=4,
        )
        dense_matrices, fallback_layers = solver_routes(problem)
        assert (dense_matrices, fallback_layers) == (1, 1)
        dense, dense_rows = solve_with_parents(select_chord_fast, problem)
        reference, reference_rows = solve_with_parents(chord_divide_and_conquer, problem)
        assert (dense.auxiliary, dense.cost, dense_rows) == (
            reference.auxiliary,
            reference.cost,
            reference_rows,
        )

    def test_dispatch_by_size_and_id_width(self):
        cap = chord_selection._DENSE_MAX_PEERS
        assert cap == 256
        assert solver_routes(seeded_problem(1, bits=32, peers=cap, k=3, cores=8)) == (1, 0)
        # Above the cap, and on ids NumPy cannot hold exactly, every
        # layer is divide and conquer.
        assert solver_routes(seeded_problem(2, bits=32, peers=cap + 1, k=3, cores=8)) == (0, 3)
        assert solver_routes(seeded_problem(3, bits=64, peers=40, k=3, cores=4)) == (0, 3)
