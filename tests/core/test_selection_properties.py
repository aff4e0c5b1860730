"""Cross-cutting property tests on the selection layer.

These encode the paper's structural claims as executable properties:

* optimality dominance: optimal <= oblivious <= empty set, in eq.-1 cost;
* the nesting property (P) of Section IV-B, observed on actual outputs;
* marginal gains: each extra pointer helps, but by (weakly) less;
* the three-way oracle: the DP, the Lemma-4.1 greedy and the exponential
  brute force must agree on optimal cost (Pastry), and the fast path —
  both its dense layer solve and the Monge divide and conquer — must
  match the quadratic DP (Chord), including on adversarial weight
  profiles (ties everywhere, zero-frequency peers).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chord_selection import select_chord_dp, select_chord_fast
from repro.core.cost import brute_force_optimal, evaluate
from repro.core.oblivious import select_chord_oblivious, select_pastry_oblivious
from repro.core.pastry_selection import select_pastry_dp, select_pastry_greedy
from tests.helpers import chord_divide_and_conquer, random_problem


def with_weights(problem, weights):
    """Copy ``problem`` with a replacement frequency map."""
    return problem.__class__(
        space=problem.space,
        source=problem.source,
        frequencies=weights,
        core_neighbors=problem.core_neighbors,
        k=problem.k,
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_optimal_dominates_oblivious_and_empty(seed):
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=30, cores=3, k=5)
    empty_chord = evaluate(problem, [], "chord")
    empty_pastry = evaluate(problem, [], "pastry")

    chord_opt = select_chord_fast(problem)
    chord_obl = select_chord_oblivious(problem, random.Random(seed))
    assert chord_opt.cost <= chord_obl.cost + 1e-9
    assert chord_obl.cost <= empty_chord + 1e-9  # extra pointers never hurt

    pastry_opt = select_pastry_greedy(problem)
    pastry_obl = select_pastry_oblivious(problem, random.Random(seed))
    assert pastry_opt.cost <= pastry_obl.cost + 1e-9
    assert pastry_obl.cost <= empty_pastry + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_pastry_nesting_property_on_outputs(seed):
    """Property (P): with deterministic tie-breaking, the greedy's j-pointer
    selection contains its (j-1)-pointer selection."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=10, peers=25, cores=2, k=0)
    previous: frozenset[int] = frozenset()
    for k in range(1, 7):
        current = select_pastry_greedy(problem.with_k(k)).auxiliary
        assert previous <= current
        previous = current


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_diminishing_returns_chord(seed):
    """Marginal gain of the j-th pointer is non-increasing (Lemma 4.1's
    Chord analogue, implied by the DP's optimality)."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=25, cores=2, k=0)
    costs = [select_chord_fast(problem.with_k(k)).cost for k in range(6)]
    gains = [costs[i] - costs[i + 1] for i in range(5)]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_diminishing_returns_pastry(seed):
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=25, cores=2, k=0)
    costs = [select_pastry_greedy(problem.with_k(k)).cost for k in range(6)]
    gains = [costs[i] - costs[i + 1] for i in range(5)]
    for earlier, later in zip(gains, gains[1:]):
        assert later <= earlier + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_scaling_frequencies_preserves_selection_cost_ratio(seed):
    """Eq. 1 is linear in the frequencies: doubling every weight doubles
    the optimal cost and permits the same optimal pointer set."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=10, peers=15, cores=2, k=3)
    doubled = problem.__class__(
        space=problem.space,
        source=problem.source,
        frequencies={peer: 2 * weight for peer, weight in problem.frequencies.items()},
        core_neighbors=problem.core_neighbors,
        k=problem.k,
    )
    for solver in (select_chord_fast, select_pastry_greedy):
        base = solver(problem)
        scaled = solver(doubled)
        assert scaled.cost == pytest.approx(2 * base.cost)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_pastry_three_way_oracle(seed):
    """The paper's two polynomial Pastry algorithms and the exponential
    ground truth must land on the same optimal eq.-2 cost. Integer weights
    keep every cost an exact float, so equality needs no tolerance."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=6, peers=7, cores=2, k=3)
    dp = select_pastry_dp(problem)
    greedy = select_pastry_greedy(problem)
    brute = brute_force_optimal(problem, "pastry")
    assert math.isclose(dp.cost, brute.cost, abs_tol=1e-9)
    assert math.isclose(greedy.cost, brute.cost, abs_tol=1e-9)
    # The returned sets must actually realize the claimed cost.
    assert math.isclose(evaluate(problem, dp.auxiliary, "pastry"), dp.cost, abs_tol=1e-9)
    assert math.isclose(
        evaluate(problem, greedy.auxiliary, "pastry"), greedy.cost, abs_tol=1e-9
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_chord_fast_matches_dp_with_ties_and_zero_frequencies(seed):
    """Differential oracle for the Chord fast path (span oracle + Monge
    divide & conquer) against the O(n^2 k) DP, on the adversarial weight
    profile: heavy ties plus peers the source never queries (weight 0),
    where tie-breaking bugs and empty-span edge cases would surface."""
    rng = random.Random(seed)
    base = random_problem(rng, bits=8, peers=12, cores=2, k=4)
    tied = with_weights(
        base,
        {peer: float(rng.choice((0, 0, 1, 2))) for peer in base.frequencies},
    )
    dp = select_chord_dp(tied)
    for fast in (select_chord_fast(tied), chord_divide_and_conquer(tied)):
        assert math.isclose(fast.cost, dp.cost, abs_tol=1e-9)
        assert math.isclose(evaluate(tied, fast.auxiliary, "chord"), fast.cost, abs_tol=1e-9)
    assert math.isclose(evaluate(tied, dp.auxiliary, "chord"), dp.cost, abs_tol=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_chord_fast_matches_brute_force_on_tiny_instances(seed):
    rng = random.Random(seed)
    base = random_problem(rng, bits=6, peers=6, cores=2, k=2)
    tied = with_weights(
        base,
        {peer: float(rng.choice((0, 1, 1, 3))) for peer in base.frequencies},
    )
    brute = brute_force_optimal(tied, "chord")
    for fast in (select_chord_fast(tied), chord_divide_and_conquer(tied)):
        assert math.isclose(fast.cost, brute.cost, abs_tol=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_selection_deterministic(seed):
    """Same problem -> identical selection (no hidden randomness)."""
    rng = random.Random(seed)
    problem = random_problem(rng, bits=12, peers=20, cores=2, k=4)
    assert select_chord_fast(problem).auxiliary == select_chord_fast(problem).auxiliary
    assert select_pastry_greedy(problem).auxiliary == select_pastry_greedy(problem).auxiliary
