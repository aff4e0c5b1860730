"""The global budget allocator: greedy exactness, nesting, rebalancing.

The heap allocator's claims are structural, so they are pinned as
properties:

* greedy == brute force (the exponential oracle) on tiny instances;
* allocations **nest** — the budget-``K+1`` split is the budget-``K``
  split plus exactly one grant — and total cost is monotone in ``K``;
* at equal total budget the greedy split never costs more than the
  paper's uniform split, on all three overlays over seeded frequencies;
* the uniform baseline spreads remainders deterministically;
* the rebalancer conserves the spent total and respects ``max_moves``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import selection
from repro.chord.ring import optimal_policy as chord_optimal
from repro.core import budget as budget_mod
from repro.core.budget import (
    BudgetRebalancer,
    CostCurve,
    allocate_brute_force,
    allocate_greedy,
    allocate_uniform,
    curves_for_problems,
    selector_for,
)
from repro.core.types import SelectionProblem
from repro.kademlia.network import optimal_policy as kademlia_optimal
from repro.pastry.network import optimal_policy as pastry_optimal
from repro.util.errors import ConfigurationError
from tests.helpers import random_problem

OVERLAYS = ("chord", "pastry", "kademlia")
OPTIMAL = {"chord": chord_optimal, "pastry": pastry_optimal, "kademlia": kademlia_optimal}


def tiny_curves(seed: int, nodes: int = 4, peers: int = 6, overlay: str = "chord"):
    """A handful of independent curves over random integer-weight problems."""
    rng = random.Random(seed)
    problems = {
        node: random_problem(rng, bits=10, peers=peers, cores=2, k=0)
        for node in range(nodes)
    }
    return curves_for_problems(problems, overlay)


def seed_overlay_frequencies(overlay, seed: int, peers_per_node: int = 10) -> None:
    """Deterministic heterogeneous demand: each node observes a different
    random subset of peers with different weights, so curves differ."""
    rng = random.Random(seed)
    ids = overlay.alive_ids()
    for node_id in ids:
        pool = [peer for peer in ids if peer != node_id]
        sample = rng.sample(pool, min(peers_per_node, len(pool)))
        overlay.seed_frequencies(
            node_id, {peer: float(rng.randint(1, 50)) for peer in sample}
        )


class TestGreedyExactness:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 9),
        st.sampled_from(("chord", "pastry")),
    )
    def test_greedy_matches_brute_force(self, seed, total, overlay):
        curves = tiny_curves(seed, nodes=3, peers=3, overlay=overlay)
        greedy = allocate_greedy(curves, total)
        oracle = allocate_brute_force(curves, total)
        assert greedy.spent == oracle.spent
        assert greedy.total_cost == pytest.approx(oracle.total_cost, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_allocations_nest_and_cost_is_monotone(self, seed):
        curves = tiny_curves(seed, nodes=4, peers=5)
        previous = allocate_greedy(curves, 0)
        capacity = sum(curve.capacity for curve in curves.values())
        for total in range(1, min(capacity, 12) + 1):
            current = allocate_greedy(curves, total)
            deltas = {
                node: current.quotas[node] - previous.quotas[node] for node in curves
            }
            assert all(delta in (0, 1) for delta in deltas.values())
            assert sum(deltas.values()) == 1  # exactly one new grant
            assert current.total_cost <= previous.total_cost + 1e-9
            previous = current

    def test_spends_exactly_min_of_total_and_capacity(self):
        curves = tiny_curves(7, nodes=3, peers=3)
        capacity = sum(curve.capacity for curve in curves.values())
        shy = allocate_greedy(curves, capacity - 1)
        assert shy.spent == capacity - 1
        greedy = allocate_greedy(curves, capacity + 5)
        assert greedy.spent == capacity
        assert all(
            greedy.quotas[node] <= curves[node].capacity for node in curves
        )

    def test_deterministic_pure_function_of_curves(self):
        a = allocate_greedy(tiny_curves(11), 8)
        b = allocate_greedy(tiny_curves(11), 8)
        assert a.quotas == b.quotas
        assert a.costs == b.costs


class TestUniformBaseline:
    def test_remainder_goes_to_ascending_node_ids(self):
        curves = tiny_curves(3, nodes=4, peers=5)
        allocation = allocate_uniform(curves, 4 * 2 + 3)  # base 2, remainder 3
        quotas = [allocation.quotas[node] for node in sorted(curves)]
        assert quotas == [3, 3, 3, 2]
        assert allocation.spent == 11

    def test_capacity_clamp_redistributes(self):
        rng = random.Random(0)
        problems = {
            0: random_problem(rng, bits=10, peers=2, cores=1, k=0),
            1: random_problem(rng, bits=10, peers=8, cores=1, k=0),
        }
        curves = curves_for_problems(problems, "chord")
        cap0 = curves[0].capacity
        allocation = allocate_uniform(curves, cap0 + 6)
        assert allocation.quotas[0] == cap0  # saturated, surplus flows on
        assert allocation.spent == min(
            cap0 + 6, sum(curve.capacity for curve in curves.values())
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 20))
    def test_allocated_never_worse_than_uniform(self, seed, total):
        curves = tiny_curves(seed, nodes=4, peers=5)
        greedy = allocate_greedy(curves, total)
        uniform = allocate_uniform(curves, total)
        assert greedy.spent == uniform.spent
        assert greedy.total_cost <= uniform.total_cost + 1e-9


class TestCostCurve:
    def test_costs_monotone_and_gains_non_negative(self):
        rng = random.Random(5)
        curve = CostCurve(random_problem(rng, bits=10, peers=8, cores=2, k=0), "chord")
        for k in range(curve.capacity):
            assert curve.cost(k + 1) <= curve.cost(k) + 1e-9
            assert curve.gain(k) >= 0.0
        assert curve.gain(curve.capacity) == 0.0  # saturated

    def test_load_scales_cost_linearly(self):
        rng = random.Random(6)
        problem = random_problem(rng, bits=10, peers=8, cores=2, k=0)
        plain = CostCurve(problem, "chord")
        heavy = CostCurve(problem, "chord", load=2.0)
        assert heavy.cost(3) == pytest.approx(2.0 * plain.cost(3))

    def test_k_clamped_to_capacity(self):
        rng = random.Random(8)
        curve = CostCurve(random_problem(rng, bits=10, peers=4, cores=1, k=0), "chord")
        assert curve.result(curve.capacity + 5).auxiliary == curve.result(
            curve.capacity
        ).auxiliary

    def test_rejects_non_positive_load(self):
        rng = random.Random(9)
        problem = random_problem(rng, bits=10, peers=4, cores=1, k=0)
        with pytest.raises(ConfigurationError):
            CostCurve(problem, "chord", load=0.0)

    def test_unknown_overlay_rejected(self):
        with pytest.raises(ConfigurationError):
            selector_for("tapestry")


class TestBruteForceOracle:
    def test_refuses_large_instances(self):
        with pytest.raises(ConfigurationError):
            allocate_brute_force(tiny_curves(0, nodes=3), 11)
        rng = random.Random(1)
        problems = {
            node: random_problem(rng, bits=10, peers=3, cores=1, k=0)
            for node in range(7)
        }
        with pytest.raises(ConfigurationError):
            allocate_brute_force(curves_for_problems(problems, "chord"), 4)


class TestOverlayIntegration:
    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_allocated_never_worse_than_uniform_on_overlay(
        self, small_universe, overlay_kind
    ):
        overlay = small_universe(overlay_kind, n=24, bits=16, seed=4)
        seed_overlay_frequencies(overlay, seed=4)
        problems = selection.plan_problems(overlay, 64)
        curves = curves_for_problems(problems, overlay_kind)
        total = 2 * len(problems)
        greedy = allocate_greedy(curves, total)
        uniform = allocate_uniform(curves, total)
        assert greedy.spent == uniform.spent
        assert greedy.total_cost <= uniform.total_cost + 1e-9

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_install_allocation_applies_quotas(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=20, bits=16, seed=2)
        seed_overlay_frequencies(overlay, seed=2, peers_per_node=8)
        problems = selection.plan_problems(overlay, 64)
        curves = curves_for_problems(problems, overlay_kind)
        allocation = allocate_greedy(curves, 3 * 20)
        selection.install(overlay, allocation, OPTIMAL[overlay_kind], random.Random(0), 64)
        for node_id in overlay.alive_ids():
            auxiliary = overlay.node(node_id).auxiliary
            assert len(auxiliary) <= allocation.quota(node_id)
            # The overlay's own solver installed exactly the plan's pick.
            if node_id in curves:
                assert auxiliary == set(curves[node_id].result(allocation.quota(node_id)).auxiliary)

    def test_overlay_problems_skips_frequency_free_nodes(self, small_universe):
        overlay = small_universe("chord", n=16, bits=16, seed=1)
        ids = overlay.alive_ids()
        overlay.seed_frequencies(ids[0], {ids[1]: 5.0})
        problems = selection.plan_problems(overlay, 64)
        assert set(problems) == {ids[0]}
        assert problems[ids[0]].k == 0


class TestRebalancer:
    def build(self, seed: int = 0, nodes: int = 4):
        rng = random.Random(seed)
        problems = {
            node: random_problem(rng, bits=10, peers=6, cores=2, k=0)
            for node in range(nodes)
        }
        curves = curves_for_problems(problems, "chord")
        allocation = allocate_greedy(curves, 2 * nodes)
        rebalancer = BudgetRebalancer.from_allocation(allocation, max_moves=2)
        rebalancer.baseline(problems)
        return problems, allocation, rebalancer

    def drifted(self, problems):
        """Shift one node's demand hard toward a single peer."""
        drifted = dict(problems)
        node, problem = sorted(drifted.items())[0]
        hot = max(problem.frequencies)
        drifted[node] = SelectionProblem(
            space=problem.space,
            source=problem.source,
            frequencies={hot: 500.0},
            core_neighbors=problem.core_neighbors,
            k=0,
        )
        return drifted

    def test_no_drift_means_no_moves(self):
        problems, __, rebalancer = self.build()
        assert rebalancer.rebalance(problems, "chord") == []
        assert rebalancer.moves_applied == 0
        assert rebalancer.rounds == 1

    def test_moves_bounded_and_total_conserved(self):
        problems, allocation, rebalancer = self.build()
        spent_before = sum(rebalancer.quotas.values())
        moves = rebalancer.rebalance(self.drifted(problems), "chord")
        assert len(moves) <= rebalancer.max_moves
        assert sum(rebalancer.quotas.values()) == spent_before
        assert all(rebalancer.quotas[node] >= 0 for node in rebalancer.quotas)
        # The quotas dict is the allocation's own dict, shared by reference.
        assert rebalancer.quotas is allocation.quotas

    def test_moves_improve_predicted_cost(self):
        problems, __, rebalancer = self.build()
        drifted = self.drifted(problems)
        curves = curves_for_problems(drifted, "chord")
        before = sum(
            curves[node].cost(rebalancer.quotas.get(node, 0)) for node in curves
        )
        moves = rebalancer.rebalance(drifted, "chord")
        after = sum(
            curves[node].cost(rebalancer.quotas.get(node, 0)) for node in curves
        )
        if moves:
            assert after < before - 1e-12
            assert all(move.gain > 0 for move in moves)

    def test_rebase_quiets_subsequent_rounds(self):
        problems, __, rebalancer = self.build()
        drifted = self.drifted(problems)
        rebalancer.rebalance(drifted, "chord")
        # Same snapshots again: detectors were rebased, nothing drifts.
        assert rebalancer.rebalance(drifted, "chord") == []

    def test_never_baselined_node_counts_as_drifted(self):
        rng = random.Random(3)
        problems = {
            node: random_problem(rng, bits=10, peers=6, cores=2, k=0)
            for node in range(3)
        }
        curves = curves_for_problems(problems, "chord")
        rebalancer = BudgetRebalancer.from_allocation(allocate_greedy(curves, 6))
        # No baseline() call: the first round sees every node as stale and
        # is allowed to move budget (it may find no improving move).
        rebalancer.rebalance(problems, "chord")
        assert rebalancer.rounds == 1

    def test_telemetry_counters_labelled(self):
        from repro.telemetry.runtime import RoundTelemetry

        problems, __, rebalancer = self.build()
        telemetry = RoundTelemetry()
        rebalancer.rebalance(problems, "chord", telemetry=telemetry)
        moves = rebalancer.rebalance(self.drifted(problems), "chord", telemetry=telemetry)
        family = telemetry.registry.counter(
            "repro_budget_rebalance_total", "Budget-rebalancer activity by kind."
        )
        assert family.labels(kind="round").value == 2.0
        assert family.labels(kind="skipped").value == 1.0
        if moves:
            assert family.labels(kind="moves").value == float(len(moves))
