"""The selection plane: one problem builder, one recompute, one install walk.

Every overlay hands the plane only its core-pointer rule
(``node.core_neighbors()``); these tests pin that the rule is each
overlay's budget-free pointer set, that the recompute solves exactly the
plane's problem and installs the answer, and that the install walk goes
in ascending id order through each overlay's own ``recompute_auxiliary``.
"""

from __future__ import annotations

import random

import pytest

from repro import selection
from repro.chord.ring import oblivious_policy as chord_oblivious
from repro.chord.ring import optimal_policy as chord_optimal
from repro.core.budget import allocate_greedy, curves_for_problems
from repro.kademlia.network import oblivious_policy as kademlia_oblivious
from repro.kademlia.network import optimal_policy as kademlia_optimal
from repro.pastry.network import oblivious_policy as pastry_oblivious
from repro.pastry.network import optimal_policy as pastry_optimal
from repro.telemetry.runtime import RoundTelemetry
from repro.util.errors import ConfigurationError, NodeAbsentError

OVERLAYS = ("chord", "pastry", "kademlia")
POLICIES = {
    "chord": (chord_optimal, chord_oblivious),
    "pastry": (pastry_optimal, pastry_oblivious),
    "kademlia": (kademlia_optimal, kademlia_oblivious),
}


def seeded(small_universe, overlay_kind: str, seed: int = 5, n: int = 24):
    """A small overlay whose nodes each observe a random peer subset."""
    overlay = small_universe(overlay_kind, n=n, bits=16, seed=seed)
    rng = random.Random(seed)
    ids = overlay.alive_ids()
    for node_id in ids:
        peers = rng.sample([peer for peer in ids if peer != node_id], 10)
        overlay.seed_frequencies(node_id, {peer: float(rng.randint(1, 40)) for peer in peers})
    return overlay


class Recording:
    """A policy wrapper keeping every problem it was asked to solve."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.problems: list = []

    def __call__(self, problem, rng, overlay):
        self.problems.append(problem)
        return self.policy(problem, rng, overlay)


class TestCoreRule:
    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_core_neighbors_are_the_budget_free_pointers(self, small_universe, overlay_kind):
        overlay = small_universe(overlay_kind, n=24, bits=16, seed=2)
        for node_id in overlay.alive_ids():
            node = overlay.node(node_id)
            core = node.core_neighbors()
            assert isinstance(core, frozenset)
            if overlay_kind == "chord":
                assert core == node.core | set(node.successors)
            elif overlay_kind == "pastry":
                assert core == node.core | node.leaves
            else:
                assert core == node.core
            assert node_id not in core

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_node_problem_is_snapshot_plus_core(self, small_universe, overlay_kind):
        overlay = seeded(small_universe, overlay_kind)
        node_id = overlay.alive_ids()[3]
        node = overlay.node(node_id)
        problem = selection.node_problem(overlay, node_id, 4, frequency_limit=6)
        assert problem.source == node_id
        assert problem.k == 4
        assert problem.frequencies == node.frequency_snapshot(6)
        assert len(problem.frequencies) == 6
        assert problem.core_neighbors == node.core_neighbors()


class TestRecompute:
    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_installs_what_the_policy_chose_for_the_plane_problem(
        self, small_universe, overlay_kind
    ):
        overlay = seeded(small_universe, overlay_kind)
        optimal, __ = POLICIES[overlay_kind]
        node_id = overlay.alive_ids()[0]
        expected = optimal(selection.node_problem(overlay, node_id, 3, 64), random.Random(0), overlay)
        result = overlay.recompute_auxiliary(node_id, 3, optimal, random.Random(0), 64)
        assert result == expected
        assert overlay.node(node_id).auxiliary == set(result.auxiliary)
        assert result.auxiliary

    def test_rejects_negative_k_and_dead_nodes(self, small_universe):
        overlay = seeded(small_universe, "chord")
        node_id = overlay.alive_ids()[0]
        with pytest.raises(ConfigurationError):
            overlay.recompute_auxiliary(node_id, -1, chord_optimal, random.Random(0))
        overlay.crash(node_id)
        with pytest.raises(NodeAbsentError, match="dead node"):
            overlay.recompute_auxiliary(node_id, 2, chord_optimal, random.Random(0))

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_telemetry_counts_recomputes_and_pointer_changes(self, small_universe, overlay_kind):
        overlay = seeded(small_universe, overlay_kind)
        optimal, __ = POLICIES[overlay_kind]
        telemetry = RoundTelemetry(rounds=1)
        overlay.attach_telemetry(telemetry)
        overlay.recompute_all_auxiliary(2, optimal, random.Random(0), 64)
        first = sum(len(overlay.node(node_id).auxiliary) for node_id in overlay.alive_ids())
        # Same frequencies, same answer: the second pass changes nothing.
        overlay.recompute_all_auxiliary(2, optimal, random.Random(0), 64)
        overlay.attach_telemetry(None)
        assert telemetry.spans.counts["selection.recompute"] == 2 * overlay.alive_count()
        assert telemetry.spans.work["selection.pointer_updates"] == first


class TestInstall:
    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_uniform_walk_is_ascending_through_the_overlay_method(
        self, small_universe, overlay_kind, monkeypatch
    ):
        overlay = seeded(small_universe, overlay_kind)
        calls: list[int] = []
        method = type(overlay).recompute_auxiliary

        def counted(self, node_id, *args):
            calls.append(node_id)
            return method(self, node_id, *args)

        monkeypatch.setattr(type(overlay), "recompute_auxiliary", counted)
        __, oblivious = POLICIES[overlay_kind]
        policy = Recording(oblivious)
        overlay.recompute_all_auxiliary(2, policy, random.Random(1), 64)
        assert calls == [problem.source for problem in policy.problems] == overlay.alive_ids()

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_plan_quotas_with_zero_for_nodes_left_out(self, small_universe, overlay_kind):
        overlay = seeded(small_universe, overlay_kind)
        left_out = overlay.alive_ids()[1]
        overlay.seed_frequencies(left_out, {})
        problems = selection.plan_problems(overlay, 64)
        assert left_out not in problems
        assert all(problem.k == 0 for problem in problems.values())
        allocation = allocate_greedy(curves_for_problems(problems, overlay_kind), 2 * len(problems))
        policy = Recording(POLICIES[overlay_kind][1])
        selection.install(overlay, allocation, policy, random.Random(1), 64)
        assert [problem.k for problem in policy.problems] == [
            allocation.quota(node_id) for node_id in overlay.alive_ids()
        ]
        assert overlay.node(left_out).auxiliary == set()


class TestChunkedInstall:
    """``install`` builds each chunk's problems first, then installs them
    one node at a time, exactly as the per-node loop would."""

    N = 2 * selection.INSTALL_CHUNK + 1

    @staticmethod
    def per_node(overlay, k, policy, rng, frequency_limit):
        for node_id in overlay.alive_ids():
            overlay.recompute_auxiliary(node_id, k, policy, rng, frequency_limit)

    @staticmethod
    def tables(overlay):
        return {node_id: set(overlay.node(node_id).auxiliary) for node_id in overlay.alive_ids()}

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_a_problem_ignores_other_nodes_auxiliaries(self, small_universe, overlay_kind):
        overlay = seeded(small_universe, overlay_kind)
        before = {
            node_id: selection.node_problem(overlay, node_id, 3, 64) for node_id in overlay.alive_ids()
        }
        self.per_node(overlay, 3, POLICIES[overlay_kind][0], random.Random(0), 64)
        assert any(self.tables(overlay).values())
        for node_id, problem in before.items():
            assert selection.node_problem(overlay, node_id, 3, 64) == problem

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_policy_called_once_per_node_ascending_in_chunks(self, small_universe, overlay_kind):
        overlay = seeded(small_universe, overlay_kind, n=self.N)
        policy = Recording(POLICIES[overlay_kind][0])
        selection.install(overlay, 2, policy, random.Random(1), 64)
        assert [problem.source for problem in policy.problems] == overlay.alive_ids()
        chunks = [problem.chunk for problem in policy.problems]
        sizes = [chunks.count(chunk) for chunk in dict.fromkeys(chunks)]
        # The last chunk would hold one node, so it joins the one before.
        assert sizes == [selection.INSTALL_CHUNK, selection.INSTALL_CHUNK + 1]

    @pytest.mark.parametrize("overlay_kind", OVERLAYS)
    def test_same_tables_and_rng_state_as_the_per_node_loop(self, small_universe, overlay_kind):
        for policy in POLICIES[overlay_kind]:
            chunked = seeded(small_universe, overlay_kind, n=self.N)
            looped = seeded(small_universe, overlay_kind, n=self.N)
            chunked_rng, looped_rng = random.Random(9), random.Random(9)
            selection.install(chunked, 3, policy, chunked_rng, 64)
            self.per_node(looped, 3, policy, looped_rng, 64)
            assert self.tables(chunked) == self.tables(looped)
            assert chunked_rng.getstate() == looped_rng.getstate()
