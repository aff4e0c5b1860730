"""The dense trie batch is the scalar eq. 4 greedy, problem by problem.

:func:`select_pastry_greedy_batch` solves many problems in one
level-by-level pass over their laid-out leaves. Every problem must get
the set and the ``==`` cost :func:`select_pastry_greedy` gives it (and
:func:`select_kademlia_greedy_batch` what :func:`select_kademlia_greedy`
gives), whatever the mix of budgets, core leaves, zero frequencies and
trie shapes in the batch. An install chunk hands the batch only the
problems it can take; the rest are solved at their own call.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import selection
from repro.core.kademlia_selection import select_kademlia_greedy, select_kademlia_greedy_batch
from repro.core.oblivious import select_pastry_oblivious
from repro.core.pastry_selection import (
    dense_batchable,
    select_pastry,
    select_pastry_greedy,
    select_pastry_greedy_batch,
)
from repro.core.types import SelectionProblem
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace

WEIGHTS = st.one_of(
    st.just(0.0),
    st.integers(0, 40).map(float),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw, bits: int) -> SelectionProblem:
    """0–60 peers, each observed, core-only or an observed core
    neighbor; sometimes every id shares the top bit (a unary root)."""
    space = IdSpace(bits)
    top = 1 << (bits - 1)
    source = draw(st.integers(0, space.size - 1))
    peers = draw(st.lists(st.integers(0, space.size - 1), max_size=60, unique=True))
    if draw(st.booleans()):
        side = draw(st.sampled_from([0, top]))
        peers = sorted({(peer & ~top) | side for peer in peers})
    frequencies: dict[int, float] = {}
    core: set[int] = set()
    for peer in peers:
        if peer == source:
            continue
        role = draw(st.sampled_from(["observed", "core", "observed core"]))
        if role != "core":
            frequencies[peer] = draw(WEIGHTS)
        if role != "observed":
            core.add(peer)
    return SelectionProblem(space, source, frequencies, frozenset(core), draw(st.integers(0, 12)))


BATCHES = st.sampled_from([*range(1, 17), 32]).flatmap(
    lambda bits: st.lists(problems(bits), min_size=1, max_size=20)
)


def _single_peer_and_empty() -> list[SelectionProblem]:
    """Edge problems, and a budget far past the peer count."""
    space = IdSpace(8)
    return [
        SelectionProblem(space, 5, {}, frozenset(), 3),
        SelectionProblem(space, 5, {200: 2.0}, frozenset(), 3),
        SelectionProblem(space, 5, {200: 2.0}, frozenset(), 0),
        SelectionProblem(space, 5, {}, frozenset({7}), 3),
        SelectionProblem(space, 5, {7: 1.5}, frozenset({7}), 2),
        SelectionProblem(space, 5, {7: 0.0}, frozenset(), 1),
        SelectionProblem(space, 5, {7: 1.0, 90: 2.0}, frozenset({91}), 10**30),
    ]


def assert_matches(results, expected_results) -> None:
    assert len(results) == len(expected_results)
    for result, expected in zip(results, expected_results):
        assert result.auxiliary == expected.auxiliary
        assert result.cost == expected.cost
        assert result.algorithm == expected.algorithm


@settings(max_examples=150, deadline=None)
@given(BATCHES)
@example(_single_peer_and_empty())
def test_pastry_batch_equals_the_scalar_greedy(batch):
    assert_matches(select_pastry_greedy_batch(batch), [select_pastry_greedy(p) for p in batch])


@settings(max_examples=60, deadline=None)
@given(BATCHES)
@example(_single_peer_and_empty())
def test_kademlia_batch_equals_the_scalar_greedy(batch):
    assert_matches(select_kademlia_greedy_batch(batch), [select_kademlia_greedy(p) for p in batch])


def test_budgets_of_a_plan_per_problem():
    """Budget-plan quotas differ per node: one batch, k from 0 to 12."""
    rng = random.Random(4)
    space = IdSpace(16)
    batch = []
    for k in range(13):
        peers = rng.sample(range(1, space.size), 40)
        batch.append(
            SelectionProblem(
                space,
                0,
                {peer: float(rng.randint(0, 9)) for peer in peers[:30]},
                frozenset(peers[25:]),
                k,
            )
        )
    assert_matches(select_pastry_greedy_batch(batch), [select_pastry_greedy(p) for p in batch])


class TestFallbacks:
    def test_kernel_rejects_what_it_cannot_take(self):
        bounded = SelectionProblem(IdSpace(8), 1, {2: 1.0}, frozenset(), 1, delay_bounds={2: 1})
        wide = SelectionProblem(IdSpace(64), 1, {2: 1.0}, frozenset(), 1)
        for problem in (bounded, wide):
            assert not dense_batchable(problem)
            with pytest.raises(ConfigurationError, match="53 bits"):
                select_pastry_greedy_batch([problem])

    @staticmethod
    def chunk_of(problems, spy_calls):
        """An install chunk over ``problems`` and a policy whose batch
        form records each batch it is given."""
        chunk = selection.InstallChunk()
        chunk.problems = [dataclasses.replace(problem, chunk=chunk) for problem in problems]

        def spy_batch(batch):
            spy_calls.append([problem.source for problem in batch])
            return select_pastry_greedy_batch(batch)

        optimal, __ = selection.policies(select_pastry, select_pastry_oblivious, spy_batch)
        return chunk, optimal

    def test_delay_bounds_and_wide_ids_are_solved_at_their_own_call(self):
        space = IdSpace(8)
        problems = [
            SelectionProblem(space, 1, {2: 1.0, 90: 3.0}, frozenset({200}), 1),
            SelectionProblem(space, 3, {2: 1.0, 90: 3.0}, frozenset(), 1, delay_bounds={2: 1}),
            SelectionProblem(space, 4, {9: 2.0, 140: 1.0, 141: 5.0}, frozenset({2}), 2),
        ]
        calls: list = []
        chunk, optimal = self.chunk_of(problems, calls)
        for problem in chunk.problems:
            assert optimal(problem, random.Random(0)) == select_pastry(problem)
        assert calls == [[1, 4]]
        assert optimal(chunk.problems[1], random.Random(0)).algorithm == "pastry-dp"

        wide = IdSpace(64)
        calls.clear()
        chunk, optimal = self.chunk_of(
            [SelectionProblem(wide, source, {2: 1.0, 1 << 60: 2.0}, frozenset(), 1) for source in (5, 6)],
            calls,
        )
        for problem in chunk.problems:
            assert optimal(problem, random.Random(0)) == select_pastry(problem)
        assert calls == []

    def test_a_lone_batchable_problem_and_a_copy_stay_scalar(self):
        space = IdSpace(8)
        plain = SelectionProblem(space, 1, {2: 1.0, 90: 3.0}, frozenset(), 1)
        bounded = SelectionProblem(space, 3, {2: 1.0}, frozenset(), 1, delay_bounds={2: 1})
        calls: list = []
        chunk, optimal = self.chunk_of([plain, bounded], calls)
        assert optimal(chunk.problems[0], random.Random(0)) == select_pastry(plain)
        assert calls == []

        chunk, optimal = self.chunk_of([plain, dataclasses.replace(plain, source=3)], calls)
        # A copy carrying the chunk is not one of its problems.
        copy = dataclasses.replace(chunk.problems[0], k=0)
        assert optimal(copy, random.Random(0)) == select_pastry(copy)
        assert optimal(chunk.problems[0], random.Random(0)) == select_pastry(plain)
        assert calls == [[1, 3]]
