"""Shared helpers for building randomized selection problems in tests."""

from __future__ import annotations

import random
from unittest import mock

from repro.core import chord_selection
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.ids import IdSpace


def random_problem(
    rng: random.Random,
    bits: int = 8,
    peers: int = 8,
    cores: int = 2,
    k: int = 2,
    max_weight: int = 20,
) -> SelectionProblem:
    """Build a random selection problem with integer weights.

    Integer weights keep cost comparisons exact, so optimal algorithms can
    be compared for equality without floating-point tolerance games.
    """
    space = IdSpace(bits)
    source = rng.randrange(space.size)
    # Sample from the range lazily (a 32-bit space must never be
    # materialized); over-draw by one in case the source is hit.
    want = min(peers + cores, space.size - 1)
    chosen = [value for value in rng.sample(range(space.size), want + 1) if value != source]
    chosen = chosen[: want]
    peer_ids = chosen[:peers]
    core_ids = chosen[peers:]
    frequencies = {peer: float(rng.randint(1, max_weight)) for peer in peer_ids}
    return SelectionProblem(
        space=space,
        source=source,
        frequencies=frequencies,
        core_neighbors=frozenset(core_ids),
        k=k,
    )


def problem_from_lists(
    bits: int,
    source: int,
    peer_weights: dict[int, float],
    cores: list[int],
    k: int,
    bounds: dict[int, int] | None = None,
) -> SelectionProblem:
    """Convenience constructor for hand-written instances."""
    return SelectionProblem(
        space=IdSpace(bits),
        source=source,
        frequencies=peer_weights,
        core_neighbors=frozenset(cores),
        k=k,
        delay_bounds=bounds or {},
    )


def chord_divide_and_conquer(problem: SelectionProblem) -> SelectionResult:
    """``select_chord_fast`` with its dense layer solve switched off, so
    every layer runs the Section V-B divide and conquer."""
    with mock.patch.object(chord_selection, "_DENSE_MAX_PEERS", 0):
        return chord_selection.select_chord_fast(problem)
