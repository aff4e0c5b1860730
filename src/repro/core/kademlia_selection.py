"""Eq.-1 auxiliary selection for Kademlia's XOR metric (Section III).

Kademlia routes by XOR distance: a lookup for ``key`` at node ``u``
forwards to the known contact minimizing ``contact XOR key``, halving the
distance every hop. The hop-count estimate between ``u`` and ``v`` is
therefore the XOR *distance class*

``d_uv = bitlength(u XOR v) = b - lcp(u, v)``

— exactly Pastry's prefix distance (:meth:`repro.util.ids.IdSpace.pastry_distance`).
Distance classes are common-prefix lengths, so the paper's eq.-1 objective

``Cost(A_s) = sum_v f_v * (1 + d(v, N_s ∪ A_s))``

is *identical* for the two overlays, and the trie machinery of
:mod:`repro.core.pastry_selection` (the ``O(n k^2)`` DP of Section IV-A
and the ``O(n k)`` nesting-property greedy of Section IV-B, Lemma 4.1)
solves the Kademlia instance without modification: the trie groups peers
by shared prefix, which for XOR is grouping by distance class.

This module keeps that identity explicit rather than implicit:

* an independent scalar oracle (:func:`kademlia_peer_distance`,
  :func:`kademlia_cost_scalar`) written directly against ``bitlength(XOR)``
  so tests can confirm the Pastry delegation is not circular;
* a NumPy fast path (:func:`kademlia_cost_vectorized`) sharing the
  peer×pointer XOR matrix kernel of
  :func:`repro.core.cost.pastry_cost_vectorized`;
* solver entry points (:func:`select_kademlia_dp`,
  :func:`select_kademlia_greedy`, :func:`select_kademlia`, and the dense
  batch form :func:`select_kademlia_greedy_batch`) that delegate to the
  trie solvers and relabel the result so provenance survives in
  serialized documents.

Note the 160-bit caveat: a full-width Kademlia space exceeds the float64
exactness limit of the ``frexp`` bit-length trick, so
:func:`kademlia_cost` (like every kernel in :mod:`repro.core.cost`)
silently falls back to the scalar path above ``2**53`` — correctness
never depends on NumPy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Mapping

from repro.core import cost as _cost
from repro.core.pastry_selection import (
    select_pastry_dp,
    select_pastry_greedy,
    select_pastry_greedy_batch,
)
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.ids import IdSpace

__all__ = [
    "xor_distance_class",
    "kademlia_peer_distance",
    "kademlia_cost",
    "kademlia_cost_scalar",
    "kademlia_cost_vectorized",
    "select_kademlia",
    "select_kademlia_dp",
    "select_kademlia_greedy",
    "select_kademlia_greedy_batch",
]


def xor_distance_class(a: int, b: int) -> int:
    """The XOR distance class: ``bitlength(a XOR b)``.

    Equal to ``space.pastry_distance(a, b)`` for any space containing both
    ids — the identity this whole module rests on.
    """
    return (a ^ b).bit_length()


def kademlia_peer_distance(space: IdSpace, peer: int, pointers: Iterable[int]) -> int:
    """Estimated hops from the best pointer to ``peer`` under XOR routing.

    Independent scalar oracle (does not call into the Pastry kernels);
    returns ``space.bits`` (the worst case) when ``pointers`` is empty.
    """
    best = space.bits
    for pointer in pointers:
        best = min(best, xor_distance_class(pointer, peer))
        if best == 0:
            break
    return best


def kademlia_cost_scalar(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """Objective value (eq. 1) for a Kademlia pointer set — scalar oracle."""
    pointers = list(core_neighbors) + list(auxiliary)
    return sum(
        weight * (1 + kademlia_peer_distance(space, peer, pointers))
        for peer, weight in frequencies.items()
    )


def kademlia_cost_vectorized(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """NumPy-batched :func:`kademlia_cost_scalar`: the peer×pointer XOR
    matrix with an axis-1 bit-length minimum — byte for byte the Pastry
    kernel, because the metrics coincide."""
    return _cost.pastry_cost_vectorized(space, frequencies, core_neighbors, auxiliary)


def kademlia_cost(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """Objective value (eq. 1) for a Kademlia pointer set.

    Dispatches to the NumPy kernel for large instances within the exact
    float64 range, the scalar oracle otherwise (including every space
    wider than 53 bits — the canonical 160-bit deployment).
    """
    if _cost._vectorizable(space, len(frequencies)):
        return kademlia_cost_vectorized(space, frequencies, core_neighbors, auxiliary)
    return kademlia_cost_scalar(space, frequencies, core_neighbors, auxiliary)


def _relabel(result: SelectionResult, algorithm: str) -> SelectionResult:
    return replace(result, algorithm=algorithm)


def select_kademlia_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal XOR-metric selection via the Section IV-A dynamic program.

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when they cannot
    be met with ``k`` pointers.
    """
    return _relabel(select_pastry_dp(problem), "kademlia-dp")


def select_kademlia_greedy(problem: SelectionProblem) -> SelectionResult:
    """Optimal XOR-metric selection via the Section IV-B nesting-property
    greedy (Lemma 4.1 holds verbatim: distance classes are prefix
    lengths). Does not accept QoS bounds — use the DP for those."""
    return _relabel(select_pastry_greedy(problem), "kademlia-greedy")


def select_kademlia_greedy_batch(problems: list[SelectionProblem]) -> list[SelectionResult]:
    """:func:`select_kademlia_greedy` on many problems in one dense pass
    (:func:`repro.core.pastry_selection.select_pastry_greedy_batch`)."""
    return [_relabel(result, "kademlia-greedy") for result in select_pastry_greedy_batch(problems)]


def select_kademlia(problem: SelectionProblem) -> SelectionResult:
    """Solve a Kademlia selection problem with the appropriate algorithm:
    the DP when QoS bounds are present, the faster greedy otherwise."""
    if problem.delay_bounds:
        return select_kademlia_dp(problem)
    return select_kademlia_greedy(problem)
