"""Evaluation of the paper's objective function (Section III, eq. 1).

``Cost(A_s) = sum_v f_v * (1 + d(v, N_s ∪ A_s))`` where ``d`` is the
overlay-specific hop-count estimate:

* **Pastry** (Section IV): ``d_uv = b - lcp(u, v)`` — symmetric, so the
  relevant quantity is simply the distance between ``v`` and its closest
  (by prefix) pointer.
* **Chord** (Section V, eq. 6): ``d_uv = bitlength((v - u) mod 2**b)`` —
  asymmetric. Queries travel *clockwise*, so only pointers at or before
  ``v`` (walking clockwise from the source) can serve ``v``; because the
  gap-to-bitlength map is monotone, the best pointer for ``v`` is the
  closest preceding one.

Two implementations are provided for each evaluator:

* a scalar pure-Python version (``*_scalar``) — the ground truth every
  selection algorithm is tested against, and the only path for ids of
  more than 53 bits;
* a NumPy-batched version (``*_vectorized``) — frequency weights, peer
  ids and pointer offsets live in arrays; ``bit_length`` is computed via
  ``np.frexp`` exponents (exact for ids below ``2**53``) and the
  closest-preceding-pointer rule via ``np.searchsorted``.

The public :func:`pastry_cost` / :func:`chord_cost` entry points dispatch
by input size: instances with at least :data:`VECTORIZE_THRESHOLD`
frequency entries use the vectorized kernels, smaller ones the scalar
reference (whose per-call overhead is lower).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace

__all__ = [
    "VECTORIZE_THRESHOLD",
    "pastry_peer_distance",
    "chord_peer_distance",
    "pastry_cost",
    "pastry_cost_scalar",
    "pastry_cost_vectorized",
    "chord_cost",
    "chord_cost_scalar",
    "chord_cost_vectorized",
    "chord_sorted_offsets",
    "evaluate",
    "brute_force_optimal",
]

#: Minimum number of frequency entries before the NumPy kernels win over
#: the scalar loops (array setup costs ~10µs per call).
VECTORIZE_THRESHOLD = 64

#: ``np.frexp`` exponents equal ``int.bit_length`` only while the value is
#: exactly representable as a float64, i.e. below ``2**53``.
_MAX_VECTOR_BITS = 53


def _vectorizable(space: IdSpace, entries: int) -> bool:
    return entries >= VECTORIZE_THRESHOLD and space.bits <= _MAX_VECTOR_BITS


def _bit_lengths(values):
    """Elementwise ``int.bit_length`` of a non-negative integer array.

    ``frexp(x) = (m, e)`` with ``x = m * 2**e`` and ``0.5 <= m < 1``, so
    ``e`` is exactly the bit length for positive integers (and 0 for 0).
    """
    _, exponents = np.frexp(values.astype(np.float64))
    return exponents


def pastry_peer_distance(space: IdSpace, peer: int, pointers: Iterable[int]) -> int:
    """Estimated hops from the best pointer to ``peer`` under Pastry routing.

    Returns ``space.bits`` (the worst case) when ``pointers`` is empty.
    """
    best = space.bits
    for pointer in pointers:
        best = min(best, space.pastry_distance(pointer, peer))
        if best == 0:
            break
    return best


def chord_peer_distance(space: IdSpace, source: int, peer: int, pointers: Iterable[int]) -> int:
    """Estimated hops from the best pointer to ``peer`` under Chord routing.

    Only pointers in the clockwise arc ``(source, peer]`` are usable; the
    query must not overshoot the destination. Returns ``space.bits`` when no
    pointer can serve ``peer``.
    """
    target_gap = space.gap(source, peer)
    best = space.bits
    for pointer in pointers:
        pointer_gap = space.gap(source, pointer)
        if 0 < pointer_gap <= target_gap:
            best = min(best, space.chord_distance(pointer, peer))
            if best == 0:
                break
    return best


# ----------------------------------------------------------------------
# Pastry cost
# ----------------------------------------------------------------------


def pastry_cost_scalar(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """Objective value (eq. 1) for a Pastry pointer set — scalar reference."""
    pointers = list(core_neighbors) + list(auxiliary)
    return sum(
        weight * (1 + pastry_peer_distance(space, peer, pointers))
        for peer, weight in frequencies.items()
    )


def pastry_cost_vectorized(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """NumPy-batched :func:`pastry_cost_scalar`.

    ``d(u, v) = bitlength(u XOR v)``: the peer×pointer XOR matrix is
    reduced with an axis-1 minimum, so the whole evaluation is three
    array ops regardless of instance size.
    """
    count = len(frequencies)
    peers = np.fromiter(frequencies.keys(), dtype=np.int64, count=count)
    weights = np.fromiter(frequencies.values(), dtype=np.float64, count=count)
    pointers = np.array(list(core_neighbors) + list(auxiliary), dtype=np.int64)
    if pointers.size == 0:
        return float(weights.sum() * (1 + space.bits))
    distances = _bit_lengths(peers[:, None] ^ pointers[None, :]).min(axis=1)
    return float(np.dot(weights, 1.0 + distances))


def pastry_cost(
    space: IdSpace,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
) -> float:
    """Objective value (eq. 1) for a Pastry pointer set.

    Dispatches to the NumPy kernel for large instances, the scalar
    reference otherwise.
    """
    if _vectorizable(space, len(frequencies)):
        return pastry_cost_vectorized(space, frequencies, core_neighbors, auxiliary)
    return pastry_cost_scalar(space, frequencies, core_neighbors, auxiliary)


# ----------------------------------------------------------------------
# Chord cost
# ----------------------------------------------------------------------


def chord_sorted_offsets(
    space: IdSpace,
    source: int,
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int] = (),
) -> list[int]:
    """Sorted clockwise offsets of a pointer set, as :func:`chord_cost`
    consumes them.

    Callers that evaluate many pointer sets sharing a fixed component
    (e.g. brute-force search over auxiliary subsets with fixed core
    neighbors) can build this once and pass it via ``sorted_offsets``,
    hoisting the set-union and gap computation out of the inner loop.
    """
    return sorted(
        space.gap(source, pointer)
        for pointer in set(core_neighbors) | set(auxiliary)
        if pointer != source
    )


def chord_cost_scalar(
    space: IdSpace,
    source: int,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
    *,
    sorted_offsets: Sequence[int] | None = None,
) -> float:
    """Objective value (eq. 1) for a Chord pointer set — scalar reference.

    Uses the closest-preceding-pointer rule: for each peer the serving
    pointer is the one with the largest clockwise offset from ``source``
    not exceeding the peer's own offset.
    """
    if sorted_offsets is None:
        sorted_offsets = chord_sorted_offsets(space, source, core_neighbors, auxiliary)
    total = 0.0
    for peer, weight in frequencies.items():
        target_gap = space.gap(source, peer)
        index = bisect_right(sorted_offsets, target_gap)
        if index == 0:
            distance = space.bits
        else:
            distance = (target_gap - sorted_offsets[index - 1]).bit_length()
        total += weight * (1 + distance)
    return total


def chord_cost_vectorized(
    space: IdSpace,
    source: int,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
    *,
    sorted_offsets: Sequence[int] | None = None,
) -> float:
    """NumPy-batched :func:`chord_cost_scalar`.

    The closest preceding pointer for every peer comes from one
    ``searchsorted`` over the sorted offsets; hop distances from the
    ``frexp``-exponent bit-length trick.
    """
    mask = np.int64(space.mask)
    if sorted_offsets is None:
        pointers = np.array(list(core_neighbors) + list(auxiliary), dtype=np.int64)
        offsets = np.unique((pointers - source) & mask)
        if offsets.size and offsets[0] == 0:  # the source itself is not a pointer
            offsets = offsets[1:]
    else:
        offsets = np.asarray(sorted_offsets, dtype=np.int64)
    count = len(frequencies)
    peers = np.fromiter(frequencies.keys(), dtype=np.int64, count=count)
    weights = np.fromiter(frequencies.values(), dtype=np.float64, count=count)
    gaps = (peers - source) & mask
    if offsets.size == 0:
        return float(weights.sum() * (1 + space.bits))
    index = np.searchsorted(offsets, gaps, side="right")
    preceding = offsets[np.maximum(index - 1, 0)]
    distances = np.where(index > 0, _bit_lengths(gaps - preceding), space.bits)
    return float(np.dot(weights, 1.0 + distances))


def chord_cost(
    space: IdSpace,
    source: int,
    frequencies: Mapping[int, float],
    core_neighbors: Iterable[int],
    auxiliary: Iterable[int],
    *,
    sorted_offsets: Sequence[int] | None = None,
) -> float:
    """Objective value (eq. 1) for a Chord pointer set.

    Dispatches to the NumPy kernel for large instances, the scalar
    reference otherwise. ``sorted_offsets`` optionally supplies the
    pointer offsets precomputed by :func:`chord_sorted_offsets`.
    """
    if _vectorizable(space, len(frequencies)):
        return chord_cost_vectorized(
            space, source, frequencies, core_neighbors, auxiliary, sorted_offsets=sorted_offsets
        )
    return chord_cost_scalar(
        space, source, frequencies, core_neighbors, auxiliary, sorted_offsets=sorted_offsets
    )


# ----------------------------------------------------------------------
# Generic evaluation + brute force
# ----------------------------------------------------------------------


def evaluate(problem: SelectionProblem, auxiliary: Iterable[int], overlay: str) -> float:
    """Evaluate eq. 1 for ``auxiliary`` under ``overlay`` ('pastry',
    'kademlia' or 'chord').

    Kademlia's XOR metric has ``d_uv = bitlength(u XOR v) = b - lcp(u, v)``
    — the same distance classes as Pastry — so both share the prefix
    kernel (see :mod:`repro.core.kademlia_selection`).
    """
    if overlay in ("pastry", "kademlia"):
        return pastry_cost(problem.space, problem.frequencies, problem.core_neighbors, auxiliary)
    if overlay == "chord":
        return chord_cost(
            problem.space, problem.source, problem.frequencies, problem.core_neighbors, auxiliary
        )
    raise ConfigurationError(
        f"unknown overlay {overlay!r}; expected 'pastry', 'kademlia' or 'chord'"
    )


def brute_force_optimal(problem: SelectionProblem, overlay: str) -> SelectionResult:
    """Exhaustively search all candidate subsets of size <= k.

    Exponential — intended only for tests on tiny instances, where it serves
    as ground truth for the polynomial algorithms. QoS bounds are honored:
    subsets leaving any bounded peer above its limit are rejected.
    """
    candidates = sorted(problem.candidates)
    space = problem.space
    core_offsets = (
        chord_sorted_offsets(space, problem.source, problem.core_neighbors)
        if overlay == "chord"
        else None
    )
    core_offset_set = set(core_offsets) if core_offsets is not None else set()
    best_cost = float("inf")
    best_set: tuple[int, ...] = ()
    sizes = range(min(problem.k, len(candidates)), -1, -1)
    for size in sizes:
        for subset in combinations(candidates, size):
            if not _satisfies_bounds(problem, subset, overlay):
                continue
            if core_offsets is not None:
                offsets = list(core_offsets)
                for pointer in subset:
                    if pointer != problem.source:
                        gap = space.gap(problem.source, pointer)
                        if gap not in core_offset_set:
                            insort(offsets, gap)
                cost = chord_cost(
                    space,
                    problem.source,
                    problem.frequencies,
                    problem.core_neighbors,
                    subset,
                    sorted_offsets=offsets,
                )
            else:
                cost = evaluate(problem, subset, overlay)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_set = subset
    if best_cost == float("inf"):
        raise InfeasibleConstraintError(
            f"no subset of size <= {problem.k} satisfies the delay bounds"
        )
    return SelectionResult(frozenset(best_set), best_cost, "brute-force")


def _satisfies_bounds(problem: SelectionProblem, auxiliary: tuple[int, ...], overlay: str) -> bool:
    """Check the QoS delay bounds (lookup estimate ``1 + d`` <= bound)."""
    if not problem.delay_bounds:
        return True
    pointers = list(problem.core_neighbors) + list(auxiliary)
    for peer, bound in problem.delay_bounds.items():
        if overlay in ("pastry", "kademlia"):
            distance = pastry_peer_distance(problem.space, peer, pointers)
        else:
            distance = chord_peer_distance(problem.space, problem.source, peer, pointers)
        if 1 + distance > bound:
            return False
    return True
