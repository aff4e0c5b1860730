"""Auxiliary-neighbor selection for Chord (paper Section V).

All ids are mapped into the frame of the selecting node (the paper's
"zero-node"): peer ``l`` becomes its clockwise gap ``g_l = (id_l - id_s)
mod 2**b``, and the hop estimate from a pointer at gap ``w`` to a peer at
gap ``g >= w`` is ``bitlength(g - w)`` (eq. 6). Because the gap-to-hops map
is monotone, every peer is served by its *closest preceding* pointer, which
is what makes the interval dynamic program work:

``C_i(m) = min_{1<=j<=m} [ C_{i-1}(j-1) + s(j, m) ]``            (eq. 7)

with ``s(j, m)`` the cost of serving peers ``j+1 .. m`` given a pointer at
peer ``j`` plus the core neighbors (eq. 8).

Solvers:

* :func:`select_chord_dp` — the ``O(n^2 k)`` dynamic program of Section
  V-A: tabulates ``s(j, m)`` by linear sweeps and takes explicit minima.
  Supports QoS delay bounds (Section V-C) by declaring violating
  placements infeasible.
* :func:`select_chord_fast` — Section V-B. Three ingredients:

  1. cumulative frequencies ``F`` and, per anchor, the farthest-peer
     tables ``p_w(r)`` with prefix sums of ``r * (F(p_w(r)) - F(p_w(r-1)))``
     (eq. 9), so any core-free span's cost is O(1) after an O(log n)
     index lookup;
  2. segment splitting at core neighbors with cumulative full-segment
     costs (eq. 10), so any ``s(j, m)`` costs ``O(log n + log b)``;
  3. a layer solver in place of the paper's reference [9]. ``s``
     satisfies the Monge/concavity condition (extending the span by one
     peer costs less under a closer pointer), hence the optimal ``j`` is
     monotone in ``m``. Up to :data:`_DENSE_MAX_PEERS` peers with ids of
     at most 53 bits, ``s(j, m)`` of every candidate ``j`` is built once
     from the eq. 9/10 tables, bit-identical to the scalar queries, and
     each of the ``k`` layers is one masked leftmost argmin per ``m``. Larger
     or wider instances use divide and conquer over the scalar queries
     (``O(n log n)`` evaluations per layer). Divide and conquer is also
     the exact fallback: it picks the leftmost column minima whenever
     they are non-decreasing in ``m``, so a layer whose minima are not
     (float rounding under heavy ties can do that) is solved by it.

:func:`select_chord` dispatches: QoS bounds or tiny instances use the DP,
everything else the fast solver.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cost import _MAX_VECTOR_BITS, _bit_lengths
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError

__all__ = ["select_chord", "select_chord_dp", "select_chord_fast"]

_INF = float("inf")

#: Largest instance :func:`select_chord_fast` solves on the dense ``s(j, m)``
#: matrix (the default ``frequency_limit``; a 512 KB float64 matrix).
#: Larger or wider-id instances keep the divide-and-conquer layer solver.
_DENSE_MAX_PEERS = 256


@dataclass
class _ChordInstance:
    """A selection problem normalized to the selecting node's frame.

    ``gaps[i]``/``weights[i]``/``ids[i]`` describe the i-th peer in
    clockwise order (0-based internally; the paper's indices are 1-based).
    ``core_gaps`` are the clockwise offsets of the core neighbors.
    ``candidate_flags[i]`` marks peers eligible to carry an auxiliary
    pointer. ``bounds[i]`` is the max allowed ``1 + d`` (or ``None``).
    Lists, except from :func:`_normalize_arrays`.
    """

    bits: int
    gaps: list[int]
    weights: list[float]
    ids: list[int]
    core_gaps: list[int]
    candidate_flags: list[bool]
    bounds: list[int | None]

    @property
    def n(self) -> int:
        return len(self.gaps)


def _normalize(problem: SelectionProblem) -> _ChordInstance:
    space = problem.space
    source = problem.source
    entries: dict[int, float] = dict(problem.frequencies)
    for peer in problem.delay_bounds:
        entries.setdefault(peer, 0.0)
    # Distinct peers have distinct gaps, so the gaps key the peers.
    peer_at = {space.gap(source, peer): peer for peer in entries}
    gaps = sorted(peer_at)
    order = [peer_at[gap] for gap in gaps]
    weights = [float(entries[peer]) for peer in order]
    core = set(problem.core_neighbors)
    candidate_flags = [peer not in core for peer in order]
    bounds = [problem.delay_bounds.get(peer) for peer in order]
    core_gaps = sorted(space.gap(source, neighbor) for neighbor in core)
    return _ChordInstance(
        bits=space.bits,
        gaps=gaps,
        weights=weights,
        ids=order,
        core_gaps=core_gaps,
        candidate_flags=candidate_flags,
        bounds=bounds,
    )


def _normalize_arrays(problem: SelectionProblem) -> _ChordInstance:
    """:func:`_normalize` straight to arrays, for the dense path: int64
    gaps and core gaps, float64 weights, bool candidate flags, no bounds;
    ``ids`` stays a list."""
    space, source, frequencies = problem.space, problem.source, problem.frequencies
    peers = np.fromiter(frequencies, np.int64, len(frequencies))
    gaps = (peers - source) & space.mask
    order = gaps.argsort()  # distinct peers have distinct gaps
    gaps = gaps[order]
    cores = np.sort((np.fromiter(problem.core_neighbors, np.int64) - source) & space.mask)
    at = gaps.searchsorted(cores)  # a core on a peer's gap makes it no candidate
    flags = np.ones(gaps.size, dtype=bool)
    flags[at[gaps.take(at, mode="clip") == cores]] = False
    weights = np.fromiter(frequencies.values(), np.float64, gaps.size)[order]
    return _ChordInstance(space.bits, gaps, weights, peers[order].tolist(), cores, flags, ())


def _serving_distance(inst: _ChordInstance, pointer_gap: int | None, peer_gap: int) -> int:
    """Hops from the best of ``{pointer} ∪ cores`` preceding ``peer_gap``."""
    best = pointer_gap if pointer_gap is not None and pointer_gap <= peer_gap else None
    index = bisect_right(inst.core_gaps, peer_gap)
    if index:
        core = inst.core_gaps[index - 1]
        best = core if best is None else max(best, core)
    if best is None:
        return inst.bits
    return (peer_gap - best).bit_length()


def _vectorizable(inst: _ChordInstance) -> bool:
    return inst.bits <= _MAX_VECTOR_BITS and inst.n > 0


def _base_costs(inst: _ChordInstance) -> Sequence[float]:
    """``C_0(m)``: prefix costs (and QoS feasibility) with cores only.

    ``base[m]`` covers peers ``0 .. m-1`` (m = paper's 1-based index).
    Unconstrained instances use one NumPy sweep (searchsorted over the
    core offsets + cumulative sum) and return an array; QoS-bounded ones
    keep the scalar loop, which must track per-peer infeasibility.
    """
    if _vectorizable(inst) and not any(bound is not None for bound in inst.bounds):
        gaps = np.asarray(inst.gaps, dtype=np.int64)
        weights = np.asarray(inst.weights, dtype=np.float64)
        cores = np.asarray(inst.core_gaps, dtype=np.int64)
        if cores.size == 0:
            distances = np.full(inst.n, inst.bits, dtype=np.int64)
        else:
            index = np.searchsorted(cores, gaps, side="right")
            preceding = cores[np.maximum(index - 1, 0)]
            distances = np.where(index > 0, _bit_lengths(gaps - preceding), inst.bits)
        base = np.empty(inst.n + 1, dtype=np.float64)
        base[0] = 0.0
        np.cumsum(weights * distances, out=base[1:])
        return base
    base = [0.0]
    running = 0.0
    for i in range(inst.n):
        if running != _INF:
            distance = _serving_distance(inst, None, inst.gaps[i])
            bound = inst.bounds[i]
            if bound is not None and 1 + distance > bound:
                running = _INF
            else:
                running += inst.weights[i] * distance
        base.append(running)
    return base


def _span_cost_table(inst: _ChordInstance, j: int) -> list[float]:
    """All ``s(j+1, m)`` for one 0-based pointer position ``j`` by a linear
    sweep: ``table[m]`` is the cost of peers ``j+1 .. m-1`` (0-based) served
    by the pointer at peer ``j`` plus the cores. Used by the quadratic DP.
    """
    table = [0.0] * (inst.n + 1)
    running = 0.0
    pointer_gap = inst.gaps[j]
    for l in range(j + 1, inst.n):
        if running != _INF:
            distance = _serving_distance(inst, pointer_gap, inst.gaps[l])
            bound = inst.bounds[l]
            if bound is not None and 1 + distance > bound:
                running = _INF
            else:
                running += inst.weights[l] * distance
        table[l + 1] = running
    return table


def _reconstruct(parents: list[list[int]], layers: int, n: int) -> list[int]:
    """Follow the recorded argmins back to the chosen 0-based positions."""
    chosen: list[int] = []
    i, m = layers, n
    while i > 0:
        j = parents[i][m]
        if j == 0:
            i -= 1  # this layer added no pointer
            continue
        chosen.append(j - 1)  # store as 0-based peer index
        m = j - 1
        i -= 1
    return chosen


def _result(ids: list[int], weights: list[float], chosen_positions: list[int], cost_without_plus_one: float, algorithm: str) -> SelectionResult:
    """The chosen peers' ids, and the cost with each query's first hop
    added: ``sum`` over Python floats, the same sum for every solver."""
    auxiliary = frozenset(ids[pos] for pos in chosen_positions)
    return SelectionResult(auxiliary, cost_without_plus_one + sum(weights), algorithm)


def select_chord_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n^2 k)`` dynamic program (Section V-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when no placement
    of ``k`` pointers satisfies them.
    """
    inst = _normalize(problem)
    n = inst.n
    span_tables = [_span_cost_table(inst, j) for j in range(n)]
    current = [float(cost) for cost in _base_costs(inst)]
    k_eff = min(problem.k, sum(inst.candidate_flags))
    parents: list[list[int]] = [[0] * (n + 1)]
    for _layer in range(k_eff):
        previous = current
        current = list(previous)  # option: do not place this pointer
        parent_row = [0] * (n + 1)
        for m in range(1, n + 1):
            best = current[m]
            best_j = 0
            for j in range(1, m + 1):
                if not inst.candidate_flags[j - 1]:
                    continue
                value = previous[j - 1] + span_tables[j - 1][m]
                if value < best:
                    best = value
                    best_j = j
            current[m] = best
            parent_row[m] = best_j
        parents.append(parent_row)
    if current[n] == _INF:
        raise InfeasibleConstraintError(
            f"QoS delay bounds cannot be met with k={problem.k} auxiliary pointers"
        )
    chosen = _reconstruct(parents, k_eff, n)
    return _result(inst.ids, inst.weights, chosen, current[n], "chord-dp")


def _anchor_tables(
    gaps: np.ndarray, core_gaps: np.ndarray, prefix: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """The eq. 9 tables of the anchors ``gaps ++ core_gaps`` (peer ``j``
    is column ``j``, core ``t`` column ``n + t``), one row per hop count
    ``d = 0 .. b`` of a span: ``inner[d, w]`` is ``sum_{r<d} r *
    (F(p_w(r)) - F(p_w(r-1)))`` and ``reached[d, w]`` is ``F(p_w(d-1))``,
    both 0.0 at ``d = 0``, where ``p_w(r)`` counts the peers with a gap of
    at most ``w + 2**r - 1`` and ``F = prefix``. One ``searchsorted``
    resolves every anchor and radius; each anchor's sum runs left to
    right, as the scalar loop of :class:`_SpanOracle` does.
    """
    anchors = np.concatenate((gaps, core_gaps))
    radii = np.arange(bits, dtype=np.int64)
    reach = gaps.searchsorted(((1 << radii) - 1)[:, None] + anchors, "right")
    inner, reached = np.zeros((2, bits + 1, anchors.size))
    reached[1:] = prefix[reach]
    np.cumsum(radii[1:, None] * (reached[2:] - reached[1:-1]), axis=0, out=inner[2:])
    return inner, reached


class _SpanOracle:
    """Answers ``s(j, m)`` queries in ``O(log n + log b)`` (Section V-B).

    For every anchor gap ``w`` (each peer position and each core neighbor)
    it precomputes, over a span's hop count ``d = 1 .. b``:

    * ``reached[w][d]`` — ``F(p_w(d-1))``, where the paper's ``p_w(r)``
      is how many peers have a gap at most ``w + 2**r - 1`` and ``F`` the
      cumulative frequency;
    * ``inner[w][d]`` — the prefix sum
      ``sum_{r<d} r * (F(p_w(r)) - F(p_w(r-1)))`` of eq. 9.

    Spans containing core neighbors split at them (eq. 10); the costs of
    complete core-to-core segments are pre-accumulated so a query touches
    at most two partial segments.
    """

    def __init__(self, inst: _ChordInstance) -> None:
        self.inst = inst
        self.gaps = inst.gaps
        self._inner: dict[int, list[float]]
        self._reached: dict[int, list[float]]
        # Keyed by the instance's own int objects: a lookup then matches
        # by identity before it needs an ``==``.
        anchors = inst.gaps + inst.core_gaps
        if _vectorizable(inst):
            prefix = np.cumsum(np.concatenate(([0.0], np.asarray(inst.weights, dtype=np.float64))))
            inner, reached = _anchor_tables(
                np.asarray(inst.gaps, dtype=np.int64),
                np.asarray(inst.core_gaps, dtype=np.int64),
                prefix,
                inst.bits,
            )
            self.freq_prefix = prefix.tolist()
            self._inner = dict(zip(anchors, inner.T.tolist()))
            self._reached = dict(zip(anchors, reached.T.tolist()))
        else:
            # Scalar reference for ids over 53 bits.
            # Cumulative peer frequencies: F[c] = total weight of first c peers.
            self.freq_prefix = [0.0]
            for weight in inst.weights:
                self.freq_prefix.append(self.freq_prefix[-1] + weight)
            self._inner = {}
            self._reached = {}
            for gap in anchors:
                inner, reached = [0.0], [0.0]
                for r in range(inst.bits):
                    reach = self.freq_prefix[bisect_right(self.gaps, gap + (1 << r) - 1)]
                    inner.append(inner[-1] + r * (reach - reached[-1]))
                    reached.append(reach)
                self._inner[gap] = inner
                self._reached[gap] = reached
        # Cumulative costs of complete core→core segments (eq. 10).
        cores = inst.core_gaps
        self.segment_prefix = [0.0]
        for t in range(len(cores) - 1):
            cost = self._corefree_span(cores[t], cores[t + 1] - 1)
            self.segment_prefix.append(self.segment_prefix[-1] + cost)

    def _corefree_span(self, anchor: int, limit: int) -> float:
        """Cost of peers with gap in ``(anchor, limit]`` all served by a
        pointer at ``anchor`` (no core neighbor strictly inside) — eq. 9."""
        if limit <= anchor:
            return 0.0
        d_max = (limit - anchor).bit_length()
        upper = self.freq_prefix[bisect_right(self.gaps, limit)]
        return self._inner[anchor][d_max] + d_max * (upper - self._reached[anchor][d_max])

    def span_cost(self, j: int, m: int) -> float:
        """``s(j, m)`` with 1-based indices per the paper: cost of peers
        ``j+1 .. m`` given a pointer at peer ``j`` plus the cores."""
        if m <= j:
            return 0.0
        anchor = self.gaps[j - 1]
        limit = self.gaps[m - 1]
        cores = self.inst.core_gaps
        lo = bisect_right(cores, anchor)
        hi = bisect_right(cores, limit)
        if lo == hi:  # no core strictly inside the span
            return self._corefree_span(anchor, limit)
        head = self._corefree_span(anchor, cores[lo] - 1)
        middle = self.segment_prefix[hi - 1] - self.segment_prefix[lo]
        tail = self._corefree_span(cores[hi - 1], limit)
        return head + middle + tail



def _dense_spans(inst: _ChordInstance, rows: np.ndarray) -> np.ndarray:
    """``spans[m, c]`` is ``_SpanOracle(inst).span_cost(rows[c] + 1, m)``
    bit for bit where ``rows[c] < m``, else ``inf`` (``inst`` from
    :func:`_normalize_arrays`; ``m = 0 .. n``).

    Entries repeat the oracle's float operations in its order: ``inner +
    d * (F[upper] - reached)`` for a core-free span (eq. 9), ``(head +
    (segment[hi-1] - segment[lo])) + tail`` for one split at the cores
    strictly inside it (eq. 10). Core-free spans run from a candidate to
    the limits before its next core (the band); a split span's head
    depends on the pointer, its middle on ``(hi, lo)``, its tail on ``m``.
    """
    gaps, bits = inst.gaps, inst.bits
    n, c = gaps.size, rows.size
    # A sentinel core past every gap ends the last segment.
    cores = np.append(inst.core_gaps, 1 << bits)
    t = cores.size - 1
    prefix = np.cumsum(np.concatenate(([0.0], inst.weights)))
    inner, reached = (table.ravel() for table in _anchor_tables(gaps, cores, prefix, bits))
    floats = gaps.astype(np.float64)
    # span_cost's lo and hi: how many cores lie at or before the pointer
    # and the limit (none for m = 0). ``before[u]`` peers precede core u.
    covered = np.concatenate(([0], cores.searchsorted(gaps, "right")))
    lo = covered[rows + 1]
    last = np.maximum(covered[1:], 1) - 1  # the tail's core
    before = gaps.searchsorted(cores)
    ends = cores - 1.0  # a head or a segment ends just before its core
    # The band: candidate c reaches the limits rows[c] .. stop[c] - 1.
    stop = before[lo]
    lengths = stop - rows
    col = np.repeat(np.arange(c), lengths)
    limit = np.arange(col.size) + (rows + lengths - np.cumsum(lengths)).take(col)
    # Band, heads, tails and segments in one eq. 9 call. Gaps are below
    # 2**53: a float span is exact, its frexp exponent its bit length.
    anchor = np.concatenate((rows.take(col), rows, n + last, np.arange(n, n + t)))
    limits = np.concatenate((floats.take(limit), ends[lo], floats, ends[1:]))
    d = np.frexp(limits - np.concatenate((floats, cores)).take(anchor))[1]
    cell = d * (n + t + 1) + anchor
    upper = prefix[np.concatenate((limit + 1, stop, np.arange(1, n + 1), before[1:]))]
    parts = inner.take(cell) + d * (upper - reached.take(cell))
    size = col.size
    head, tail = parts[size : size + c], parts[size + c : size + c + n]
    segment = np.cumsum(np.concatenate(([0.0], parts[size + c + n :])))
    # middle[hi, lo] is inf unless a core lies strictly inside (hi > lo).
    count = np.arange(t + 1)
    middle = np.where(count[:, None] > count, segment[count - 1][:, None] - segment, _INF)
    spans = (head + middle.take(lo, axis=1)).take(covered, axis=0)
    spans[1:] += tail[:, None]
    spans.put((limit + 1) * c + col, parts[:size])
    return spans


def _solve_layer_dc(
    oracle: _SpanOracle,
    previous: list[float],
    candidates: list[int],
    current: list[float],
    parent_row: list[int],
) -> None:
    """One DP layer by divide and conquer over the Monge cost matrix.

    ``candidates`` holds the admissible 1-based pointer positions ``j``.
    ``current`` arrives pre-filled with the "place no pointer" option
    (``previous`` copied) and is lowered in place.
    """
    n = len(previous) - 1

    def weight(candidate_index: int, m: int) -> float:
        j = candidates[candidate_index]
        return previous[j - 1] + oracle.span_cost(j, m)

    def solve(m_lo: int, m_hi: int, c_lo: int, c_hi: int) -> None:
        if m_lo > m_hi or c_lo > c_hi:
            return
        m_mid = (m_lo + m_hi) // 2
        # Admissible candidates for m_mid: pointer position j <= m_mid.
        upper = bisect_right(candidates, m_mid) - 1
        best = _INF
        best_c = -1
        for c in range(c_lo, min(c_hi, upper) + 1):
            value = weight(c, m_mid)
            if value < best:
                best = value
                best_c = c
        if best_c < 0:
            # No candidate fits at m_mid, hence none for smaller m either.
            solve(m_mid + 1, m_hi, c_lo, c_hi)
            return
        if best < current[m_mid]:
            current[m_mid] = best
            parent_row[m_mid] = candidates[best_c]
        # Monge property of s(j, m): the (leftmost) optimal candidate index
        # is non-decreasing in m, so the halves need only straddle it.
        solve(m_lo, m_mid - 1, c_lo, best_c)
        solve(m_mid + 1, m_hi, best_c, c_hi)

    if candidates:
        solve(1, n, 0, len(candidates) - 1)


def _solve_layer_dense(
    spans: np.ndarray, rows: np.ndarray, offsets: np.ndarray, previous: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """One DP layer's costs and parent row by a leftmost argmin per row
    ``m`` of :func:`_dense_spans` (row ``m`` starts at ``offsets[m]``), or
    ``None``. When the leftmost minima are non-decreasing in ``m``,
    :func:`_solve_layer_dc` picks exactly them: each midpoint's candidate
    range runs from its left ancestor's pick to its right ancestor's. ``s``
    is Monge, so that always holds in real arithmetic; when float rounding
    breaks it under heavy ties, the caller solves the layer by divide and
    conquer instead.
    """
    values = spans + previous.take(rows)
    picks = values.argmin(axis=1)
    if np.count_nonzero(picks[1:] < picks[:-1]):
        return None
    best = values.take(offsets + picks)
    improve = best < previous  # the `<` test of _solve_layer_dc
    return np.where(improve, best, previous), (rows.take(picks) + 1) * improve


def select_chord_fast(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the fast algorithm of Section V-B: dense
    layers on the ``s(j, m)`` matrix up to :data:`_DENSE_MAX_PEERS` peers,
    divide and conquer (``O(n (b + k log b) log n)``-flavoured) above it
    and as the exact fallback; see the module docstring.

    Does not accept QoS bounds — use :func:`select_chord_dp` for those.
    """
    if problem.delay_bounds:
        raise ConfigurationError("fast solver does not support delay bounds; use select_chord_dp")
    n = len(problem.frequencies)
    dense = problem.space.bits <= _MAX_VECTOR_BITS and 0 < n <= _DENSE_MAX_PEERS
    inst = _normalize_arrays(problem) if dense else _normalize(problem)
    current = _base_costs(inst)
    if dense:
        rows = np.flatnonzero(inst.candidate_flags)
        candidates = (rows + 1).tolist()
    else:
        candidates = [index + 1 for index in range(n) if inst.candidate_flags[index]]
    k_eff = min(problem.k, len(candidates))
    spans = _dense_spans(inst, rows) if dense and k_eff else None
    offsets = None if spans is None else np.arange(0, spans.size, rows.size)
    oracle = None
    parents: list = [[0] * (n + 1)]
    for _layer in range(k_eff):
        layer = None if spans is None else _solve_layer_dense(spans, rows, offsets, current)
        if layer is None:
            if oracle is None:
                oracle = _SpanOracle(_normalize(problem) if dense else inst)
            # Python floats, whether the last layer was dense or not.
            previous = [float(cost) for cost in current]
            current, parent_row = list(previous), [0] * (n + 1)
            _solve_layer_dc(oracle, previous, candidates, current, parent_row)
            current = np.array(current) if dense else current
        else:
            current, parent_row = layer
        parents.append(parent_row)
    chosen = _reconstruct(parents, k_eff, n)
    weights = inst.weights.tolist() if dense else inst.weights
    return _result(inst.ids, weights, chosen, float(current[n]), "chord-fast")


def select_chord(problem: SelectionProblem) -> SelectionResult:
    """Solve a Chord selection problem with the appropriate algorithm:
    the quadratic DP for QoS-constrained or tiny instances, the fast
    solver (dense layers or divide and conquer) otherwise."""
    if problem.delay_bounds or len(problem.frequencies) <= 32:
        return select_chord_dp(problem)
    return select_chord_fast(problem)
