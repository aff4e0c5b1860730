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
     at most 53 bits, the whole ``s(j, m)`` matrix is built once from the
     eq. 9/10 tables, bit-identical to the scalar queries, and each of the
     ``k`` layers is one masked leftmost argmin per column ``m``. Larger
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

from repro.core.cost import _MAX_VECTOR_BITS, _bit_lengths
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

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
    return _np is not None and inst.bits <= _MAX_VECTOR_BITS and inst.n > 0


def _base_costs(inst: _ChordInstance) -> list[float]:
    """``C_0(m)``: prefix costs (and QoS feasibility) with cores only.

    ``base[m]`` covers peers ``0 .. m-1`` (m = paper's 1-based index).
    Unconstrained instances use one NumPy sweep (searchsorted over the
    core offsets + cumulative sum); QoS-bounded ones keep the scalar
    loop, which must track per-peer infeasibility.
    """
    if _vectorizable(inst) and not any(bound is not None for bound in inst.bounds):
        gaps = _np.asarray(inst.gaps, dtype=_np.int64)
        weights = _np.asarray(inst.weights, dtype=_np.float64)
        cores = _np.asarray(inst.core_gaps, dtype=_np.int64)
        if cores.size == 0:
            distances = _np.full(inst.n, inst.bits, dtype=_np.int64)
        else:
            index = _np.searchsorted(cores, gaps, side="right")
            preceding = cores[_np.maximum(index - 1, 0)]
            distances = _np.where(index > 0, _bit_lengths(gaps - preceding), inst.bits)
        base = _np.empty(inst.n + 1, dtype=_np.float64)
        base[0] = 0.0
        _np.cumsum(weights * distances, out=base[1:])
        return base.tolist()
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


def _result(problem: SelectionProblem, inst: _ChordInstance, chosen_positions: list[int], cost_without_plus_one: float, algorithm: str) -> SelectionResult:
    total_weight = sum(inst.weights)
    auxiliary = frozenset(inst.ids[pos] for pos in chosen_positions)
    return SelectionResult(auxiliary, cost_without_plus_one + total_weight, algorithm)


def select_chord_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n^2 k)`` dynamic program (Section V-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when no placement
    of ``k`` pointers satisfies them.
    """
    inst = _normalize(problem)
    n = inst.n
    span_tables = [_span_cost_table(inst, j) for j in range(n)]
    current = _base_costs(inst)
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
    return _result(problem, inst, chosen, current[n], "chord-dp")


def _anchor_tables(
    inst: _ChordInstance,
) -> tuple[_np.ndarray, _np.ndarray, _np.ndarray, _np.ndarray]:
    """The eq. 9 tables of every anchor, as arrays (``_vectorizable`` only).

    Returns ``(anchors, reach, hops, prefix)``: the sorted anchor gaps
    (each peer gap and each core gap); per anchor row and hop distance
    ``r = 0 .. b`` the paper's ``p_w(r)`` (``reach``) and the prefix sum
    ``sum_{r'<=r} r' * (F(p_w(r')) - F(p_w(r'-1)))`` (``hops``); and the
    cumulative frequencies ``prefix[c]`` of the first ``c`` peers. All
    anchors × all radii resolve with one ``searchsorted`` and a row-wise
    cumulative sum; every sum runs left to right, as the scalar loop in
    :class:`_SpanOracle` does.
    """
    gaps = _np.asarray(inst.gaps, dtype=_np.int64)
    prefix = _np.cumsum(_np.concatenate(([0.0], _np.asarray(inst.weights, dtype=_np.float64))))
    anchors = _np.union1d(gaps, _np.asarray(inst.core_gaps, dtype=_np.int64))
    radii = _np.arange(1, inst.bits + 1, dtype=_np.int64)
    limits = anchors[:, None] + ((_np.int64(1) << radii) - 1)[None, :]
    reach = _np.concatenate(
        [
            _np.searchsorted(gaps, anchors, side="right")[:, None],
            _np.searchsorted(gaps, limits, side="right"),
        ],
        axis=1,
    )
    shells = prefix[reach[:, 1:]] - prefix[reach[:, :-1]]
    hops = _np.zeros(reach.shape, dtype=_np.float64)
    _np.cumsum(radii * shells, axis=1, out=hops[:, 1:])
    return anchors, reach, hops, prefix


class _SpanOracle:
    """Answers ``s(j, m)`` queries in ``O(log n + log b)`` (Section V-B).

    For every anchor gap ``w`` (each peer position and each core neighbor)
    it precomputes, over hop distances ``r = 1 .. b``:

    * ``reach_index[w][r]`` — the paper's ``p_w(r)``: how many peers have a
      gap at most ``w + 2**r - 1`` (prefix count into the sorted gaps);
    * ``hop_prefix[w][r]`` — the prefix sum
      ``sum_{r'<=r} r' * (F(p_w(r')) - F(p_w(r'-1)))`` of eq. 9.

    Spans containing core neighbors split at them (eq. 10); the costs of
    complete core-to-core segments are pre-accumulated so a query touches
    at most two partial segments.
    """

    def __init__(self, inst: _ChordInstance) -> None:
        self.inst = inst
        self.gaps = inst.gaps
        self._reach: dict[int, list[int]]
        self._hops: dict[int, list[float]]
        # Keyed by the instance's own int objects: a lookup then matches
        # by identity before it needs an ``==``.
        anchors = sorted(set(inst.gaps) | set(inst.core_gaps))
        if _vectorizable(inst):
            __, reach, hops, prefix = _anchor_tables(inst)
            self.freq_prefix = prefix.tolist()
            self._reach = dict(zip(anchors, reach.tolist()))
            self._hops = dict(zip(anchors, hops.tolist()))
        else:
            # Scalar reference for ids over 53 bits or without NumPy.
            # Cumulative peer frequencies: F[c] = total weight of first c peers.
            self.freq_prefix = [0.0]
            for weight in inst.weights:
                self.freq_prefix.append(self.freq_prefix[-1] + weight)
            self._reach = {}
            self._hops = {}
            for gap in anchors:
                reach = [bisect_right(self.gaps, gap)]
                hops = [0.0]
                for r in range(1, inst.bits + 1):
                    limit = gap + (1 << r) - 1
                    index = bisect_right(self.gaps, limit)
                    shell = self.freq_prefix[index] - self.freq_prefix[reach[-1]]
                    hops.append(hops[-1] + r * shell)
                    reach.append(index)
                self._reach[gap] = reach
                self._hops[gap] = hops
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
        span = limit - anchor
        d_max = span.bit_length()
        reach = self._reach[anchor]
        hops = self._hops[anchor]
        inner = hops[d_max - 1]
        upper_index = bisect_right(self.gaps, limit)
        outer = d_max * (self.freq_prefix[upper_index] - self.freq_prefix[reach[d_max - 1]])
        return inner + outer

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


def _span_matrix(inst: _ChordInstance) -> _np.ndarray:
    """Every ``s(j, m)`` as an ``n × n`` array: ``S[j-1, m-1]`` equals
    ``_SpanOracle(inst).span_cost(j, m)`` bit for bit (``_vectorizable``
    only). The returned array is the transpose of an ``m``-major one, so
    ``S.T`` is C-contiguous.

    Each entry repeats the oracle's float operations in the oracle's
    order: ``inner + outer`` for a core-free span (eq. 9), and ``(head +
    (segment[hi-1] - segment[lo])) + tail`` for a span split at the cores
    strictly inside it (eq. 10), over the same left-to-right segment
    prefix. A reordered sum would move costs by an ulp and flip tied picks.
    """
    anchors, reach, hops, prefix = _anchor_tables(inst)
    width = reach.shape[1]
    # Flat tables at ``anchor row * width + d_max``: the oracle's
    # ``hops[d_max - 1]`` and ``F[reach[d_max - 1]]``, and 0.0 at
    # ``d_max = 0``, where an empty span then costs ``0.0 + 0 * x == 0.0``.
    inner_at = _np.zeros_like(hops)
    inner_at[:, 1:] = hops[:, :-1]
    reached_at = _np.zeros_like(hops)
    reached_at[:, 1:] = prefix[reach[:, :-1]]
    inner_at, reached_at = inner_at.ravel(), reached_at.ravel()
    gaps = _np.asarray(inst.gaps, dtype=_np.int64)

    def corefree(anchor, limit):
        """Elementwise ``_SpanOracle._corefree_span`` over broadcast gaps."""
        # Gaps are below 2**53, so the float difference is exact and its
        # frexp exponent is ``int.bit_length`` (0 where limit <= anchor).
        span = _np.maximum(limit.astype(_np.float64) - anchor.astype(_np.float64), 0.0)
        d_max = _np.frexp(span)[1]
        cell = _np.searchsorted(anchors, anchor) * width + d_max
        upper = prefix[_np.searchsorted(gaps, limit, side="right")]
        return inner_at.take(cell) + d_max * (upper - reached_at.take(cell))

    # matrix[m-1, j-1] = s(j, m): anchors along the columns.
    matrix = corefree(gaps[None, :], gaps[:, None])
    cores = _np.asarray(inst.core_gaps, dtype=_np.int64)
    if cores.size:
        segment = _np.cumsum(_np.concatenate(([0.0], corefree(cores[:-1], cores[1:] - 1))))
        # span_cost's lo/hi: the number of cores at or before each peer gap.
        covered = _np.searchsorted(cores, gaps, side="right")
        lo = _np.minimum(covered, cores.size - 1)
        hi = _np.maximum(covered, 1)
        head = corefree(gaps, cores[lo] - 1)
        tail = corefree(cores[hi - 1], gaps)
        split = (head[None, :] + (segment[hi - 1][:, None] - segment[lo][None, :])) + tail[:, None]
        matrix = _np.where(covered[:, None] > covered[None, :], split, matrix)
    return matrix.T


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
    spans: _np.ndarray, rows: _np.ndarray, previous: Sequence[float]
) -> tuple[_np.ndarray, _np.ndarray] | None:
    """One DP layer as a masked leftmost argmin per column ``m``, or ``None``.

    ``spans[m-1, c]`` is ``s(j, m)`` for the candidate ``j = rows[c] + 1``,
    ``inf`` where ``j > m`` (one row per ``m``, so each argmin reads
    contiguous memory). When the leftmost minima are non-decreasing in
    ``m``, :func:`_solve_layer_dc` picks exactly them: each midpoint's
    candidate range runs from its left ancestor's pick to its right
    ancestor's, so it holds its leftmost minimum. ``s`` is Monge, so that
    always holds in real arithmetic; when float rounding breaks it under
    heavy ties, the caller solves the layer by divide and conquer instead.
    """
    previous = _np.asarray(previous)
    values = spans + previous[rows]
    picks = values.argmin(axis=1)
    if (picks[1:] < picks[:-1]).any():
        return None
    best = values[_np.arange(picks.size), picks]
    improve = best < previous[1:]  # the `<` test of _solve_layer_dc
    current = previous.copy()
    current[1:] = _np.where(improve, best, previous[1:])
    parent_row = _np.zeros(previous.size, dtype=_np.int64)
    parent_row[1:] = _np.where(improve, rows[picks] + 1, 0)
    return current, parent_row


def select_chord_fast(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the fast algorithm of Section V-B: dense
    layers on the ``s(j, m)`` matrix up to :data:`_DENSE_MAX_PEERS` peers,
    divide and conquer (``O(n (b + k log b) log n)``-flavoured) above it
    and as the exact fallback; see the module docstring.

    Does not accept QoS bounds — use :func:`select_chord_dp` for those.
    """
    if problem.delay_bounds:
        raise ConfigurationError("fast solver does not support delay bounds; use select_chord_dp")
    inst = _normalize(problem)
    n = inst.n
    current = _base_costs(inst)
    candidates = [index + 1 for index in range(n) if inst.candidate_flags[index]]
    k_eff = min(problem.k, len(candidates))
    spans = rows = None
    if k_eff and n <= _DENSE_MAX_PEERS and _vectorizable(inst):
        rows = _np.asarray(candidates, dtype=_np.int64) - 1
        spans = _span_matrix(inst).T.take(rows, axis=1)
        spans[_np.arange(n)[:, None] < rows[None, :]] = _INF
    oracle = None
    parents: list = [[0] * (n + 1)]
    for _layer in range(k_eff):
        layer = _solve_layer_dense(spans, rows, current) if spans is not None else None
        if layer is None:
            if oracle is None:
                oracle = _SpanOracle(inst)
            # Python floats, whether the last layer was dense or not.
            previous = [float(cost) for cost in current]
            current, parent_row = list(previous), [0] * (n + 1)
            _solve_layer_dc(oracle, previous, candidates, current, parent_row)
        else:
            current, parent_row = layer
        parents.append(parent_row)
    chosen = _reconstruct(parents, k_eff, n)
    return _result(problem, inst, chosen, float(current[n]), "chord-fast")


def select_chord(problem: SelectionProblem) -> SelectionResult:
    """Solve a Chord selection problem with the appropriate algorithm:
    the quadratic DP for QoS-constrained or tiny instances, the fast
    solver (dense layers or divide and conquer) otherwise."""
    if problem.delay_bounds or len(problem.frequencies) <= 32:
        return select_chord_dp(problem)
    return select_chord_fast(problem)
