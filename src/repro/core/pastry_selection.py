"""Auxiliary-neighbor selection for Pastry (paper Section IV).

Peers are leaves of a binary trie of their ids; the estimated distance
between two peers is the height of their lowest common ancestor
(Proposition 4.1), i.e. ``b - lcp``. Selecting the ``k`` best auxiliary
neighbors is then a budgeted pointer-placement problem on the trie, solved
bottom-up (eq. 2/3):

``C(T_a, j) = min over splits (i, j-i) of
C(L_a, i) + F(L_a)·[no pointer in L_a] + C(R_a, j-i) + F(R_a)·[no pointer in R_a]``

Four solvers are provided:

* :func:`select_pastry_dp` — the paper's ``O(n k^2 b)`` dynamic program
  (``O(n k^2)`` here thanks to path compression), trying every split at
  every vertex. Also supports QoS delay bounds (Section IV-D) via
  "this subtree must contain a pointer" markers.
* :func:`select_pastry_greedy` — the paper's ``O(n k b)`` algorithm
  exploiting the nesting property (P): the optimal ``j-1``-pointer set is
  a subset of the optimal ``j``-pointer set, so each vertex only compares
  two candidate splits per budget level (eq. 4).
* :func:`select_pastry_greedy_batch` — the same greedy over many problems
  in one dense NumPy pass, vertex by vertex the same float64 operations
  in the same order, so sets and costs are bit-identical; it solves the
  problems of an install chunk (:mod:`repro.selection`), where one
  problem alone is too small for NumPy to pay.
* :class:`IncrementalPastrySelector` — Section IV-C: maintains the trie
  and all memoized cost tables across frequency updates, peer joins and
  peer leaves, recomputing only the ``O(b)`` vertices on the affected
  root-to-leaf path (``O(b k)`` per update).

:func:`select_pastry` dispatches: QoS-constrained problems go to the DP
solver (whose optimality under subtree constraints is immediate), the rest
to the greedy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.cost import _MAX_VECTOR_BITS, _bit_lengths
from repro.core.trie import PeerTrie, TrieVertex
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace

__all__ = [
    "select_pastry",
    "select_pastry_dp",
    "select_pastry_greedy",
    "select_pastry_greedy_batch",
    "dense_batchable",
    "IncrementalPastrySelector",
]

_INF = float("inf")

#: Budget size beyond which the DP merge switches to the NumPy min-plus
#: kernel (below it, array setup dominates the O(k^2) Python loop).
_DP_VECTOR_MIN_BUDGET = 32


class _CostTable:
    """Memoized DP state for one trie vertex.

    ``costs[j]`` is ``C(T_a, j)``, the minimum cost contributed below this
    vertex when ``j`` auxiliary pointers are placed in its subtree.
    ``splits[j]`` records how many of those ``j`` go to the first child
    (in bit order), enabling selection reconstruction.
    """

    __slots__ = ("costs", "splits")

    def __init__(self, costs: list[float], splits: list[int]) -> None:
        self.costs = costs
        self.splits = splits


#: A bottom-up merge: a vertex's table from its children's tables.
_Merge = Callable[[TrieVertex, int], _CostTable]


def _leaf_table(vertex: TrieVertex, k: int) -> _CostTable:
    """Cost table for a leaf: zero internal cost; one pointer may sit on the
    leaf itself when it is eligible (not a core neighbor). A QoS-required
    leaf without a core pointer is infeasible at ``j = 0``."""
    costs = [0.0]
    if not vertex.is_core and k >= 1:
        costs.append(0.0)
    if vertex.required and not vertex.is_core:
        costs[0] = _INF
    return _CostTable(costs, [])


def _padded_costs(child: TrieVertex) -> list[float]:
    """``C(child, j)`` for every ``j``, with the cost of the compressed edge
    into ``child`` added at ``j = 0`` when its subtree holds no core
    pointer: one unit per uncompressed edge per unit frequency (the
    indicator terms of eq. 2, summed along the unary chain)."""
    costs: list[float] = child.memo.costs  # type: ignore[union-attr]
    if child.has_core:
        return costs
    padded = list(costs)
    padded[0] += child.edge_length() * child.frequency_sum
    return padded


def _unary_table(vertex: TrieVertex, jmax: int) -> _CostTable:
    """Table of a vertex with at most one child (only the root can be one):
    every pointer goes to the child."""
    if not vertex.children:
        return _CostTable([0.0], [0])
    (child,) = vertex.children.values()
    costs = _padded_costs(child)
    shares = [min(j, len(costs) - 1) for j in range(jmax + 1)]
    return _CostTable([costs[share] for share in shares], shares)


def _merge_dp(vertex: TrieVertex, k: int) -> _CostTable:
    """Exact merge: try every split of ``j`` pointers between the children
    (eq. 3). ``O(k^2)`` per vertex."""
    children = vertex.children
    jmax = min(k, vertex.eligible_count)
    if len(children) < 2:
        table = _unary_table(vertex, jmax)
    else:
        fc = _padded_costs(children[0])
        sc = _padded_costs(children[1])
        if jmax >= _DP_VECTOR_MIN_BUDGET:
            table = _merge_dp_vectorized(fc, sc, jmax)
        else:
            first_max = len(fc) - 1
            second_max = len(sc) - 1
            costs: list[float] = []
            splits: list[int] = []
            for j in range(jmax + 1):
                best_cost = _INF
                best_split = min(j, first_max)
                for i in range(max(0, j - second_max), min(j, first_max) + 1):
                    cost = fc[i] + sc[j - i]
                    if cost < best_cost:
                        best_cost = cost
                        best_split = i
                costs.append(best_cost)
                splits.append(best_split)
            table = _CostTable(costs, splits)
    if vertex.required and not vertex.has_core and table.costs:
        table.costs[0] = _INF
    return table


def _merge_dp_vectorized(fc: list[float], sc: list[float], jmax: int) -> _CostTable:
    """NumPy form of the exact two-child merge: the ``(j, i)`` split matrix
    ``fc[i] + sc[j-i]`` (a min-plus convolution) is built once and reduced
    with a row-wise argmin. Matches the scalar loop's leftmost-minimum tie
    break, so the reconstructed selections are identical."""
    fc_arr = np.asarray(fc, dtype=np.float64)
    sc_arr = np.asarray(sc, dtype=np.float64)
    i_index = np.arange(len(fc))[None, :]
    remainder = np.arange(jmax + 1)[:, None] - i_index
    valid = (remainder >= 0) & (remainder < len(sc))
    matrix = np.where(
        valid,
        fc_arr[i_index] + sc_arr[np.clip(remainder, 0, len(sc) - 1)],
        _INF,
    )
    splits = np.argmin(matrix, axis=1)
    costs = matrix[np.arange(jmax + 1), splits]
    return _CostTable(costs.tolist(), splits.tolist())


def _merge_greedy(vertex: TrieVertex, k: int) -> _CostTable:
    """Nesting-property merge (eq. 4): the optimal split for ``j`` extends
    the optimal split for ``j-1`` by one pointer on one side. ``O(k)``."""
    children = vertex.children
    jmax = min(k, vertex.eligible_count)
    if len(children) < 2:
        return _unary_table(vertex, jmax)
    fc = _padded_costs(children[0])
    sc = _padded_costs(children[1])
    first_max = len(fc) - 1
    second_max = len(sc) - 1
    costs = [fc[0] + sc[0]]
    splits = [0]
    left = 0
    for j in range(1, jmax + 1):
        right = j - 1 - left
        grow_left = fc[left + 1] + sc[right] if left + 1 <= first_max else _INF
        grow_right = fc[left] + sc[right + 1] if right + 1 <= second_max else _INF
        if grow_left <= grow_right:
            costs.append(grow_left)
            left += 1
        else:
            costs.append(grow_right)
        splits.append(left)
    return _CostTable(costs, splits)


def _build_trie(problem: SelectionProblem) -> PeerTrie:
    """Materialize the trie for a selection problem in one pass: observed
    peers, core neighbors (zero-frequency unless also observed) and
    delay-bound peers (zero-frequency unless observed), then QoS markers.
    Every peer is in the trie before the first marker is set, because a
    peer added later could split the edge above a marked vertex and leave
    the marker too deep."""
    entries = {peer: (weight, False) for peer, weight in problem.frequencies.items()}
    for neighbor in problem.core_neighbors:
        entries[neighbor] = (problem.frequencies.get(neighbor, 0.0), True)
    for peer in problem.delay_bounds:
        entries.setdefault(peer, (0.0, False))
    trie = PeerTrie.from_entries(problem.space, entries)
    for peer, bound in problem.delay_bounds.items():
        # Total lookup estimate is 1 + d; a bound of x hops allows d <= x-1.
        trie.set_required(peer, bound - 1)
    return trie


def _fill_tables(vertex: TrieVertex, k: int, merge: _Merge) -> None:
    """Post-order pass computing the cost table of every vertex in the
    subtree of ``vertex``."""
    if vertex.is_leaf:
        vertex.memo = _leaf_table(vertex, k)
        return
    for child in vertex.children.values():
        _fill_tables(child, k, merge)
    vertex.memo = merge(vertex, k)


def _collect_selection(vertex: TrieVertex, budget: int, out: list[int]) -> None:
    """Walk the recorded splits downward, emitting the chosen leaves."""
    if budget == 0:
        return
    if vertex.is_leaf:
        out.append(vertex.peer)  # budget is necessarily 1 here
        return
    children = vertex.child_order()
    table: _CostTable = vertex.memo  # type: ignore[assignment]
    if len(children) == 1:
        _collect_selection(children[0], table.splits[budget], out)
        return
    first_share = table.splits[budget]
    _collect_selection(children[0], first_share, out)
    _collect_selection(children[1], budget - first_share, out)


def _result_from_trie(trie: PeerTrie, k: int, algorithm: str) -> SelectionResult:
    """Read the root table, reconstruct the pointer set and translate the
    internal trie cost into the paper's objective (eq. 1):
    ``Cost = sum f_v (1 + d_v) = trie cost + total frequency``."""
    root = trie.root
    if root.memo is None:  # empty trie
        return SelectionResult(frozenset(), 0.0, algorithm)
    table: _CostTable = root.memo  # type: ignore[assignment]
    # Extra pointers never increase the cost, so the full usable budget
    # (capped by the number of eligible leaves) is always optimal.
    budget = min(k, len(table.costs) - 1)
    if table.costs[budget] == _INF:
        raise InfeasibleConstraintError(
            f"QoS delay bounds cannot be met with k={k} auxiliary pointers"
        )
    chosen: list[int] = []
    _collect_selection(root, budget, chosen)
    cost = table.costs[budget] + trie.total_frequency()
    return SelectionResult(frozenset(chosen), cost, algorithm)


def select_pastry_dp(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n k^2)`` dynamic program (Section IV-A).

    Supports QoS delay bounds; raises
    :class:`~repro.util.errors.InfeasibleConstraintError` when they cannot
    be met with ``k`` pointers.
    """
    trie = _build_trie(problem)
    _fill_tables(trie.root, problem.k, _merge_dp)
    return _result_from_trie(trie, problem.k, "pastry-dp")


def select_pastry_greedy(problem: SelectionProblem) -> SelectionResult:
    """Optimal selection via the ``O(n k)`` nesting-property algorithm
    (Section IV-B). Does not accept QoS bounds — use the DP for those."""
    if problem.delay_bounds:
        raise ConfigurationError("greedy solver does not support delay bounds; use select_pastry_dp")
    trie = _build_trie(problem)
    _fill_tables(trie.root, problem.k, _merge_greedy)
    return _result_from_trie(trie, problem.k, "pastry-greedy")


def dense_batchable(problem: SelectionProblem) -> bool:
    """Whether :func:`select_pastry_greedy_batch` takes ``problem``: no
    delay bounds (those need the DP) and ids of at most 53 bits (the
    exact range of the float64 bit lengths)."""
    return not problem.delay_bounds and problem.space.bits <= _MAX_VECTOR_BITS


def select_pastry_greedy_batch(problems: Sequence[SelectionProblem]) -> list[SelectionResult]:
    """:func:`select_pastry_greedy` on many problems in one dense pass,
    bit for bit: the same sets and ``==`` costs.

    The problems' sorted leaves are laid end to end. Each adjacent pair
    of leaves of one problem is one binary trie vertex, at depth
    ``bits - bitlen(a ^ b)``; the pairs of one depth merge disjoint
    adjacent segments, so the vertices are merged level by level, deepest
    first, all vertices of a level at once. A segment keeps its table,
    frequency sum, core flag, eligible count and top depth at its start
    index. Each vertex pads and merges with the same float64 operations,
    in the same order, as :func:`_merge_greedy` (ties go left), and the
    root is padded by its child's depth when every id shares the top bit,
    as :func:`_unary_table` does. The splits are then read back top down.
    Raises :class:`ConfigurationError` on a problem
    :func:`dense_batchable` rejects.
    """
    for problem in problems:
        if not dense_batchable(problem):
            raise ConfigurationError(
                "the dense greedy needs ids of at most 53 bits and no delay bounds"
            )
    owner, id_array, frequency, has_core = _laid_out_leaves(problems)
    if not len(id_array):
        return [SelectionResult(frozenset(), 0.0, "pastry-greedy") for _ in problems]

    leaf_count = len(id_array)
    sizes = np.bincount(owner, minlength=len(problems))
    offsets = np.cumsum(sizes) - sizes
    problem_bits = np.array([problem.space.bits for problem in problems], dtype=np.int64)
    # A budget past the peer count buys nothing more (and may not fit int64).
    problem_k = np.array(
        [min(problem.k, size) for problem, size in zip(problems, sizes.tolist())], dtype=np.int64
    )
    # Per segment, at its start index (each leaf is one at first): the
    # frequency sum and core flag above, the eligible count, the top
    # depth, the end index and the top vertex (a pair, -1 for a leaf).
    eligible = (~has_core).astype(np.int64)
    top = problem_bits[owner]
    segment_end = np.arange(leaf_count)
    top_pair = np.full(leaf_count, -1)
    # The start of each segment, at its end index.
    segment_start = np.arange(leaf_count)

    # One spare column: every table reads INF past its last entry, the
    # value the scalar merge takes for a side that cannot grow.
    width = int(np.minimum(problem_k, np.bincount(owner, eligible, len(problems))).max()) + 2
    tables = np.full((leaf_count, width), _INF)
    tables[:, 0] = 0.0
    tables[(eligible > 0) & (problem_k[owner] > 0), 1] = 0.0
    splits = np.zeros((leaf_count, width), dtype=np.min_scalar_type(width))
    left_child = np.full(leaf_count, -1)
    right_child = np.full(leaf_count, -1)

    pairs = np.flatnonzero(owner[:-1] == owner[1:])
    pair_depth = top[pairs] - _bit_lengths(id_array[pairs] ^ id_array[pairs + 1])
    order = np.argsort(-pair_depth, kind="stable")
    pairs, pair_depth = pairs[order], pair_depth[order]
    cuts = np.flatnonzero(pair_depth[1:] != pair_depth[:-1]) + 1
    levels = [
        (int(depths[0]), level)
        for depths, level in zip(np.split(pair_depth, cuts), np.split(pairs, cuts))
        if len(level)
    ]

    flat = tables.ravel()
    for depth, pair in levels:
        first, second = segment_start[pair], pair + 1
        jmax = np.minimum(problem_k[owner[pair]], eligible[first] + eligible[second])
        # Largest budget first: the vertices still merging at step j are
        # a prefix, and ``merging[j]`` counts them.
        rank = np.argsort(-jmax, kind="stable")
        pair, first, second, jmax = pair[rank], first[rank], second[rank], jmax[rank]
        merging = np.cumsum(np.bincount(jmax)[::-1])[::-1].tolist()
        # _padded_costs in place: no child table is read after its merge.
        for child in (first, second):
            tables[child, 0] = np.where(
                has_core[child],
                tables[child, 0],
                tables[child, 0] + (top[child] - depth) * frequency[child],
            )
        # Flat indices of fc[left] and sc[right], row by row.
        row_start = first * width
        at_left, at_right = row_start.copy(), second * width
        merged = np.full((len(pair), width), _INF)
        merged[:, 0] = flat[at_left] + flat[at_right]
        shares = np.empty((len(pair), width), dtype=np.int64)
        shares[:] = row_start[:, None]
        for j in range(1, len(merging)):
            count = merging[j]
            left, right = at_left[:count], at_right[:count]
            grow_left = flat[left + 1] + flat[right]
            grow_right = flat[left] + flat[right + 1]
            take_left = grow_left <= grow_right
            merged[:count, j] = np.where(take_left, grow_left, grow_right)
            left += take_left
            right += ~take_left
            shares[:count, j] = left
        tables[first] = merged
        splits[pair] = shares - row_start[:, None]
        frequency[first] = frequency[first] + frequency[second]
        has_core[first] |= has_core[second]
        eligible[first] += eligible[second]
        top[first] = depth
        end = segment_end[second]
        segment_end[first] = end
        segment_start[end] = first
        left_child[pair] = top_pair[first]
        right_child[pair] = top_pair[second]
        top_pair[first] = pair

    nonempty = sizes > 0
    roots = offsets[nonempty]
    root_costs = tables[roots]
    unary = ~has_core[roots] & (top[roots] > 0)
    root_costs[:, 0] = np.where(
        unary, root_costs[:, 0] + top[roots] * frequency[roots], root_costs[:, 0]
    )
    budgets = np.minimum(problem_k[nonempty], eligible[roots])
    costs = np.zeros(len(problems))
    costs[nonempty] = root_costs[np.arange(len(roots)), budgets] + frequency[roots]

    shares_at = np.zeros(leaf_count, dtype=np.int64)
    chosen = np.zeros(leaf_count, dtype=bool)
    root_pair = top_pair[roots]
    leaf_root = root_pair < 0
    chosen[roots[leaf_root]] = budgets[leaf_root] > 0
    shares_at[root_pair[~leaf_root]] = budgets[~leaf_root]
    for _depth, pair in reversed(levels):
        given = shares_at[pair]
        first_share = splits[pair, given]
        for child, leaf, share in (
            (left_child[pair], pair, first_share),
            (right_child[pair], pair + 1, given - first_share),
        ):
            inner = child >= 0
            shares_at[child[inner]] = share[inner]
            chosen[leaf[~inner]] = share[~inner] > 0

    picked = np.flatnonzero(chosen)
    groups = np.split(id_array[picked], np.searchsorted(picked, offsets[1:]))
    return [
        SelectionResult(frozenset(group.tolist()), cost, "pastry-greedy")
        for group, cost in zip(groups, costs.tolist())
    ]


def _laid_out_leaves(problems: Sequence[SelectionProblem]):
    """Every problem's leaves, ascending per problem, laid end to end:
    the arrays ``(problem index, id, frequency, core flag)``. A queried
    core neighbor's core entry sorts right after its frequency entry and
    folds into it."""
    ids: list[int] = []
    weights: list[float] = []
    entries: list[int] = []
    for problem in problems:
        frequencies = problem.frequencies
        ids += frequencies
        ids += problem.core_neighbors
        weights += frequencies.values()
        entries += (len(frequencies), len(problem.core_neighbors))
    kinds = np.arange(2 * len(problems))
    owner = np.repeat(kinds // 2, entries)
    core_entry = np.repeat(kinds % 2 == 1, entries)
    id_array = np.array(ids, dtype=np.int64)
    frequency = np.zeros(len(ids))
    frequency[~core_entry] = np.array(weights, dtype=np.float64)
    order = np.lexsort((core_entry, id_array, owner))
    owner, id_array, frequency = owner[order], id_array[order], frequency[order]
    has_core = core_entry[order]
    repeated = (owner[1:] == owner[:-1]) & (id_array[1:] == id_array[:-1])
    has_core[:-1] |= repeated
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ~repeated
    return owner[keep], id_array[keep], frequency[keep], has_core[keep]


def select_pastry(problem: SelectionProblem) -> SelectionResult:
    """Solve a Pastry selection problem with the appropriate algorithm:
    the DP when QoS bounds are present, the faster greedy otherwise."""
    if problem.delay_bounds:
        return select_pastry_dp(problem)
    return select_pastry_greedy(problem)


class IncrementalPastrySelector:
    """Incrementally-maintained optimal selection (Section IV-C).

    Keeps the trie and all per-vertex cost tables alive between queries.
    Each frequency update, peer join or peer leave triggers recomputation
    only along the affected root-to-leaf path — ``O(b k)`` work — after
    which :meth:`selection` reconstructs the current optimum in
    ``O(k b)``.

    Example
    -------
    >>> from repro.util.ids import IdSpace
    >>> selector = IncrementalPastrySelector(IdSpace(8), source=0,
    ...                                      core_neighbors=[128], k=2)
    >>> selector.observe(3, 10.0)
    >>> selector.observe(77, 4.0)
    >>> sorted(selector.selection().auxiliary)
    [3, 77]
    """

    def __init__(
        self,
        space: IdSpace,
        source: int,
        core_neighbors: Sequence[int],
        k: int,
    ) -> None:
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.space = space
        self.source = space.validate(source, "source id")
        self.k = k
        self._delay_bounds: dict[int, int] = {}
        self._trie = PeerTrie(space, on_path_change=self._refresh_path)
        self._core: set[int] = set()
        for neighbor in core_neighbors:
            self.add_core_neighbor(neighbor)

    # -- mutations ------------------------------------------------------
    def observe(self, peer: int, weight: float = 1.0) -> None:
        """Record query traffic toward ``peer`` (adds ``weight`` to its
        frequency, inserting the peer if unseen)."""
        if peer == self.source:
            return  # queries for locally-held items need no pointer
        if peer in self._trie:
            self._trie.add_frequency(peer, weight)
        else:
            self._insert(peer, weight)

    def set_frequency(self, peer: int, frequency: float) -> None:
        """Overwrite the frequency of ``peer`` (inserting it if unseen)."""
        if peer == self.source:
            return
        if peer in self._trie:
            self._trie.update_frequency(peer, frequency)
        else:
            self._insert(peer, frequency)

    def remove_peer(self, peer: int) -> None:
        """Forget a departed peer entirely."""
        bounded = bool(self._delay_bounds)
        self._core.discard(peer)
        self._delay_bounds.pop(peer, None)
        if peer in self._trie:
            self._trie.remove(peer)
            if bounded:
                self._remark()

    def add_core_neighbor(self, neighbor: int) -> None:
        """Register a core routing-table entry (a free pointer)."""
        self.space.validate(neighbor, "core neighbor id")
        if neighbor == self.source:
            raise ConfigurationError("the source node cannot be its own neighbor")
        self._core.add(neighbor)
        if neighbor in self._trie:
            leaf = self._trie.leaf(neighbor)
            self._trie.insert(neighbor, leaf.frequency, is_core=True)
        else:
            self._insert(neighbor, 0.0, is_core=True)

    def set_delay_bound(self, peer: int, bound: int) -> None:
        """Install a QoS bound: lookups for ``peer`` within ``bound`` hops."""
        if bound < 1:
            raise ConfigurationError(f"delay bound must be >= 1, got {bound}")
        if peer == self.source:
            raise ConfigurationError("the source node cannot carry a delay bound")
        if peer not in self._trie:
            self._trie.insert(peer, 0.0)
        self._delay_bounds[peer] = bound
        self._remark()

    def clear_delay_bounds(self) -> None:
        """Drop all QoS constraints and rebuild the memo tables."""
        self._delay_bounds.clear()
        self._trie.clear_required()
        self.rebuild()

    def set_k(self, k: int) -> None:
        """Change the pointer budget (forces a full ``O(n k)`` rebuild)."""
        if k < 0:
            raise ConfigurationError(f"k must be non-negative, got {k}")
        self.k = k
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every memo table from scratch."""
        _fill_tables(self._trie.root, self.k, self._merge())

    # -- queries --------------------------------------------------------
    def selection(self) -> SelectionResult:
        """Current optimal auxiliary set for the maintained frequencies."""
        return _result_from_trie(self._trie, self.k, "pastry-incremental")

    def frequencies(self) -> dict[int, float]:
        """Snapshot of maintained per-peer frequencies (observed peers only)."""
        return {
            leaf.peer: leaf.frequency
            for leaf in self._trie.leaves()
            if leaf.frequency > 0
        }

    def problem(self) -> SelectionProblem:
        """Express the maintained state as a one-shot problem (for tests)."""
        return SelectionProblem(
            space=self.space,
            source=self.source,
            frequencies=self.frequencies(),
            core_neighbors=frozenset(self._core),
            k=self.k,
            delay_bounds=dict(self._delay_bounds),
        )

    # -- internals ------------------------------------------------------
    def _insert(self, peer: int, frequency: float, is_core: bool = False) -> None:
        """Insert a new leaf; a split edge can move where a bound's marker
        belongs, so bounds are re-marked."""
        self._trie.insert(peer, frequency, is_core=is_core)
        if self._delay_bounds:
            self._remark()

    def _remark(self) -> None:
        """Derive every QoS marker afresh from ``_delay_bounds`` — the
        shallowest qualifying ancestor depends on the trie's current
        shape — and rebuild the tables."""
        self._trie.clear_required()
        for peer, bound in self._delay_bounds.items():
            self._trie.set_required(peer, bound - 1)
        self.rebuild()

    def _merge(self) -> _Merge:
        """The DP merge while QoS bounds are installed, the greedy otherwise."""
        return _merge_dp if self._delay_bounds else _merge_greedy

    def _refresh_path(self, path: list[TrieVertex]) -> None:
        merge = self._merge()
        for vertex in path:
            if vertex.is_leaf:
                vertex.memo = _leaf_table(vertex, self.k)
            else:
                for child in vertex.children.values():
                    if child.memo is None:
                        # A structural change can hang a pre-existing
                        # subtree under a fresh split vertex; its table is
                        # still valid, but a brand-new sibling needs one.
                        _fill_tables(child, self.k, merge)
                vertex.memo = merge(vertex, self.k)
