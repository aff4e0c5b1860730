"""Auxiliary-neighbor selection for Pastry (paper Section IV).

Peers are leaves of a binary trie of their ids; the estimated distance
between two peers is the height of their lowest common ancestor
(Proposition 4.1), i.e. ``b - lcp``. Selecting the ``k`` best auxiliary
neighbors is then a budgeted pointer-placement problem on the trie, solved
bottom-up (eq. 2/3):

``C(T_a, j) = min over splits (i, j-i) of
C(L_a, i) + F(L_a)·[no pointer in L_a] + C(R_a, j-i) + F(R_a)·[no pointer in R_a]``

Three solvers are provided:

* :func:`select_pastry_dp` — the paper's ``O(n k^2 b)`` dynamic program
  (``O(n k^2)`` here thanks to path compression), trying every split at
  every vertex. Also supports QoS delay bounds (Section IV-D) via
  "this subtree must contain a pointer" markers.
* :func:`select_pastry_greedy` — the paper's ``O(n k b)`` algorithm
  exploiting the nesting property (P): the optimal ``j-1``-pointer set is
  a subset of the optimal ``j``-pointer set, so each vertex only compares
  two candidate splits per budget level (eq. 4).
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

from repro.core.trie import PeerTrie, TrieVertex
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, InfeasibleConstraintError
from repro.util.ids import IdSpace

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = [
    "select_pastry",
    "select_pastry_dp",
    "select_pastry_greedy",
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
        if _np is not None and jmax >= _DP_VECTOR_MIN_BUDGET:
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
    fc_arr = _np.asarray(fc, dtype=_np.float64)
    sc_arr = _np.asarray(sc, dtype=_np.float64)
    i_index = _np.arange(len(fc))[None, :]
    remainder = _np.arange(jmax + 1)[:, None] - i_index
    valid = (remainder >= 0) & (remainder < len(sc))
    matrix = _np.where(
        valid,
        fc_arr[i_index] + sc_arr[_np.clip(remainder, 0, len(sc) - 1)],
        _INF,
    )
    splits = _np.argmin(matrix, axis=1)
    costs = matrix[_np.arange(jmax + 1), splits]
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
