"""Globally-coordinated auxiliary selection (paper Section VII future work).

The paper's algorithms are *locally* optimal: each node minimizes its own
expected lookup cost, ignoring the auxiliary choices of other nodes. The
conclusions note that "the globally optimal choice of auxiliary neighbors
can be different" and leave a decentralized globally-aware algorithm as an
open challenge.

This module implements the centralized tournament that quantifies the
gap: starting from core-only tables, repeatedly grant one pointer to the
(node, pointer) pair that most reduces the *network-wide* expected cost —
the sum over source nodes of eq. 1 under that source's query
distribution. The machinery is :mod:`repro.core.budget`: each node's
marginal gains come off its own cost curve, and a lazy max-heap picks the
network-wide best next grant.

Under the paper's cost model a pointer at node ``s`` only affects ``s``'s
own lookups, so with the per-node cap binding (total budget ``n * k``)
the tournament's final assignment coincides with running the local
optimum at budget ``k`` at every node — that equivalence is what makes
the local algorithms also globally optimal *for this cost model*, and
:func:`select_global_greedy` exploits it as a fast path. The interesting
regime is an *uncapped* total budget (``total_k``), where the tournament
concentrates pointers on high-traffic nodes; see ``repro allocate``.
"""

from __future__ import annotations

from repro.chord.ring import ChordRing
from repro.core import budget as budget_mod
from repro.core import cost as cost_mod
from repro.core.types import SelectionProblem
from repro.util.validation import require_non_negative_int

__all__ = ["GlobalAssignment", "select_global_greedy", "network_cost"]


class GlobalAssignment:
    """The outcome of a global selection round: per-node pointer sets."""

    def __init__(self, assignment: dict[int, set[int]], total_cost: float) -> None:
        self.assignment = assignment
        self.total_cost = total_cost

    def install(self, ring: ChordRing) -> None:
        """Install the computed auxiliary sets on every node."""
        for node_id, pointers in self.assignment.items():
            ring.node(node_id).set_auxiliary(set(pointers))


def network_cost(
    ring,
    demands: dict[int, dict[int, float]],
    overlay: str = "chord",
) -> float:
    """Network-wide expected cost: the sum of eq. 1 over all source nodes.

    ``demands[source]`` is the source's destination-frequency mapping.
    Uses each node's *currently installed* core + auxiliary neighbors.
    This is the shared evaluation the budget allocator's figure gates on:
    an installed :class:`~repro.core.budget.BudgetAllocation` must
    reproduce its predicted ``total_cost`` here.
    """
    total = 0.0
    for source, frequencies in demands.items():
        node = ring.node(source)
        core, auxiliary = node.core_neighbors(), node.auxiliary
        if overlay == "chord":
            total += cost_mod.chord_cost(
                ring.space, source, frequencies, core, auxiliary
            )
        else:
            total += cost_mod.pastry_cost(ring.space, frequencies, core, auxiliary)
    return total


def select_global_greedy(
    ring,
    demands: dict[int, dict[int, float]],
    k: int,
    overlay: str = "chord",
    total_k: int | None = None,
) -> GlobalAssignment:
    """Greedy global tournament over (node, pointer) marginal gains.

    Grants ``total_k`` pointers (default ``k * len(demands)``) one at a
    time, each round to the node whose next pointer most reduces the
    network-wide cost, capping every node at ``k``. Per-node convexity
    (DESIGN.md §12) makes each node's greedy chain optimal, so the
    tournament's round-``j`` grant really is the best (node, pointer)
    pair available — no re-evaluation against other nodes' tables is
    needed because a pointer only affects its owner's lookups under the
    paper's cost model.

    With the default budget the per-node cap binds and the result equals
    the paper's local optimum at every node (the proven-equivalent fast
    path — the tournament merely reorders grants that all happen anyway).
    Pass ``total_k < k * n`` to let the tournament concentrate budget on
    heavy nodes instead.
    """
    require_non_negative_int(k, "k")
    if total_k is not None:
        require_non_negative_int(total_k, "total_k")
    problems = {
        source: SelectionProblem(
            space=ring.space,
            source=source,
            frequencies=frequencies,
            core_neighbors=ring.node(source).core_neighbors(),
            k=0,
        )
        for source, frequencies in demands.items()
    }
    curves = {
        source: _CappedCurve(problem, overlay, cap=k)
        for source, problem in problems.items()
    }
    budget = len(problems) * k if total_k is None else total_k
    allocation = budget_mod.allocate_greedy(curves, budget)
    assignment = {
        source: set(curves[source].result(allocation.quota(source)).auxiliary)
        for source in problems
    }
    return GlobalAssignment(assignment, allocation.total_cost)


class _CappedCurve(budget_mod.CostCurve):
    """A cost curve whose capacity is clamped to the per-node cap ``k``,
    so the tournament never over-grants one node."""

    __slots__ = ("cap",)

    def __init__(self, problem, overlay: str, cap: int) -> None:
        super().__init__(problem, overlay)
        self.cap = cap

    @property
    def capacity(self) -> int:
        return min(self.cap, len(self.problem.candidates))
