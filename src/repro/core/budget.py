"""Global cache-budget allocation: heterogeneous per-node ``k`` (DESIGN.md §12).

The paper fixes the auxiliary budget uniformly — every node gets the same
``k`` — and leaves globally-aware selection open (Section VII). This
module closes the simplest half of that gap: keep the paper's *local*
selection algorithms untouched, but distribute one network-wide pointer
budget ``K`` across nodes **non-uniformly**, by marginal gain.

Each node ``i`` has a cost curve ``C_i(k)`` — the eq.-1 optimum its local
selector achieves with ``k`` pointers. ``C_i`` is non-increasing in ``k``
(the checked ``selection.monotone_k`` invariant), so marginal gains
``g_i(k) = C_i(k) - C_i(k+1)`` are non-negative, and for the three
overlays here they are also non-increasing in ``k`` (the curves are
convex; see DESIGN.md §12 for the argument — Lemma 4.1 greedy chains on
the prefix metrics, the Monge condition of the Chord interval DP). Under
convexity the greedy rule "give the next pointer to the node whose next
pointer helps most" is *exact*: a lazy max-heap over the current gains
yields the optimal split of ``K``, at ``n + K`` local-selector calls
(each curve value is computed only when its node reaches the heap top).

:func:`allocate_brute_force` enumerates every feasible split on tiny
instances — the differential oracle the Hypothesis suite pins the heap
against. :func:`allocate_uniform` spreads the same ``K`` evenly (the
paper's scheme, generalized to budgets that do not divide ``n``) so the
two strategies are comparable at *equal total budget*.

:class:`BudgetRebalancer` keeps an allocation live under drifting
workloads: per-node :class:`~repro.core.drift.DriftDetector` instances
flag nodes whose frequency snapshot moved, and a bounded number of
single-pointer moves per round flows budget from the node whose *last*
pointer is worth least to the node whose *next* pointer is worth most.
Moves conserve the total, so ``budget.feasibility`` (Σ k_i == spent)
holds at every round boundary.

Everything is overlay-generic: Chord, Pastry and Kademlia all express
selection through :class:`~repro.core.types.SelectionProblem`, so the
allocator composes with the existing selectors unchanged. The problems
a plan is cut from, and the walk that installs its quotas, belong to the
selection plane (:mod:`repro.selection`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.core import chord_selection, kademlia_selection, pastry_selection
from repro.core.drift import DriftDetector
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError
from repro.util.validation import require_non_negative_int

__all__ = [
    "BudgetAllocation",
    "BudgetRebalancer",
    "CostCurve",
    "allocate_brute_force",
    "allocate_greedy",
    "allocate_uniform",
    "curves_for_problems",
    "measured_loads",
    "selector_for",
]

OVERLAYS = ("chord", "pastry", "kademlia")

#: Brute-force enumeration explodes combinatorially; refuse instances the
#: oracle was never meant for (tests stay below this).
_BRUTE_MAX_NODES = 6
_BRUTE_MAX_TOTAL = 10

#: Two marginal gains closer than this are treated as tied (float sums of
#: Zipf weights accumulate rounding; matches the verify-plane tolerance).
_GAIN_EPS = 1e-9


def selector_for(overlay: str) -> Callable[[SelectionProblem], SelectionResult]:
    """The overlay's production local selector (dispatching DP/fast).

    Resolved through the selection modules' attributes so monkeypatched
    solvers propagate into allocation, exactly as the verify plane's
    mutation tests rely on.
    """
    if overlay == "chord":
        return chord_selection.select_chord
    if overlay == "pastry":
        return pastry_selection.select_pastry
    if overlay == "kademlia":
        return kademlia_selection.select_kademlia
    raise ConfigurationError(f"unknown overlay {overlay!r}; expected one of {OVERLAYS}")


class CostCurve:
    """One node's lazy cost curve ``C(k)`` with memoized selector calls.

    ``load`` scales the curve by the node's query rate: a node issuing
    twice the traffic values each saved hop twice as much, so its curve —
    and therefore its marginal gains — carries twice the weight in the
    network-wide objective. Positive scaling preserves monotonicity and
    convexity, so greedy exactness is unaffected.
    """

    __slots__ = ("problem", "overlay", "load", "_selector", "_results")

    def __init__(
        self,
        problem: SelectionProblem,
        overlay: str,
        load: float = 1.0,
    ) -> None:
        if not (load > 0):
            raise ConfigurationError(f"load must be positive, got {load!r}")
        self.problem = problem
        self.overlay = overlay
        self.load = load
        self._selector = selector_for(overlay)
        self._results: dict[int, SelectionResult] = {}

    @property
    def capacity(self) -> int:
        """Largest useful budget: the candidate-pool size."""
        return len(self.problem.candidates)

    def result(self, k: int) -> SelectionResult:
        """The local selection at budget ``k`` (memoized)."""
        require_non_negative_int(k, "k")
        k = min(k, self.capacity)
        cached = self._results.get(k)
        if cached is None:
            cached = self._selector(self.problem.with_k(k))
            self._results[k] = cached
        return cached

    def cost(self, k: int) -> float:
        """Load-weighted optimal eq.-1 cost at budget ``k``."""
        return self.load * self.result(k).cost

    def gain(self, k: int) -> float:
        """Marginal gain of the ``k+1``-th pointer, clamped non-negative."""
        if k >= self.capacity:
            return 0.0
        return max(0.0, self.cost(k) - self.cost(k + 1))


@dataclass
class BudgetAllocation:
    """One split of a total pointer budget across nodes.

    ``quotas[node]`` is the node's per-node ``k``; ``costs[node]`` the
    (load-weighted) local-optimum cost the curve reports at that quota.
    ``spent`` can fall short of ``total`` only when the candidate pools
    cannot absorb the whole budget.
    """

    total: int
    quotas: dict[int, int]
    costs: dict[int, float]
    algorithm: str

    @property
    def spent(self) -> int:
        return sum(self.quotas.values())

    @property
    def total_cost(self) -> float:
        """Network-wide predicted cost: Σ_i C_i(k_i) (eq. 1 summed over
        sources — the same quantity ``network_cost`` re-derives from an
        installed overlay)."""
        return sum(self.costs.values())

    def quota(self, node_id: int) -> int:
        return self.quotas.get(node_id, 0)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "total": self.total,
            "spent": self.spent,
            "total_cost": self.total_cost,
            "quotas": {str(node): k for node, k in sorted(self.quotas.items())},
        }


def curves_for_problems(
    problems: Mapping[int, SelectionProblem],
    overlay: str,
    loads: Mapping[int, float] | None = None,
) -> dict[int, CostCurve]:
    """Build one curve per node; ``loads`` optionally weights them."""
    return {
        node: CostCurve(
            problem, overlay, load=1.0 if loads is None else loads.get(node, 1.0)
        )
        for node, problem in problems.items()
    }


def measured_loads(
    counts: Mapping[int, int], node_ids: Iterable[int] | None = None
) -> dict[int, float]:
    """Observed per-node query counts as mean-1 load weights for
    :class:`CostCurve` (``node_ids`` defaults to the counted nodes).

    Add-one smoothing keeps every load strictly positive (the curve
    validates ``load > 0``) while preserving a mean of exactly 1 over the
    population, so a uniform stream reproduces the uniform-load baseline
    up to multinomial noise."""
    nodes = sorted(counts if node_ids is None else node_ids)
    if not nodes:
        return {}
    total = sum(counts.get(node, 0) for node in nodes)
    denominator = (total + len(nodes)) / len(nodes)
    return {node: (counts.get(node, 0) + 1) / denominator for node in nodes}


def _capacity_total(curves: Mapping[int, CostCurve]) -> int:
    return sum(curve.capacity for curve in curves.values())


def allocate_greedy(curves: Mapping[int, CostCurve], total: int) -> BudgetAllocation:
    """Exact marginal-gain allocation of ``total`` pointers.

    A lazy max-heap over the nodes' current marginal gains: pop the node
    whose next pointer saves the most expected hops, grant it, push its
    following gain. Ties break toward the smaller node id, making the
    allocation a pure function of the curves — and because the greedy
    chain is incremental, allocations **nest**: the budget-``K`` split is
    the budget-``K+1`` split minus its last grant.

    Exactness relies on per-node convexity (gains non-increasing in k);
    see the module docstring and DESIGN.md §12.
    """
    require_non_negative_int(total, "total")
    quotas = {node: 0 for node in curves}
    # (negated gain, node id, next quota): heapq is a min-heap, so the
    # largest gain — smallest id on ties — pops first.
    heap: list[tuple[float, int, int]] = []
    for node in sorted(curves):
        if curves[node].capacity > 0:
            heap.append((-curves[node].gain(0), node, 1))
    heapq.heapify(heap)
    spent = 0
    while spent < total and heap:
        __, node, quota = heapq.heappop(heap)
        quotas[node] = quota
        spent += 1
        curve = curves[node]
        if quota < curve.capacity:
            heapq.heappush(heap, (-curve.gain(quota), node, quota + 1))
    costs = {node: curves[node].cost(quotas[node]) for node in curves}
    return BudgetAllocation(total=total, quotas=quotas, costs=costs, algorithm="greedy")


def allocate_uniform(curves: Mapping[int, CostCurve], total: int) -> BudgetAllocation:
    """The paper's uniform scheme at total budget ``total``.

    ``total // n`` each, remainder granted one-per-node in ascending id
    order; per-node capacity clamps redistribute deterministically so the
    uniform baseline spends exactly as much of the budget as it can.
    """
    require_non_negative_int(total, "total")
    nodes = sorted(curves)
    quotas = {node: 0 for node in nodes}
    if nodes:
        remaining = min(total, _capacity_total(curves))
        while remaining > 0:
            # Round-robin one pointer at a time; capacity-saturated nodes
            # drop out. Terminates: every pass grants at least one.
            granted = False
            for node in nodes:
                if remaining == 0:
                    break
                if quotas[node] < curves[node].capacity:
                    quotas[node] += 1
                    remaining -= 1
                    granted = True
            if not granted:
                break
    costs = {node: curves[node].cost(quotas[node]) for node in nodes}
    return BudgetAllocation(total=total, quotas=quotas, costs=costs, algorithm="uniform")


def allocate_brute_force(
    curves: Mapping[int, CostCurve], total: int
) -> BudgetAllocation:
    """Enumerate every feasible split — ground truth for tiny instances.

    Spends ``min(total, Σ capacity)`` exactly (matching the greedy
    allocator) and returns the minimum-cost split, tie-broken toward the
    lexicographically smallest quota vector in ascending node-id order.
    """
    require_non_negative_int(total, "total")
    nodes = sorted(curves)
    if len(nodes) > _BRUTE_MAX_NODES or total > _BRUTE_MAX_TOTAL:
        raise ConfigurationError(
            f"brute-force allocation is an oracle for tiny instances only "
            f"(n <= {_BRUTE_MAX_NODES}, total <= {_BRUTE_MAX_TOTAL}); "
            f"got n={len(nodes)}, total={total}"
        )
    spend = min(total, _capacity_total(curves))
    best_cost = float("inf")
    best: tuple[int, ...] | None = None

    def recurse(index: int, remaining: int, prefix: tuple[int, ...], cost: float) -> None:
        nonlocal best_cost, best
        if index == len(nodes):
            if remaining == 0 and (
                cost < best_cost - _GAIN_EPS
                or (abs(cost - best_cost) <= _GAIN_EPS and (best is None or prefix < best))
            ):
                best_cost = cost
                best = prefix
            return
        curve = curves[nodes[index]]
        tail_capacity = sum(curves[node].capacity for node in nodes[index + 1 :])
        for quota in range(min(remaining, curve.capacity), -1, -1):
            if remaining - quota > tail_capacity:
                continue
            recurse(index + 1, remaining - quota, prefix + (quota,), cost + curve.cost(quota))

    recurse(0, spend, (), 0.0)
    assert best is not None  # spend <= total capacity, so a split exists
    quotas = dict(zip(nodes, best))
    costs = {node: curves[node].cost(quotas[node]) for node in nodes}
    return BudgetAllocation(total=total, quotas=quotas, costs=costs, algorithm="brute-force")


# ----------------------------------------------------------------------
# Incremental rebalancing under drift
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetMove:
    """One unit of budget flowing donor -> receiver with its net gain."""

    donor: int
    receiver: int
    gain: float


@dataclass
class BudgetRebalancer:
    """Keeps an allocation current as workloads drift, bounded per round.

    Round protocol (the churn runner's periodic rebalance task):

    1. score every live node's current frequency snapshot against the
       snapshot its quota was last computed from (:class:`DriftDetector`);
    2. if no node drifts past ``threshold``, do nothing — the allocation
       is still justified;
    3. otherwise perform up to ``max_moves`` single-pointer moves, each
       from the node whose *last* pointer is currently worth least to the
       node whose *next* pointer is worth most, stopping early when no
       move improves the predicted network cost;
    4. rebase the detectors of every node that drifted or moved.

    Moves conserve the spent total, so the ``budget.feasibility``
    invariant holds between rounds. The quotas dict is shared by
    reference with the runner's periodic recompute tasks: a move takes
    effect at the affected nodes' next recomputation.
    """

    quotas: dict[int, int]
    max_moves: int = 4
    threshold: float = 0.15
    metric: str = "l1"
    moves_applied: int = 0
    rounds: int = 0
    _detectors: dict[int, DriftDetector] = field(default_factory=dict)

    @classmethod
    def from_allocation(
        cls,
        allocation: BudgetAllocation,
        max_moves: int = 4,
        threshold: float = 0.15,
        metric: str = "l1",
    ) -> "BudgetRebalancer":
        return cls(
            quotas=allocation.quotas,
            max_moves=max_moves,
            threshold=threshold,
            metric=metric,
        )

    def baseline(self, problems: Mapping[int, SelectionProblem]) -> None:
        """Rebase every node's detector on its allocation-time snapshot,
        so the first rebalance round only fires on *subsequent* drift.
        The selected set is left empty — the default ``l1`` metric scores
        frequency movement only; callers using the ``coverage`` metric
        should rebase detectors individually with real selections."""
        for node_id, problem in problems.items():
            self._detector(node_id).rebase(problem.frequencies, ())

    def _detector(self, node_id: int) -> DriftDetector:
        detector = self._detectors.get(node_id)
        if detector is None:
            detector = DriftDetector(self.metric)
            self._detectors[node_id] = detector
        return detector

    def _drifted(self, problems: Mapping[int, SelectionProblem]) -> list[int]:
        drifted = []
        for node_id in sorted(problems):
            if node_id not in self._detectors:
                drifted.append(node_id)  # never baselined: treat as stale
                continue
            score = self._detectors[node_id].score(problems[node_id].frequencies)
            if score >= self.threshold:
                drifted.append(node_id)
        return drifted

    def rebalance(
        self,
        problems: Mapping[int, SelectionProblem],
        overlay_kind: str,
        loads: Mapping[int, float] | None = None,
        telemetry=None,
    ) -> list[BudgetMove]:
        """One bounded rebalancing round; returns the applied moves."""
        self.rounds += 1
        drifted = self._drifted(problems)
        if telemetry is not None:
            telemetry.record_budget("round")
        if not drifted:
            if telemetry is not None:
                telemetry.record_budget("skipped")
            return []
        curves = curves_for_problems(problems, overlay_kind, loads)
        moves: list[BudgetMove] = []
        touched: set[int] = set(drifted)
        for __ in range(self.max_moves):
            move = self._best_move(curves)
            if move is None:
                break
            self.quotas[move.donor] = self.quotas.get(move.donor, 0) - 1
            self.quotas[move.receiver] = self.quotas.get(move.receiver, 0) + 1
            touched.update((move.donor, move.receiver))
            moves.append(move)
        self.moves_applied += len(moves)
        if telemetry is not None and moves:
            telemetry.record_budget("moves", len(moves))
        for node_id in sorted(touched):
            problem = problems.get(node_id)
            if problem is None:
                continue
            quota = self.quotas.get(node_id, 0)
            selected = curves[node_id].result(quota).auxiliary if node_id in curves else ()
            self._detector(node_id).rebase(problem.frequencies, selected)
        return moves

    def _best_move(self, curves: Mapping[int, CostCurve]) -> BudgetMove | None:
        donor = None
        donor_gain = float("inf")
        receiver = None
        receiver_gain = -float("inf")
        for node_id in sorted(curves):
            quota = self.quotas.get(node_id, 0)
            curve = curves[node_id]
            if quota > 0:
                last = curve.gain(quota - 1)  # value of the pointer it would give up
                if last < donor_gain - _GAIN_EPS:
                    donor, donor_gain = node_id, last
            if quota < curve.capacity:
                nxt = curve.gain(quota)  # value of the pointer it would receive
                if nxt > receiver_gain + _GAIN_EPS:
                    receiver, receiver_gain = node_id, nxt
        if donor is None or receiver is None or donor == receiver:
            return None
        net = receiver_gain - donor_gain
        if net <= _GAIN_EPS:
            return None
        return BudgetMove(donor=donor, receiver=receiver, gain=net)
