"""The invariant registry: machine-checked properties with differential oracles.

Every invariant is a named, documented property of one layer of the
reproduction. Check functions are deliberately *independent
re-derivations* — linear scans instead of bisect, brute force instead of
DP, per-hop recomputation of the paper's distance metrics — so that a bug
in the optimized code path cannot hide inside the checker that is supposed
to catch it.

Naming convention: ``<scope>.<property>`` with scopes

* ``selection`` — the paper's auxiliary-selection algorithms (Section IV):
  DP ≡ greedy/fast ≡ dense trie batch equivalence, the nesting property
  of Lemma 4.1, cost monotonicity in the budget k, QoS delay-bound
  satisfaction.
* ``routing`` — per-lookup path properties: every delivered hop makes
  strict progress under the overlay's distance metric (eq. 6 for Chord,
  prefix/numeric progress for Pastry), lookups terminate at the
  responsible node, retries stay within policy bounds.
* ``state`` — overlay bookkeeping: forwarding tables cohere with the
  core/successor/leaf/auxiliary sets that feed them, successor lists and
  leaf sets match their ground-truth definitions after stabilization,
  responsibility agrees with a linear-scan oracle.
* ``trace`` — observability accounting: per-hop trace events reconcile
  exactly with :class:`~repro.sim.metrics.HopStatistics` counters.
* ``engine`` — the columnar engine (:mod:`repro.engine`): snapshots are
  faithful images of the object overlay (id axis, CSR rows, dense
  gap-sorted hop tables), and batched frontier lookups replayed on a
  snapshot satisfy the same per-hop progress and
  termination-at-oracle-responsible properties as object lookups —
  checked through the *same* independent oracles, with the batch result
  adapted into the trace shape they consume.

Selection solvers are always called through their *module* attribute
(``chord_selection.select_chord_fast`` etc.), so tests can monkeypatch a
deliberately broken solver and watch the corresponding invariant fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import chord_selection, cost, kademlia_selection, pastry_selection
from repro.core.types import SelectionProblem
from repro.pastry.routing import circular_distance
from repro.util.errors import InfeasibleConstraintError

__all__ = [
    "Invariant",
    "REGISTRY",
    "Violation",
    "check_budget_feasibility",
    "check_cachestats_conservation",
    "check_chord_state",
    "check_chord_successors",
    "check_engine_coherence",
    "check_engine_routing",
    "check_kademlia_buckets",
    "check_kademlia_state",
    "check_pastry_leaf_sets",
    "check_pastry_state",
    "check_responsibility",
    "check_retry_bounds",
    "check_routing_progress",
    "check_routing_termination",
    "check_selection_equivalence",
    "check_selection_monotone",
    "check_selection_nesting",
    "check_selection_qos",
    "check_trace_reconciliation",
    "invariants_for",
]

#: Cost comparisons are float sums of Zipf weights; two algorithms that
#: agree mathematically may differ by accumulated rounding.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9

#: Instance size below which the brute-force differential oracle runs.
_BRUTE_MAX_CANDIDATES = 10
_BRUTE_MAX_K = 3


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


@dataclass(frozen=True)
class Violation:
    """One invariant failure observed at one scenario step."""

    invariant: str
    step: int
    message: str

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "step": self.step,
            "message": self.message,
        }


@dataclass(frozen=True)
class Invariant:
    """A registered machine-checked property."""

    name: str
    scope: str  # "selection" | "routing" | "state" | "trace" | "engine" | "kademlia"
    overlays: tuple[str, ...]
    description: str


REGISTRY: dict[str, Invariant] = {
    invariant.name: invariant
    for invariant in (
        Invariant(
            "selection.equivalence",
            "selection",
            ("chord", "pastry", "kademlia"),
            "The O(n^2 k) DP, the fast/greedy algorithm, an independent cost "
            "re-evaluation, and (on tiny instances) brute force all agree on "
            "the optimal selection cost (eq. 7-10 / Section IV); on the trie "
            "overlays the dense batch kernel matches the greedy bit for bit.",
        ),
        Invariant(
            "selection.nesting",
            "selection",
            ("pastry", "kademlia"),
            "Greedy prefix-metric selections nest: the budget-(j-1) "
            "selection is a subset of the budget-j selection, at DP-optimal "
            "cost for every budget (the nesting property P, Lemma 4.1) — on "
            "Pastry and on Kademlia, whose XOR classes are prefix lengths.",
        ),
        Invariant(
            "selection.monotone_k",
            "selection",
            ("chord", "pastry", "kademlia"),
            "The optimal expected lookup cost is non-increasing in the "
            "auxiliary budget k (more pointers can only help).",
        ),
        Invariant(
            "selection.qos",
            "selection",
            ("chord", "pastry", "kademlia"),
            "Under feasible per-peer delay bounds the QoS-aware DP returns a "
            "selection that satisfies every bound, at a cost no better than "
            "the unconstrained optimum (Section IV-C).",
        ),
        Invariant(
            "routing.progress",
            "routing",
            ("chord", "pastry", "kademlia"),
            "Every delivered hop makes strict progress: on Chord the "
            "clockwise gap to the key strictly shrinks; on Pastry each hop "
            "lengthens the shared prefix with the key, or strictly reduces "
            "circular distance, or breaks an exact distance tie downward; on "
            "Kademlia the XOR distance to the key strictly shrinks.",
        ),
        Invariant(
            "routing.termination",
            "routing",
            ("chord", "pastry", "kademlia"),
            "Successful lookups terminate exactly at the responsible node "
            "(linear-scan oracle); failed lookups report no destination; on "
            "a fully stabilized overlay with no message loss every lookup "
            "succeeds.",
        ),
        Invariant(
            "routing.retry_bounds",
            "routing",
            ("chord", "pastry", "kademlia"),
            "Per-target delivery attempts never exceed the retry policy's "
            "max_attempts; per-event and per-lookup hop/timeout accounting "
            "is exact; hops + timeouts stays within the routing hop limit.",
        ),
        Invariant(
            "state.table_coherence",
            "state",
            ("chord", "pastry"),
            "Forwarding structures are derived views: the Chord ring table "
            "equals core ∪ successors ∪ auxiliary and the Pastry cell union "
            "equals core ∪ leaves ∪ auxiliary (never containing self), and "
            "the overlay's sorted live-id list matches per-node alive flags.",
        ),
        Invariant(
            "state.successor_lists",
            "state",
            ("chord",),
            "After stabilization every live node's successor list equals the "
            "ground truth (the next successor_list_size live nodes clockwise) "
            "and contains no crashed entries — even after crash bursts.",
        ),
        Invariant(
            "state.leaf_sets",
            "state",
            ("pastry",),
            "After stabilization every live node's leaf set equals the "
            "ground-truth numerically-nearest set, is symmetric (y in "
            "leaves(x) implies x in leaves(y)), and contains no crashed "
            "entries — even after joins and leaves.",
        ),
        Invariant(
            "state.responsibility",
            "state",
            ("chord", "pastry", "kademlia"),
            "The overlay's responsible() agrees with a linear scan over all "
            "live nodes: clockwise predecessor on Chord (eq. 6 metric), "
            "numerically closest with lower-id tie-break on Pastry, XOR "
            "minimizer on Kademlia (injective — no tie-break).",
        ),
        Invariant(
            "kademlia.table_coherence",
            "kademlia",
            ("kademlia",),
            "The Kademlia per-class index is a faithful view of core ∪ "
            "auxiliary (never containing self, every entry filed under its "
            "true common-prefix-length class, the non-empty-class mask the "
            "forwarding rule walks matching it), the live-id list matches "
            "per-node alive flags, and after stabilization every node's "
            "core equals a ground-truth k-bucket rebuild over the live set.",
        ),
        Invariant(
            "trace.reconciliation",
            "trace",
            ("chord", "pastry", "kademlia"),
            "Per-hop trace events reconcile exactly with HopStatistics: "
            "lookup/success/failure counts, delivered-hop totals (all "
            "lookups vs successful-only), and timeout totals all match.",
        ),
        Invariant(
            "cachestats.conservation",
            "cachestats",
            ("chord", "pastry", "kademlia"),
            "The attribution plane's accounting is self-consistent: hits <= "
            "uses and stale_uses <= uses for every concrete pointer, the "
            "(node, class) aggregates equal an independent re-sum of the "
            "per-pointer buckets, and the hop-savings credits satisfy the "
            "conservation law sum(credits) == oblivious hops - residual - "
            "observed hops, both per lookup and in total.",
        ),
        Invariant(
            "budget.feasibility",
            "budget",
            ("chord", "pastry", "kademlia"),
            "A global budget allocation is feasible and honest: per-node "
            "quotas are within candidate capacity, they sum to exactly the "
            "spendable budget min(K, total capacity), and every per-node "
            "reported cost matches a fresh local selection re-run at that "
            "node's quota (DESIGN.md §12).",
        ),
        Invariant(
            "engine.table_coherence",
            "engine",
            ("chord", "pastry"),
            "The columnar snapshot is a faithful image of the object "
            "overlay: the sorted live-id axis, every per-node CSR row with "
            "its pointer classes, the dense gap-sorted Chord hop rows "
            "(prefix = entries ascending by clockwise gap, pads duplicating "
            "the max-gap entry), and the Pastry leaf rows and geometry all "
            "match a linear re-derivation from the object nodes.",
        ),
        Invariant(
            "engine.routing_progress",
            "engine",
            ("chord", "pastry"),
            "Batched frontier lookups on a columnar snapshot make strict "
            "per-hop progress under the overlay's distance metric — the "
            "object-router progress oracle evaluated on recorded batch "
            "paths (fully-live overlays, where snapshots are defined).",
        ),
        Invariant(
            "engine.routing_termination",
            "engine",
            ("chord", "pastry"),
            "Batched frontier lookups terminate at the linear-scan-oracle "
            "responsible node, report hop counts consistent with their "
            "recorded paths, and never fail on a clean snapshot.",
        ),
    )
}


def invariants_for(scope: str, overlay: str) -> list[str]:
    """Registered invariant names applicable to ``(scope, overlay)``."""
    return sorted(
        name
        for name, invariant in REGISTRY.items()
        if invariant.scope == scope and overlay in invariant.overlays
    )


# ----------------------------------------------------------------------
# selection.*
# ----------------------------------------------------------------------
def _solve_pair(problem: SelectionProblem, overlay: str):
    """(dp_result, fast_result, fast_label) via module attributes so the
    mutation tests can monkeypatch a broken solver into the checks."""
    if overlay == "chord":
        return (
            chord_selection.select_chord_dp(problem),
            chord_selection.select_chord_fast(problem),
            "fast",
        )
    if overlay == "kademlia":
        return (
            kademlia_selection.select_kademlia_dp(problem),
            kademlia_selection.select_kademlia_greedy(problem),
            "greedy",
        )
    return (
        pastry_selection.select_pastry_dp(problem),
        pastry_selection.select_pastry_greedy(problem),
        "greedy",
    )


def check_selection_equivalence(problem: SelectionProblem, overlay: str) -> list[str]:
    """DP ≡ fast/greedy ≡ re-evaluated cost (≡ brute force when tiny);
    on Pastry and Kademlia the dense batch kernel ≡ greedy exactly (same
    set, ``==`` cost)."""
    messages: list[str] = []
    dp, fast, fast_label = _solve_pair(problem, overlay)
    if not _close(dp.cost, fast.cost):
        messages.append(
            f"dp cost {dp.cost!r} != {fast_label} cost {fast.cost!r} "
            f"at node {problem.source}"
        )
    if overlay != "chord" and pastry_selection.dense_batchable(problem):
        # The kernel itself, via the module attribute so the mutation
        # tests can plant a broken one (Kademlia's form only relabels it).
        (dense,) = pastry_selection.select_pastry_greedy_batch([problem])
        if dense.auxiliary != fast.auxiliary or dense.cost != fast.cost:
            messages.append(
                f"dense batch chose {sorted(dense.auxiliary)} at cost {dense.cost!r}, "
                f"{fast_label} {sorted(fast.auxiliary)} at cost {fast.cost!r} "
                f"at node {problem.source}"
            )
    candidates = set(problem.candidates)
    for result, label in ((dp, "dp"), (fast, fast_label)):
        recomputed = cost.evaluate(problem, result.auxiliary, overlay)
        if not _close(recomputed, result.cost):
            messages.append(
                f"{label} reported cost {result.cost!r} but re-evaluation "
                f"gives {recomputed!r} at node {problem.source}"
            )
        if len(result.auxiliary) > problem.k:
            messages.append(
                f"{label} selected {len(result.auxiliary)} auxiliaries "
                f"with budget k={problem.k} at node {problem.source}"
            )
        if not set(result.auxiliary) <= candidates:
            rogue = sorted(set(result.auxiliary) - candidates)
            messages.append(
                f"{label} selected non-candidate peers {rogue} "
                f"at node {problem.source}"
            )
    if len(candidates) <= _BRUTE_MAX_CANDIDATES and problem.k <= _BRUTE_MAX_K:
        brute = cost.brute_force_optimal(problem, overlay)
        if not _close(dp.cost, brute.cost):
            messages.append(
                f"dp cost {dp.cost!r} != brute-force optimum {brute.cost!r} "
                f"at node {problem.source}"
            )
    return messages


def check_selection_nesting(
    problem: SelectionProblem, overlay: str = "pastry"
) -> list[str]:
    """Lemma 4.1: greedy selections nest across budgets at DP cost.

    Applies to both prefix-metric overlays — Pastry directly, Kademlia
    because its XOR distance classes *are* common prefix lengths."""
    messages: list[str] = []
    previous: set[int] = set()
    for budget in range(problem.k + 1):
        sub = problem.with_k(budget)
        if overlay == "kademlia":
            greedy = kademlia_selection.select_kademlia_greedy(sub)
            dp = kademlia_selection.select_kademlia_dp(sub)
        else:
            greedy = pastry_selection.select_pastry_greedy(sub)
            dp = pastry_selection.select_pastry_dp(sub)
        if not _close(greedy.cost, dp.cost):
            messages.append(
                f"greedy cost {greedy.cost!r} != dp cost {dp.cost!r} "
                f"at budget {budget} (node {problem.source})"
            )
        selected = set(greedy.auxiliary)
        if not previous <= selected:
            dropped = sorted(previous - selected)
            messages.append(
                f"nesting broken at budget {budget}: peers {dropped} from "
                f"budget {budget - 1} were dropped (node {problem.source})"
            )
        previous = selected
    return messages


def check_selection_monotone(problem: SelectionProblem, overlay: str) -> list[str]:
    """Optimal cost never increases when the budget k grows."""
    messages: list[str] = []
    if overlay == "chord":
        select = chord_selection.select_chord_fast
    elif overlay == "kademlia":
        select = kademlia_selection.select_kademlia_greedy
    else:
        select = pastry_selection.select_pastry_greedy
    last: float | None = None
    for budget in range(problem.k + 1):
        result = select(problem.with_k(budget))
        if last is not None and result.cost > last and not _close(result.cost, last):
            messages.append(
                f"cost rose from {last!r} at budget {budget - 1} to "
                f"{result.cost!r} at budget {budget} (node {problem.source})"
            )
        last = result.cost
    return messages


def _peer_distance(problem: SelectionProblem, overlay: str, peer: int, pointers) -> int:
    if overlay == "chord":
        return cost.chord_peer_distance(problem.space, problem.source, peer, pointers)
    if overlay == "kademlia":
        return kademlia_selection.kademlia_peer_distance(
            problem.space, peer, pointers
        )
    return cost.pastry_peer_distance(problem.space, peer, pointers)


def check_selection_qos(problem: SelectionProblem, overlay: str) -> list[str]:
    """Feasible-by-construction delay bounds must be honored by the DP."""
    if not problem.candidates:
        return []
    messages: list[str] = []
    base, __, __ = _solve_pair(problem, overlay)
    base_pointers = set(problem.core_neighbors) | set(base.auxiliary)
    # Bind the two hottest peers to the latency the unconstrained optimum
    # already achieves for them — feasible by construction.
    peers = sorted(
        problem.candidates, key=lambda p: (-problem.frequencies.get(p, 0.0), p)
    )[:2]
    bounds = {
        peer: 1 + _peer_distance(problem, overlay, peer, base_pointers)
        for peer in peers
    }
    bounded_problem = SelectionProblem(
        space=problem.space,
        source=problem.source,
        frequencies=problem.frequencies,
        core_neighbors=problem.core_neighbors,
        k=problem.k,
        delay_bounds=bounds,
    )
    try:
        if overlay == "chord":
            bounded = chord_selection.select_chord_dp(bounded_problem)
        elif overlay == "kademlia":
            bounded = kademlia_selection.select_kademlia_dp(bounded_problem)
        else:
            bounded = pastry_selection.select_pastry_dp(bounded_problem)
    except InfeasibleConstraintError:
        return [
            f"bounds {sorted(bounds.items())} derived from a feasible "
            f"selection were reported infeasible at node {problem.source}"
        ]
    result_pointers = set(problem.core_neighbors) | set(bounded.auxiliary)
    for peer, bound in sorted(bounds.items()):
        achieved = 1 + _peer_distance(problem, overlay, peer, result_pointers)
        if achieved > bound:
            messages.append(
                f"peer {peer} bound {bound} violated: achieved latency "
                f"{achieved} at node {problem.source}"
            )
    if bounded.cost < base.cost and not _close(bounded.cost, base.cost):
        messages.append(
            f"constrained cost {bounded.cost!r} beats unconstrained optimum "
            f"{base.cost!r} at node {problem.source}"
        )
    return messages


# ----------------------------------------------------------------------
# budget.*
# ----------------------------------------------------------------------
def check_budget_feasibility(allocation, problems, overlay: str) -> list[str]:
    """``budget.feasibility``: the allocation is spendable and honest.

    Independent re-derivation: capacities come from the problems' own
    candidate pools (not the allocator's curves), and every per-node cost
    is recomputed by running the overlay's local selector fresh at the
    allocated quota — through the selection-module attributes, so a
    monkeypatched allocator or solver cannot satisfy its own checker.
    Assumes unweighted curves (load 1), which is how the scenario engine
    allocates.
    """
    messages: list[str] = []
    capacities = {
        node_id: len(problem.candidates) for node_id, problem in problems.items()
    }
    rogue = sorted(set(allocation.quotas) - set(problems))
    if rogue:
        messages.append(f"allocation covers nodes without problems: {rogue}")
        return messages
    spendable = min(allocation.total, sum(capacities.values()))
    spent = sum(allocation.quotas.values())
    if spent != spendable:
        messages.append(
            f"allocation spends {spent} pointers but the spendable budget is "
            f"min(K={allocation.total}, capacity={sum(capacities.values())}) "
            f"= {spendable}"
        )
    for node_id in sorted(allocation.quotas):
        quota = allocation.quotas[node_id]
        if quota < 0 or quota > capacities[node_id]:
            messages.append(
                f"node {node_id} quota {quota} outside [0, capacity "
                f"{capacities[node_id]}]"
            )
            continue
        problem = problems[node_id].with_k(quota)
        if overlay == "chord":
            fresh = chord_selection.select_chord(problem)
        elif overlay == "kademlia":
            fresh = kademlia_selection.select_kademlia(problem)
        else:
            fresh = pastry_selection.select_pastry(problem)
        reported = allocation.costs.get(node_id)
        if reported is None:
            messages.append(f"node {node_id} has a quota but no reported cost")
        elif not _close(reported, fresh.cost):
            messages.append(
                f"node {node_id} reported cost {reported!r} at quota {quota} "
                f"but a fresh local selection achieves {fresh.cost!r}"
            )
    return messages


# ----------------------------------------------------------------------
# routing.*
# ----------------------------------------------------------------------
def check_routing_progress(overlay_kind: str, space, trace) -> list[str]:
    """Strict per-delivered-hop progress under the paper's metrics."""
    messages: list[str] = []
    path = trace.path
    key = trace.key
    if overlay_kind == "chord":
        gaps = [space.gap(node, key) for node in path]
        for index, (before, after) in enumerate(zip(gaps, gaps[1:])):
            if after >= before:
                messages.append(
                    f"hop {index} ({path[index]} -> {path[index + 1]}) did "
                    f"not shrink the clockwise gap to key {key}: "
                    f"{before} -> {after}"
                )
        return messages
    if overlay_kind == "kademlia":
        distances = [node ^ key for node in path]
        for index, (before, after) in enumerate(zip(distances, distances[1:])):
            if after >= before:
                messages.append(
                    f"hop {index} ({path[index]} -> {path[index + 1]}) did "
                    f"not shrink the XOR distance to key {key}: "
                    f"{before} -> {after}"
                )
        return messages
    for index, (cur, nxt) in enumerate(zip(path, path[1:])):
        lcp_cur = space.common_prefix_length(cur, key)
        lcp_next = space.common_prefix_length(nxt, key)
        dist_cur = circular_distance(space, cur, key)
        dist_next = circular_distance(space, nxt, key)
        if lcp_next > lcp_cur:
            continue
        if dist_next < dist_cur:
            continue
        if dist_next == dist_cur and nxt < cur:
            continue
        messages.append(
            f"hop {index} ({cur} -> {nxt}) made no progress toward key "
            f"{key}: lcp {lcp_cur} -> {lcp_next}, circular distance "
            f"{dist_cur} -> {dist_next}"
        )
    return messages


def _oracle_responsible(overlay_kind: str, space, alive, key: int) -> int:
    """Linear-scan responsibility oracle (independent of bisect paths)."""
    if overlay_kind == "chord":
        # The predecessor minimizes the clockwise gap node -> key (eq. 6
        # operand): gaps are distinct per node, so no tie-break needed.
        return min(alive, key=lambda nid: space.gap(nid, key))
    if overlay_kind == "kademlia":
        # XOR with a fixed key is injective: the minimizer is unique.
        return min(alive, key=lambda nid: nid ^ key)
    return min(alive, key=lambda nid: (circular_distance(space, nid, key), nid))


def check_routing_termination(
    overlay_kind: str, space, alive, trace, clean: bool
) -> list[str]:
    """Success lands on the oracle-responsible node; clean overlays never fail."""
    messages: list[str] = []
    expected = _oracle_responsible(overlay_kind, space, alive, trace.key)
    if trace.succeeded:
        if trace.destination != expected:
            messages.append(
                f"lookup for key {trace.key} claimed destination "
                f"{trace.destination} but the responsible node is {expected}"
            )
        if trace.path[-1] != trace.destination:
            messages.append(
                f"lookup for key {trace.key} ended its path at "
                f"{trace.path[-1]} but reported destination {trace.destination}"
            )
    else:
        if trace.destination is not None:
            messages.append(
                f"failed lookup for key {trace.key} still reported a "
                f"destination {trace.destination}"
            )
        if clean:
            messages.append(
                f"lookup for key {trace.key} from {trace.source} failed on a "
                f"fully stabilized overlay with no message loss"
            )
    return messages


def check_retry_bounds(trace, max_attempts: int, limit: int) -> list[str]:
    """Exact per-event and per-lookup retry/timeout accounting."""
    messages: list[str] = []
    for index, event in enumerate(trace.events):
        if not 1 <= event.attempts <= max_attempts:
            messages.append(
                f"event {index} ({event.forwarder} -> {event.target}) made "
                f"{event.attempts} attempts with max_attempts={max_attempts}"
            )
        expected_timeouts = event.attempts - 1 if event.delivered else event.attempts
        if event.timeouts != expected_timeouts:
            messages.append(
                f"event {index} ({event.forwarder} -> {event.target}) "
                f"recorded {event.timeouts} timeouts, expected "
                f"{expected_timeouts} from {event.attempts} attempts "
                f"(delivered={event.delivered})"
            )
        if len(event.verdicts) != event.timeouts:
            messages.append(
                f"event {index} carries {len(event.verdicts)} fault verdicts "
                f"for {event.timeouts} timeouts"
            )
    delivered = sum(1 for event in trace.events if event.delivered)
    timeouts = sum(event.timeouts for event in trace.events)
    if delivered != trace.hops:
        messages.append(
            f"trace shows {delivered} delivered hops but the lookup "
            f"reported hops={trace.hops}"
        )
    if timeouts != trace.timeouts:
        messages.append(
            f"trace shows {timeouts} timeouts but the lookup reported "
            f"timeouts={trace.timeouts}"
        )
    if trace.hops + trace.timeouts > limit + 1:
        messages.append(
            f"hops + timeouts = {trace.hops + trace.timeouts} exceeds the "
            f"routing limit {limit} (+1 for the final probe)"
        )
    return messages


# ----------------------------------------------------------------------
# state.*
# ----------------------------------------------------------------------
def _check_alive_bookkeeping(overlay) -> list[str]:
    messages: list[str] = []
    alive = overlay.alive_ids()
    if alive != sorted(set(alive)):
        messages.append(f"live-id list is not strictly sorted: {alive}")
    alive_set = set(alive)
    for node_id, node in sorted(overlay.nodes.items()):
        if node.alive and node_id not in alive_set:
            messages.append(f"node {node_id} is alive but missing from the live list")
        if not node.alive and node_id in alive_set:
            messages.append(f"node {node_id} is crashed but still in the live list")
    return messages


def check_chord_state(ring) -> list[str]:
    """Ring table == core ∪ successors ∪ auxiliary, minus self."""
    messages = _check_alive_bookkeeping(ring)
    for node_id in ring.alive_ids():
        node = ring.node(node_id)
        expected = (node.core | set(node.successors) | node.auxiliary) - {node_id}
        actual = set(node.table.entries())
        if actual != expected:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            messages.append(
                f"node {node_id} ring table incoherent: missing {missing}, "
                f"extra {extra}"
            )
    return messages


def check_chord_successors(ring) -> list[str]:
    """Post-stabilization successor lists match the global ground truth."""
    messages: list[str] = []
    for node_id, successors in sorted(ring.successor_snapshot().items()):
        reference = ring.reference_successors(node_id)
        if successors != reference:
            messages.append(
                f"node {node_id} successor list {list(successors)} != "
                f"ground truth {list(reference)}"
            )
        dead = sorted(s for s in successors if not ring.nodes[s].alive)
        if dead:
            messages.append(
                f"node {node_id} successor list holds crashed nodes {dead}"
            )
    return messages


def check_pastry_state(network) -> list[str]:
    """Cell union == core ∪ leaves ∪ auxiliary, minus self."""
    messages = _check_alive_bookkeeping(network)
    for node_id in network.alive_ids():
        node = network.node(node_id)
        expected = (node.core | node.leaves | node.auxiliary) - {node_id}
        actual: set[int] = set()
        for entries in node.cells.values():
            actual.update(entries)
        if actual != expected:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            messages.append(
                f"node {node_id} cell union incoherent: missing {missing}, "
                f"extra {extra}"
            )
    return messages


def check_pastry_leaf_sets(network) -> list[str]:
    """Post-stabilization leaf sets: ground truth + symmetry + liveness."""
    messages: list[str] = []
    snapshot = network.leaf_snapshot()
    for node_id, leaves in sorted(snapshot.items()):
        reference = network.reference_leaf_set(node_id)
        if leaves != reference:
            messages.append(
                f"node {node_id} leaf set {sorted(leaves)} != ground truth "
                f"{sorted(reference)}"
            )
        dead = sorted(leaf for leaf in leaves if not network.nodes[leaf].alive)
        if dead:
            messages.append(f"node {node_id} leaf set holds crashed nodes {dead}")
        for leaf in sorted(leaves):
            if leaf in snapshot and node_id not in snapshot[leaf]:
                messages.append(
                    f"leaf-set asymmetry: {leaf} in leaves({node_id}) but "
                    f"{node_id} not in leaves({leaf})"
                )
    return messages


def check_kademlia_state(network) -> list[str]:
    """Per-class index == core ∪ auxiliary, minus self, correctly filed,
    and its non-empty-class mask matches it."""
    messages = _check_alive_bookkeeping(network)
    top = network.space.bits - 1
    for node_id in network.alive_ids():
        node = network.node(node_id)
        expected = (node.core | node.auxiliary) - {node_id}
        actual: set[int] = set()
        for entries in node.classes.values():
            actual.update(entries)
        if actual != expected:
            missing = sorted(expected - actual)
            extra = sorted(actual - expected)
            messages.append(
                f"node {node_id} class-index union incoherent: missing "
                f"{missing}, extra {extra}"
            )
            continue
        for prefix, entries in sorted(node.classes.items()):
            for entry in sorted(entries):
                true_prefix = network.space.common_prefix_length(node_id, entry)
                if true_prefix != prefix:
                    messages.append(
                        f"node {node_id} filed contact {entry} under prefix "
                        f"class {prefix}, true common prefix is {true_prefix}"
                    )
        mask = sum(1 << (top - prefix) for prefix, entries in node.classes.items() if entries)
        if node.class_mask != mask:
            messages.append(
                f"node {node_id} class mask {node.class_mask:b} does not match "
                f"its non-empty classes {mask:b}"
            )
    return messages


def check_kademlia_buckets(network) -> list[str]:
    """Post-stabilization cores match a ground-truth k-bucket rebuild."""
    messages: list[str] = []
    for node_id in network.alive_ids():
        node = network.node(node_id)
        reference = network.reference_core(node_id)
        if node.core != reference:
            missing = sorted(reference - node.core)
            extra = sorted(node.core - reference)
            messages.append(
                f"node {node_id} core != ground-truth bucket rebuild: "
                f"missing {missing}, extra {extra}"
            )
        dead = sorted(
            contact for contact in node.core if not network.nodes[contact].alive
        )
        if dead:
            messages.append(f"node {node_id} core holds crashed nodes {dead}")
    return messages


def check_responsibility(overlay_kind: str, overlay, keys) -> list[str]:
    """Bisect-based responsible() vs the linear-scan oracle."""
    messages: list[str] = []
    alive = overlay.alive_ids()
    for key in keys:
        fast = overlay.responsible(key)
        oracle = _oracle_responsible(overlay_kind, overlay.space, alive, key)
        if fast != oracle:
            messages.append(
                f"responsible({key}) returned {fast} but the linear-scan "
                f"oracle says {oracle}"
            )
    return messages


# ----------------------------------------------------------------------
# cachestats.*
# ----------------------------------------------------------------------
def check_cachestats_conservation(recorder) -> list[str]:
    """``cachestats.conservation``: the attribution ledger is honest.

    Independent re-derivation: the (node, class) aggregates and the
    grand credit total are re-summed from the per-pointer buckets rather
    than read back from the recorder's own ``class_totals``, so a
    recorder that double-credits (or mis-buckets) cannot satisfy its own
    checker.
    """
    messages: list[str] = []
    resummed: dict[tuple[int, str], list[int]] = {}
    for (owner, target, pointer_class), stats in sorted(recorder.by_pointer.items()):
        label = f"pointer {owner} -> {target} [{pointer_class}]"
        if stats.hits > stats.uses:
            messages.append(f"{label} recorded {stats.hits} hits > {stats.uses} uses")
        if stats.stale_uses > stats.uses:
            messages.append(
                f"{label} recorded {stats.stale_uses} stale uses > "
                f"{stats.uses} uses"
            )
        bucket = resummed.setdefault((owner, pointer_class), [0, 0, 0, 0])
        bucket[0] += stats.uses
        bucket[1] += stats.hits
        bucket[2] += stats.stale_uses
        bucket[3] += stats.credited
    for (node_id, pointer_class), stats in sorted(recorder.by_node_class.items()):
        expected = resummed.get((node_id, pointer_class), [0, 0, 0, 0])
        actual = [stats.uses, stats.hits, stats.stale_uses, stats.credited]
        if actual != expected:
            messages.append(
                f"(node {node_id}, class {pointer_class}) aggregate {actual} "
                f"!= per-pointer re-sum {expected}"
            )
    rogue = sorted(set(resummed) - set(recorder.by_node_class))
    if rogue:
        messages.append(f"per-pointer buckets without a (node, class) aggregate: {rogue}")
    for failure in recorder.conservation_failures:
        messages.append(f"per-lookup conservation violated: {failure}")
    totals = recorder.totals
    credit_total = sum(stats.credited for stats in recorder.by_pointer.values())
    if credit_total != totals.credited:
        messages.append(
            f"per-pointer credits sum to {credit_total} but the ledger "
            f"records {totals.credited}"
        )
    expected_credit = (
        totals.oblivious_hops - totals.residual_hops - totals.observed_hops
    )
    if totals.credited != expected_credit:
        messages.append(
            f"conservation law broken in total: credited {totals.credited} != "
            f"oblivious {totals.oblivious_hops} - residual "
            f"{totals.residual_hops} - observed {totals.observed_hops}"
        )
    if totals.attributed + totals.unattributed != totals.lookups:
        messages.append(
            f"attributed {totals.attributed} + unattributed "
            f"{totals.unattributed} != lookups {totals.lookups}"
        )
    return messages


# ----------------------------------------------------------------------
# trace.*
# ----------------------------------------------------------------------
def check_trace_reconciliation(counters, stats, results) -> list[str]:
    """Trace counters vs HopStatistics vs raw lookup results — exact."""
    messages: list[str] = []
    successes = sum(1 for result in results if result.succeeded)
    checks = [
        ("lookup count", counters.lookups, stats.lookups),
        ("lookup count vs results", counters.lookups, len(results)),
        ("success count", counters.succeeded, stats.successes),
        ("success count vs results", counters.succeeded, successes),
        ("failure count", counters.failed, stats.failures),
        (
            "delivered hops (all lookups)",
            counters.total_hops,
            sum(result.hops for result in results),
        ),
        (
            "delivered hops (successes only)",
            sum(result.hops for result in results if result.succeeded),
            stats.total_hops,
        ),
        ("timeouts", counters.total_timeouts, stats.total_timeouts),
        (
            "timeouts vs results",
            counters.total_timeouts,
            sum(result.timeouts for result in results),
        ),
    ]
    for label, left, right in checks:
        if left != right:
            messages.append(f"{label} does not reconcile: {left} != {right}")
    return messages


# ----------------------------------------------------------------------
# engine.*
# ----------------------------------------------------------------------
def _chord_entry_class(node, entry: int) -> int:
    """Strongest-claim pointer class code (mirrors the tracer's rule)."""
    if entry in node.core:
        return 0
    if entry in node.successors:
        return 1
    if entry in node.auxiliary:
        return 2
    return 3


def _check_chord_snapshot(overlay) -> list[str]:
    import numpy as np

    from repro.engine.columnar import snapshot_chord

    snapshot = snapshot_chord(overlay)
    messages: list[str] = []
    alive = overlay.alive_ids()
    if snapshot.ids.tolist() != list(alive):
        return [f"columnar id axis != sorted live ids ({snapshot.n} vs {len(alive)})"]
    offsets = snapshot.table_offsets.tolist()
    table_ids = snapshot.table_ids.tolist()
    table_class = snapshot.table_class.tolist()
    for position, node_id in enumerate(alive):
        node = overlay.node(node_id)
        entries = node.table.entries()
        start, end = offsets[position], offsets[position + 1]
        if table_ids[start:end] != entries:
            messages.append(
                f"node {node_id} CSR row {table_ids[start:end]} != object "
                f"table {entries}"
            )
            continue
        for index, entry in enumerate(entries):
            expected = _chord_entry_class(node, entry)
            if table_class[start + index] != expected:
                messages.append(
                    f"node {node_id} entry {entry} classed "
                    f"{table_class[start + index]}, expected {expected}"
                )
    if snapshot.hop_gaps is None:
        return messages
    width = snapshot.hop_width
    pad = int(np.iinfo(snapshot.hop_gaps.dtype).max)
    hop_gaps = snapshot.hop_gaps.tolist()
    hop_pos = snapshot.hop_pos.tolist()
    hop_class = snapshot.hop_class.tolist()
    mask = snapshot.mask
    max_count = max(offsets[p + 1] - offsets[p] for p in range(len(alive)))
    if width != max_count + 1:
        messages.append(f"hop width {width} != max row count {max_count} + 1")
        return messages
    for position, node_id in enumerate(alive):
        node = overlay.node(node_id)
        ranked = sorted(
            ((entry - node_id) & mask, entry) for entry in node.table.entries()
        )
        base = position * width
        bad = False
        for col, (gap, entry) in enumerate(ranked):
            if (
                hop_gaps[base + col] != gap
                or alive[hop_pos[base + col]] != entry
                or hop_class[base + col] != _chord_entry_class(node, entry)
            ):
                messages.append(
                    f"node {node_id} dense slot {col} does not match its "
                    f"rank-{col} table entry {entry} (gap {gap})"
                )
                bad = True
                break
        if bad:
            continue
        last_entry = ranked[-1][1]
        last_class = _chord_entry_class(node, last_entry)
        for col in range(len(ranked), width):
            if (
                hop_gaps[base + col] != pad
                or alive[hop_pos[base + col]] != last_entry
                or hop_class[base + col] != last_class
            ):
                messages.append(
                    f"node {node_id} pad column {col} does not carry the pad "
                    f"gap and duplicate the max-gap entry {last_entry}"
                )
                break
    return messages


def _check_pastry_snapshot(overlay) -> list[str]:
    from repro.engine.columnar import snapshot_pastry

    snapshot = snapshot_pastry(overlay)
    messages: list[str] = []
    space = overlay.space
    alive = overlay.alive_ids()
    if snapshot.ids.tolist() != list(alive):
        return [f"columnar id axis != sorted live ids ({snapshot.n} vs {len(alive)})"]
    for position, node_id in enumerate(alive):
        node = overlay.node(node_id)
        per_row: dict[int, list[int]] = {}
        for (row, __), bucket in node.cells.items():
            per_row.setdefault(row, []).extend(sorted(bucket))
        for row in range(snapshot.bits):
            start = int(snapshot.row_ptr[position, row])
            end = int(snapshot.row_ptr[position, row + 1])
            got = snapshot.nbr_ids[start:end].tolist()
            expected = per_row.get(row, [])
            if got != expected:
                messages.append(
                    f"node {node_id} prefix row {row}: CSR {got} != cells "
                    f"{expected}"
                )
                continue
            for index, entry in enumerate(expected):
                code = (
                    0 if entry in node.core else 1 if entry in node.leaves else 2
                )
                if int(snapshot.nbr_class[start + index]) != code:
                    messages.append(
                        f"node {node_id} entry {entry} classed "
                        f"{int(snapshot.nbr_class[start + index])}, expected {code}"
                    )
        leaves = sorted(node.leaves)
        leaf_row = snapshot.leaf_mat[position].tolist()
        if leaf_row[: len(leaves)] != leaves or any(
            value != node_id for value in leaf_row[len(leaves) :]
        ):
            messages.append(
                f"node {node_id} leaf row {leaf_row} != sorted leaves "
                f"{leaves} + own-id padding"
            )
        if bool(snapshot.no_leaves[position]) != (not leaves):
            messages.append(f"node {node_id} no_leaves flag is wrong")
        if leaves:
            expected_radius = max(
                circular_distance(space, node_id, leaf) for leaf in leaves
            )
            if int(snapshot.radius_max[position]) != expected_radius:
                messages.append(
                    f"node {node_id} proximity radius "
                    f"{int(snapshot.radius_max[position])} != "
                    f"{expected_radius}"
                )
    return messages


def check_engine_coherence(overlay_kind: str, overlay) -> list[str]:
    """The columnar snapshot mirrors the object overlay, field by field."""
    if overlay_kind == "chord":
        return _check_chord_snapshot(overlay)
    return _check_pastry_snapshot(overlay)


def check_engine_routing(
    overlay_kind: str, overlay, sources, keys, clean: bool = True
) -> tuple[list[str], list[str]]:
    """Batched columnar lookups through the object-router oracles.

    Returns ``(progress, termination)`` message lists: each lane's
    :class:`~repro.routing.LookupResult` is fed to
    :func:`check_routing_progress` and :func:`check_routing_termination`,
    plus a hops-vs-path consistency check the batch result makes
    possible.
    """
    from repro.engine.columnar import snapshot_chord, snapshot_pastry
    from repro.engine.router import batch_route_chord, batch_route_pastry

    space = overlay.space
    alive = overlay.alive_ids()
    if overlay_kind == "chord":
        result = batch_route_chord(
            snapshot_chord(overlay), sources, keys, record_paths=True
        )
    else:
        result = batch_route_pastry(
            snapshot_pastry(overlay), sources, keys, record_paths=True
        )
    progress: list[str] = []
    termination: list[str] = []
    for lane, (source, key) in enumerate(zip(sources, keys)):
        trace = result.lane_result(lane, source, key)
        progress.extend(
            f"lane {lane}: {message}"
            for message in check_routing_progress(overlay_kind, space, trace)
        )
        termination.extend(
            f"lane {lane}: {message}"
            for message in check_routing_termination(
                overlay_kind, space, alive, trace, clean
            )
        )
        if trace.succeeded and trace.hops != len(trace.path) - 1:
            termination.append(
                f"lane {lane}: reported {trace.hops} hops but the recorded path "
                f"has {len(trace.path) - 1} forwards"
            )
    return progress, termination
