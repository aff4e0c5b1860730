"""The one selection plane all three overlays install auxiliaries through.

Section III gives every overlay the same maintenance step: a node solves
eq. 1 over its observed frequencies ``f_v`` and its core neighbors
``N_s``, then installs the ``k`` auxiliary pointers it chose. Only ``N_s``
differs by overlay, so each node class states it once, as
``node.core_neighbors()`` (fingers plus successor list on Chord, routing
table plus leaf set on Pastry, bucket contacts on Kademlia), and this
module owns everything around that rule:

* :func:`node_problem` — a node's top-``frequency_limit`` snapshot plus
  its core neighbors, the problem every solver and check sees;
* :func:`plan_problems` — the ``k = 0`` problem set a budget plan is cut
  from (:mod:`repro.core.budget`);
* :func:`recompute` — one node's recompute: the ``k`` check, the
  dead-node error, the policy call, the install, and the
  ``selection.recompute`` span and ``selection.pointer_updates`` count
  when telemetry is attached;
* :func:`install` — the ascending-id walk over every live node, at a
  uniform ``k`` or at a budget plan's per-node quotas;
* :func:`policies` — an overlay's optimal/oblivious policy pair.

Every overlay reaches this module through the ``recompute_auxiliary`` and
``recompute_all_auxiliary`` entry points of :class:`repro.overlay.Overlay`,
and :func:`install` calls the former through the overlay instance, so
anything wrapping those methods sees every per-node recompute.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.budget import BudgetAllocation
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import NodeAbsentError
from repro.util.validation import require_non_negative_int

__all__ = ["AuxiliaryPolicy", "install", "node_problem", "plan_problems", "policies", "recompute"]

#: Signature of an auxiliary-selection policy: (problem, rng, overlay).
#: The overlay lets frequency-oblivious baselines draw random nodes per
#: distance class from the whole live population, as the paper specifies.
AuxiliaryPolicy = Callable[[SelectionProblem, random.Random, Any], SelectionResult]


def policies(
    select: Callable[[SelectionProblem], SelectionResult],
    select_oblivious: Callable[..., SelectionResult],
) -> tuple[AuxiliaryPolicy, AuxiliaryPolicy]:
    """An overlay's ``(optimal_policy, oblivious_policy)`` pair.

    The first is the paper's frequency-aware solver ``select`` (rng and
    overlay unused). The second is the frequency-oblivious baseline of
    Section VI-A: ``select_oblivious`` draws random nodes per distance
    class, from the overlay's live population when one is given.
    """

    def optimal_policy(problem: SelectionProblem, rng: random.Random, overlay=None) -> SelectionResult:
        return select(problem)

    def oblivious_policy(problem: SelectionProblem, rng: random.Random, overlay=None) -> SelectionResult:
        pool = overlay.alive_ids() if overlay is not None else None
        return select_oblivious(problem, rng, pool=pool)

    return optimal_policy, oblivious_policy


def node_problem(
    overlay, node_id: int, k: int, frequency_limit: int | None = None
) -> SelectionProblem:
    """The selection problem ``node_id`` solves at budget ``k``: its
    observed frequencies, truncated to the top ``frequency_limit`` peers
    (the paper's streaming top-n note), and its core neighbors."""
    node = overlay.nodes[node_id]
    return SelectionProblem(
        space=overlay.space,
        source=node_id,
        frequencies=node.frequency_snapshot(frequency_limit),
        core_neighbors=node.core_neighbors(),
        k=k,
    )


def plan_problems(overlay, frequency_limit: int | None = None) -> dict[int, SelectionProblem]:
    """One ``k = 0`` problem per live node with observed peers: exactly
    what :func:`recompute` would solve there, so a plan's curve costs
    coincide with what installing its quotas achieves."""
    problems: dict[int, SelectionProblem] = {}
    for node_id in overlay.alive_ids():
        problem = node_problem(overlay, node_id, 0, frequency_limit)
        if problem.frequencies:
            problems[node_id] = problem
    return problems


def recompute(
    overlay,
    node_id: int,
    k: int,
    policy: AuxiliaryPolicy,
    rng: random.Random,
    frequency_limit: int | None = None,
    telemetry=None,
) -> SelectionResult:
    """Run ``policy`` at one live node and install its result (the
    periodic recomputation of Section III). Peers the node learned are
    dead were already dropped from its tracker by eviction."""
    require_non_negative_int(k, "k")
    node = overlay.nodes[node_id]
    if not node.alive:
        raise NodeAbsentError(f"cannot select auxiliaries at dead node {node_id}")
    problem = node_problem(overlay, node_id, k, frequency_limit)
    if telemetry is None:
        result = policy(problem, rng, overlay)
        node.set_auxiliary(set(result.auxiliary))
        return result
    previous = set(node.auxiliary)
    with telemetry.span("selection.recompute"):
        result = policy(problem, rng, overlay)
        node.set_auxiliary(set(result.auxiliary))
    telemetry.add_work("selection.pointer_updates", len(previous ^ set(result.auxiliary)))
    return result


def install(
    overlay,
    budget: int | BudgetAllocation,
    policy: AuxiliaryPolicy,
    rng: random.Random,
    frequency_limit: int | None = None,
) -> None:
    """Recompute every live node in ascending id order, the order that
    keeps a policy's RNG draws reproducible. ``budget`` is the uniform
    ``k`` or a plan whose quota is 0 at the nodes it left out."""
    for node_id in overlay.alive_ids():
        k = budget.quota(node_id) if isinstance(budget, BudgetAllocation) else budget
        overlay.recompute_auxiliary(node_id, k, policy, rng, frequency_limit)
