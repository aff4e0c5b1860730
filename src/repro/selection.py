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
  uniform ``k`` or at a budget plan's per-node quotas, in chunks of
  :data:`INSTALL_CHUNK` nodes (:class:`InstallChunk`);
* :func:`policies` — an overlay's optimal/oblivious policy pair.

Every overlay reaches this module through the ``recompute_auxiliary`` and
``recompute_all_auxiliary`` entry points of :class:`repro.overlay.Overlay`,
and :func:`install` calls the former through the overlay instance, so
anything wrapping those methods sees every per-node recompute.

A chunk's problems are built before any of them is installed, which is
safe because a node's problem reads only its own tracker and core
tables, never another node's auxiliaries. An optimal policy with a
batch form (Pastry's and Kademlia's dense trie greedy) solves every
batchable problem of the chunk at the chunk's first call and answers
the later calls from that result; the policy is still called once per
node, in the same order, so every RNG draw and traced count stays put.
Problems with delay bounds, ids wider than 53 bits, a chunk's lone
batchable problem and single-node recomputes (churn, adaptive runs) are
solved at their own node's call, as before.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.core.budget import BudgetAllocation
from repro.core.pastry_selection import dense_batchable
from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import NodeAbsentError
from repro.util.validation import require_non_negative_int

__all__ = [
    "AuxiliaryPolicy",
    "INSTALL_CHUNK",
    "InstallChunk",
    "install",
    "node_problem",
    "plan_problems",
    "policies",
    "recompute",
]

#: Signature of an auxiliary-selection policy: (problem, rng, overlay).
#: The overlay lets frequency-oblivious baselines draw random nodes per
#: distance class from the whole live population, as the paper specifies.
AuxiliaryPolicy = Callable[[SelectionProblem, random.Random, Any], SelectionResult]

#: Live nodes per install chunk. The dense trie batch costs about the same
#: per problem at 32–512 problems, but its arrays and the chunk's problems
#: add to the peak memory: one batch over a whole 512-node install took a
#: ``pastry-stable`` cell from 82 to 109 MB, and chunks of 64 still added
#: 5% to ``kademlia-stable``'s 41 MB where chunks of 32 add 2%.
INSTALL_CHUNK = 32


class InstallChunk:
    """The problems of one install chunk and, once an optimal policy
    with a batch form has asked, the batch's results."""

    __slots__ = ("problems", "_solved")

    def __init__(self) -> None:
        self.problems: list[SelectionProblem] = []
        self._solved: dict[int, SelectionResult] | None = None

    def result(
        self,
        problem: SelectionProblem,
        select: Callable[[SelectionProblem], SelectionResult],
        select_batch: Callable[[list[SelectionProblem]], list[SelectionResult]],
    ) -> SelectionResult:
        """``problem``'s result: from the chunk's batch, solved at the
        first call, when ``problem`` is one of its batched problems, else
        from ``select``."""
        if self._solved is None:
            batch = [member for member in self.problems if dense_batchable(member)]
            results = select_batch(batch) if len(batch) > 1 else []
            self._solved = {id(member): result for member, result in zip(batch, results)}
        solved = self._solved.get(id(problem))
        return solved if solved is not None else select(problem)

    def release(self) -> None:
        """Drop the problems and results once the chunk is installed,
        breaking the problem-to-chunk cycle so their memory is freed at
        once rather than at the next cyclic collection."""
        self.problems = []
        self._solved = {}


def policies(
    select: Callable[[SelectionProblem], SelectionResult],
    select_oblivious: Callable[..., SelectionResult],
    select_batch: Callable[[list[SelectionProblem]], list[SelectionResult]] | None = None,
) -> tuple[AuxiliaryPolicy, AuxiliaryPolicy]:
    """An overlay's ``(optimal_policy, oblivious_policy)`` pair.

    The first is the paper's frequency-aware solver ``select`` (rng and
    overlay unused); given ``select_batch``, the same solver over many
    problems at once, it answers a problem built in an install chunk from
    the chunk's batch. The second is the frequency-oblivious baseline of
    Section VI-A: ``select_oblivious`` draws random nodes per distance
    class, from the overlay's live population when one is given.
    """

    def optimal_policy(problem: SelectionProblem, rng: random.Random, overlay=None) -> SelectionResult:
        if select_batch is not None and problem.chunk is not None:
            return problem.chunk.result(problem, select, select_batch)
        return select(problem)

    def oblivious_policy(problem: SelectionProblem, rng: random.Random, overlay=None) -> SelectionResult:
        pool = overlay.alive_ids() if overlay is not None else None
        return select_oblivious(problem, rng, pool=pool)

    return optimal_policy, oblivious_policy


def node_problem(
    overlay,
    node_id: int,
    k: int,
    frequency_limit: int | None = None,
    chunk: InstallChunk | None = None,
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
        chunk=chunk,
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
    problem: SelectionProblem | None = None,
) -> SelectionResult:
    """Run ``policy`` at one live node and install its result (the
    periodic recomputation of Section III). Peers the node learned are
    dead were already dropped from its tracker by eviction. ``problem``
    is the node's :func:`node_problem` when :func:`install` built it
    already."""
    require_non_negative_int(k, "k")
    node = overlay.nodes[node_id]
    if not node.alive:
        raise NodeAbsentError(f"cannot select auxiliaries at dead node {node_id}")
    if problem is None:
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
    ``k`` or a plan whose quota is 0 at the nodes it left out.

    The walk goes in chunks of :data:`INSTALL_CHUNK` nodes (a last chunk
    of one node joins the one before it); each chunk's problems are built
    before the first of them is installed."""
    alive = overlay.alive_ids()
    starts = list(range(0, len(alive), INSTALL_CHUNK))
    if len(starts) > 1 and len(alive) - starts[-1] == 1:
        starts.pop()
    planned = isinstance(budget, BudgetAllocation)
    for start, stop in zip(starts, starts[1:] + [len(alive)]):
        chunk = InstallChunk()
        chunk.problems = [
            node_problem(
                overlay, node_id, budget.quota(node_id) if planned else budget, frequency_limit, chunk
            )
            for node_id in alive[start:stop]
        ]
        for problem in chunk.problems:
            overlay.recompute_auxiliary(
                problem.source, problem.k, policy, rng, frequency_limit, problem
            )
        chunk.release()
