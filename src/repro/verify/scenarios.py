"""Deterministic scenarios: seeded generation and the invariant-checking engine.

A :class:`Scenario` is a small, JSON-round-trippable recipe — overlay
kind, topology (n, bits, k), Zipf workload shape, a message-loss rate and
an ordered list of steps — whose entire execution is a pure function of
its ``seed``. The engine builds the overlay, seeds the paper's converged
destination frequencies, then executes the steps while evaluating every
applicable invariant from :mod:`repro.verify.invariants`:

* after **every** step: table coherence, live-list bookkeeping and the
  responsibility differential oracle;
* after **stabilize** steps (and on the freshly built overlay): successor
  -list / leaf-set ground-truth and symmetry checks;
* after **recompute** steps: the selection invariants (DP ≡ fast/greedy,
  nesting, monotonicity in k, QoS bounds) on a seeded sample of nodes;
* during **lookups** steps: per-hop progress, termination-at-responsible,
  retry accounting, trace-vs-HopStatistics reconciliation, and the cache
  attribution plane's conservation law (an
  :class:`~repro.obs.attribution.AttributionRecorder` rides the same
  lookups through a tee);
* after every *snapshot-safe* step (all live pointers live, so the
  columnar image is defined): engine snapshot coherence, plus — on clean
  steps — batched columnar lookups replayed through the same routing
  progress/termination oracles.

The engine tracks a ``clean`` flag — true when the overlay is fully
stabilized and no message loss is configured — under which the strongest
form of the termination invariant applies: *every* lookup must succeed.
Crash bursts and rejoins clear the flag; a stabilize step restores it
(stale pointers may survive, but the redundancy invariants guarantee they
cannot strand a lookup).

All randomness flows through named substreams of one
:class:`~repro.util.rng.SeedSequenceRegistry`, so a scenario re-runs
bit-identically — the property the shrinker and the replay CLI rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import selection
from repro.chord.ring import ChordRing
from repro.chord.ring import optimal_policy as chord_optimal
from repro.core import budget as budget_mod
from repro.core.types import SelectionProblem
from repro.faults.plane import FaultPlane
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.kademlia.network import KademliaNetwork
from repro.kademlia.network import optimal_policy as kademlia_optimal
from repro.obs.recorder import LookupTracer, TeeRecorder
from repro.pastry.network import PastryNetwork
from repro.pastry.network import optimal_policy as pastry_optimal
from repro.sim.metrics import HopStatistics
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.rng import SeedSequenceRegistry, substream_seed
from repro.verify.invariants import (
    Violation,
    check_budget_feasibility,
    check_cachestats_conservation,
    check_chord_state,
    check_chord_successors,
    check_engine_coherence,
    check_engine_routing,
    check_kademlia_buckets,
    check_kademlia_state,
    check_pastry_leaf_sets,
    check_pastry_state,
    check_responsibility,
    check_retry_bounds,
    check_routing_progress,
    check_routing_termination,
    check_selection_equivalence,
    check_selection_monotone,
    check_selection_nesting,
    check_selection_qos,
    check_trace_reconciliation,
)

__all__ = [
    "OVERLAYS",
    "STEP_OPS",
    "Scenario",
    "ScenarioReport",
    "generate_scenario",
    "generate_scenarios",
    "run_scenario",
]

OVERLAYS = ("chord", "pastry", "kademlia")

#: Step operations: ``(op, arg)`` pairs. ``arg`` is the lookup count,
#: burst size, rejoin count or corruption count; zero for the arg-less
#: maintenance ops (``allocate`` = global budget allocation + install).
STEP_OPS = (
    "lookups",
    "crash_burst",
    "rejoin",
    "stabilize",
    "recompute",
    "allocate",
    "corrupt",
)

#: Crash bursts never reduce the population below this (leaf sets and
#: successor lists need a handful of peers to mean anything).
_MIN_ALIVE = 4

#: Selection invariants are evaluated on this many sampled nodes per
#: recompute step (they re-solve the selection problem several times).
_SELECTION_SAMPLE = 2

#: Responsibility-oracle keys probed after every step.
_ORACLE_KEYS = 4

#: Batched lookups replayed through the columnar engine per clean step.
_ENGINE_LOOKUPS = 8


@dataclass(frozen=True)
class Scenario:
    """One reproducible verification scenario (JSON-round-trippable)."""

    overlay: str
    seed: int
    n: int
    bits: int
    k: int
    alpha: float
    loss_rate: float
    steps: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "steps", tuple((str(op), int(arg)) for op, arg in self.steps)
        )
        if self.overlay not in OVERLAYS:
            raise ConfigurationError(f"unknown overlay {self.overlay!r}")
        if self.n < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {self.n}")
        if self.bits < 3 or self.n > 2**self.bits:
            raise ConfigurationError(
                f"cannot place {self.n} nodes in a {self.bits}-bit space"
            )
        if self.k < 0:
            raise ConfigurationError(f"k must be non-negative, got {self.k}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if not self.steps:
            raise ConfigurationError("scenario needs at least one step")
        for op, arg in self.steps:
            if op not in STEP_OPS:
                raise ConfigurationError(f"unknown step op {op!r}")
            if arg < 0:
                raise ConfigurationError(f"step {op!r} has negative arg {arg}")

    def to_dict(self) -> dict:
        return {
            "overlay": self.overlay,
            "seed": self.seed,
            "n": self.n,
            "bits": self.bits,
            "k": self.k,
            "alpha": self.alpha,
            "loss_rate": self.loss_rate,
            "steps": [[op, arg] for op, arg in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        return cls(
            overlay=payload["overlay"],
            seed=payload["seed"],
            n=payload["n"],
            bits=payload["bits"],
            k=payload["k"],
            alpha=payload["alpha"],
            loss_rate=payload["loss_rate"],
            steps=tuple((op, arg) for op, arg in payload["steps"]),
        )


@dataclass
class ScenarioReport:
    """The outcome of running one scenario through the engine."""

    scenario: Scenario
    violations: list[Violation] = field(default_factory=list)
    #: Invariant name -> number of times it was evaluated.
    checks: dict[str, int] = field(default_factory=dict)
    lookups: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "passed": self.passed,
            "lookups": self.lookups,
            "checks": dict(sorted(self.checks.items())),
            "violations": [violation.to_dict() for violation in self.violations],
        }


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_scenario(
    master_seed: int, index: int, overlay: str | None = None
) -> Scenario:
    """The ``index``-th scenario of the seeded search.

    Each scenario draws from its own named substream of ``master_seed``,
    so scenario ``i`` is identical no matter how many others run around
    it. Overlays alternate by index unless pinned. Every scenario ends
    with a stabilize/recompute/lookups tail so the strongest clean-state
    invariants are exercised at least once per scenario.
    """
    rng = random.Random(substream_seed(master_seed, f"scenario-{index}"))
    chosen = overlay if overlay is not None else OVERLAYS[index % len(OVERLAYS)]
    if chosen not in OVERLAYS:
        raise ConfigurationError(f"unknown overlay {chosen!r}")
    n = rng.randrange(8, 41)
    bits = rng.choice((12, 14, 16))
    k = rng.randrange(1, 6)
    alpha = rng.choice((0.8, 1.2, 1.6))
    loss_rate = rng.choice((0.0, 0.0, 0.0, 0.05, 0.15))
    steps: list[tuple[str, int]] = [
        ("recompute", 0),
        ("lookups", rng.randrange(10, 31)),
    ]
    for __ in range(rng.randrange(2, 6)):
        roll = rng.random()
        if roll < 0.35:
            steps.append(("lookups", rng.randrange(8, 25)))
        elif roll < 0.50:
            steps.append(("crash_burst", rng.randrange(1, 4)))
        elif roll < 0.62:
            steps.append(("rejoin", rng.randrange(1, 3)))
        elif roll < 0.77:
            steps.append(("stabilize", 0))
        elif roll < 0.87:
            steps.append(("recompute", 0))
        elif roll < 0.93:
            steps.append(("allocate", 0))
        else:
            steps.append(("corrupt", rng.randrange(1, 3)))
    steps += [
        ("stabilize", 0),
        ("recompute", 0),
        ("allocate", 0),
        ("lookups", rng.randrange(10, 21)),
    ]
    return Scenario(
        overlay=chosen,
        seed=rng.randrange(2**31),
        n=n,
        bits=bits,
        k=k,
        alpha=alpha,
        loss_rate=loss_rate,
        steps=tuple(steps),
    )


def generate_scenarios(
    count: int, master_seed: int, overlay: str | None = None
) -> list[Scenario]:
    return [generate_scenario(master_seed, index, overlay) for index in range(count)]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _Engine:
    """Executes one scenario, evaluating invariants as it goes."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.kind = scenario.overlay
        self.registry = SeedSequenceRegistry(scenario.seed)
        self.space = IdSpace(scenario.bits)
        overlay_seed = self.registry.stream("overlay").randrange(2**31)
        if self.kind == "chord":
            self.overlay = ChordRing.build(
                scenario.n, space=self.space, seed=overlay_seed
            )
            self.policy = chord_optimal
        elif self.kind == "kademlia":
            self.overlay = KademliaNetwork.build(
                scenario.n, space=self.space, seed=overlay_seed
            )
            self.policy = kademlia_optimal
        else:
            self.overlay = PastryNetwork.build(
                scenario.n, space=self.space, seed=overlay_seed
            )
            self.policy = pastry_optimal
        self._seed_workload()
        self.plane = FaultPlane(
            FaultSchedule(loss_rate=scenario.loss_rate),
            self.registry.fresh("fault-plane"),
        )
        self.faults_arg = self.plane if scenario.loss_rate > 0.0 else None
        self.retry = (
            RetryPolicy.robust() if scenario.loss_rate > 0.0 else RetryPolicy.single()
        )
        self.policy_rng = self.registry.stream("policy")
        self.churn_rng = self.registry.stream("churn")
        self.sample_rng = self.registry.stream("selection-sample")
        self.key_rng = self.registry.stream("oracle-keys")
        self.engine_rng = self.registry.stream("engine-keys")
        self.limit = 4 * self.space.bits
        self.clean = scenario.loss_rate == 0.0
        self.violations: list[Violation] = []
        self.checks: dict[str, int] = {}
        self.lookups_run = 0

    def _seed_workload(self) -> None:
        """Converged Zipf destination frequencies, as the stable-mode
        experiments seed them (one shared ranking)."""
        from repro.workload.items import ItemCatalog, PopularityModel
        from repro.workload.spec import DEFAULT_RATE, WorkloadContext, WorkloadSpec

        catalog = ItemCatalog(
            self.space,
            4 * self.scenario.n,
            seed=self.registry.stream("items").randrange(2**31),
        )
        self.popularity = PopularityModel(
            catalog,
            self.scenario.alpha,
            num_rankings=1,
            seed=self.registry.stream("rankings").randrange(2**31),
        )
        self.assignment = self.popularity.assign_rankings(self.overlay.alive_ids())
        destinations = self.popularity.node_frequencies(0, self.overlay.responsible)
        for node_id in self.overlay.alive_ids():
            weights = dict(destinations)
            weights.pop(node_id, None)
            self.overlay.seed_frequencies(node_id, weights)
        lookups = sum(count for op, count in self.scenario.steps if op == "lookups")
        self.queries = WorkloadSpec("static-zipf").build(
            WorkloadContext(
                popularity=self.popularity,
                assignment=self.assignment,
                rng=self.registry.fresh("queries"),
                scenario_rng=self.registry.fresh("queries-scenario"),
                alpha=self.scenario.alpha,
                horizon=lookups / DEFAULT_RATE,
            )
        )

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        # The freshly built overlay is stabilized: the strongest state
        # invariants must already hold before any step runs.
        self._state_checks(step=-1, stabilized=True)
        for index, (op, arg) in enumerate(self.scenario.steps):
            getattr(self, "_op_" + op)(arg, index)
            self._state_checks(index, stabilized=(op == "stabilize"))
        return ScenarioReport(
            scenario=self.scenario,
            violations=self.violations,
            checks=self.checks,
            lookups=self.lookups_run,
        )

    def _record(self, name: str, step: int, messages: list[str]) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1
        for message in messages:
            self.violations.append(Violation(name, step, message))

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _op_lookups(self, count: int, step: int) -> None:
        from repro.obs.attribution import AttributionRecorder

        tracer = LookupTracer()  # sample=None keeps every trace
        # The attribution recorder rides the same TraceRecorder hook via a
        # tee — both observe the identical hop events of every lookup.
        attribution = AttributionRecorder(self.kind, self.overlay)
        tee = TeeRecorder(tracer, attribution)
        stats = HopStatistics()
        results = []
        for query in self.queries.stream(count, self.overlay.alive_ids):
            result = self.overlay.lookup(
                query.source, query.item, retry=self.retry, faults=self.faults_arg, trace=tee
            )
            stats.record(result)
            results.append(result)
        self.lookups_run += count
        alive = self.overlay.alive_ids()
        for trace in tracer.traces:
            self._record(
                "routing.progress",
                step,
                check_routing_progress(self.kind, self.space, trace),
            )
            self._record(
                "routing.termination",
                step,
                check_routing_termination(
                    self.kind, self.space, alive, trace, self.clean
                ),
            )
            self._record(
                "routing.retry_bounds",
                step,
                check_retry_bounds(trace, self.retry.max_attempts, self.limit),
            )
        self._record(
            "trace.reconciliation",
            step,
            check_trace_reconciliation(tracer.counters, stats, results),
        )
        self._record(
            "cachestats.conservation",
            step,
            check_cachestats_conservation(attribution),
        )

    def _op_crash_burst(self, size: int, step: int) -> None:
        alive = self.overlay.alive_ids()
        budget = min(size, max(0, len(alive) - _MIN_ALIVE))
        if budget <= 0:
            return
        for victim in sorted(self.churn_rng.sample(alive, budget)):
            self.overlay.crash(victim)
        self.clean = False

    def _op_rejoin(self, count: int, step: int) -> None:
        dead = sorted(
            node_id
            for node_id, node in self.overlay.nodes.items()
            if not node.alive
        )
        for node_id in dead[:count]:
            self.overlay.rejoin(node_id)
        if dead[:count]:
            self.clean = False

    def _op_stabilize(self, arg: int, step: int) -> None:
        self.overlay.stabilize_all()
        if self.scenario.loss_rate == 0.0:
            self.clean = True

    def _op_recompute(self, arg: int, step: int) -> None:
        self.overlay.recompute_all_auxiliary(
            self.scenario.k, self.policy, self.policy_rng, frequency_limit=64
        )
        alive = self.overlay.alive_ids()
        sampled = self.sample_rng.sample(alive, min(_SELECTION_SAMPLE, len(alive)))
        for node_id in sorted(sampled):
            problem = self._selection_problem(node_id)
            if problem is None:
                continue
            self._record(
                "selection.equivalence",
                step,
                check_selection_equivalence(problem, self.kind),
            )
            self._record(
                "selection.monotone_k",
                step,
                check_selection_monotone(problem, self.kind),
            )
            self._record(
                "selection.qos", step, check_selection_qos(problem, self.kind)
            )
            if self.kind in ("pastry", "kademlia"):
                self._record(
                    "selection.nesting",
                    step,
                    check_selection_nesting(problem, self.kind),
                )

    def _op_allocate(self, arg: int, step: int) -> None:
        """Global marginal-gain allocation of ``k * alive`` pointers,
        checked for feasibility and installed.

        Calls flow through the :mod:`repro.core.budget` module attributes
        so the mutation tests can plant a corrupted allocator and watch
        ``budget.feasibility`` fire.
        """
        problems = selection.plan_problems(self.overlay, 64)
        if not problems:
            return
        curves = budget_mod.curves_for_problems(problems, self.kind)
        total = self.scenario.k * len(problems)
        allocation = budget_mod.allocate_greedy(curves, total)
        self._record(
            "budget.feasibility",
            step,
            check_budget_feasibility(allocation, problems, self.kind),
        )
        selection.install(self.overlay, allocation, self.policy, self.policy_rng, 64)

    def _op_corrupt(self, count: int, step: int) -> None:
        for __ in range(count):
            self.plane.corrupt_pointer(self.overlay)
        # Planted pointers are wrong-but-live or dead: the redundancy
        # invariants say routing must absorb them (evict + fail over), so
        # the clean-success obligation intentionally stays in force.

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _selection_problem(self, node_id: int) -> SelectionProblem | None:
        """The exact problem ``recompute_auxiliary`` just solved at
        ``node_id`` (None when the node has no observed peers, e.g. a
        freshly rejoined node with a wiped tracker)."""
        problem = selection.node_problem(self.overlay, node_id, self.scenario.k, 64)
        return problem if problem.frequencies else None

    def _state_checks(self, step: int, stabilized: bool) -> None:
        if self.kind == "chord":
            self._record("state.table_coherence", step, check_chord_state(self.overlay))
            if stabilized:
                self._record(
                    "state.successor_lists",
                    step,
                    check_chord_successors(self.overlay),
                )
        elif self.kind == "kademlia":
            self._record(
                "kademlia.table_coherence", step, check_kademlia_state(self.overlay)
            )
            if stabilized:
                self._record(
                    "kademlia.table_coherence",
                    step,
                    check_kademlia_buckets(self.overlay),
                )
        else:
            self._record(
                "state.table_coherence", step, check_pastry_state(self.overlay)
            )
            if stabilized:
                self._record(
                    "state.leaf_sets", step, check_pastry_leaf_sets(self.overlay)
                )
        keys = [self.key_rng.randrange(self.space.size) for __ in range(_ORACLE_KEYS)]
        self._record(
            "state.responsibility",
            step,
            check_responsibility(self.kind, self.overlay, keys),
        )
        self._engine_checks(step)

    def _snapshot_safe(self) -> bool:
        """Columnar snapshots are defined on fully-live overlays: every
        pointer any live node holds must itself be alive (a dead entry
        has no position on the snapshot's id axis)."""
        alive = set(self.overlay.alive_ids())
        for node_id in alive:
            node = self.overlay.node(node_id)
            if self.kind == "chord":
                referenced = node.table.entries()
            else:
                referenced = node.neighbor_ids()
            if not alive.issuperset(referenced):
                return False
        return True

    def _engine_checks(self, step: int) -> None:
        """Replay the step's overlay through the columnar engine.

        Coherence runs on every snapshot-safe step; the routing
        invariants additionally need the ``clean`` flag, because the
        batch routers have no retry machinery — termination-at-
        responsible is only an obligation when the object routers would
        accept it without timeouts.
        """
        if self.kind == "kademlia":
            return  # the columnar engine implements chord and pastry only
        if not self._snapshot_safe():
            return
        self._record(
            "engine.table_coherence",
            step,
            check_engine_coherence(self.kind, self.overlay),
        )
        if not self.clean:
            return
        alive = self.overlay.alive_ids()
        sources = [self.engine_rng.choice(alive) for __ in range(_ENGINE_LOOKUPS)]
        keys = [
            self.engine_rng.randrange(self.space.size)
            for __ in range(_ENGINE_LOOKUPS)
        ]
        progress, termination = check_engine_routing(
            self.kind, self.overlay, sources, keys, clean=True
        )
        self._record("engine.routing_progress", step, progress)
        self._record("engine.routing_termination", step, termination)


def run_scenario(scenario: Scenario) -> ScenarioReport:
    """Execute one scenario and return its invariant report.

    Pure function of the scenario: same scenario, same report — the
    contract the shrinker and the bit-identity acceptance test rely on.
    """
    return _Engine(scenario).run()
