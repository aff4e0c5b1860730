"""Experiment runners: stable-mode and churn-mode policy comparisons.

Both runners reproduce the paper's measurement protocol (Section VI-A):
build an overlay, give every node a zipf-driven destination distribution,
install auxiliary neighbors under two policies — the paper's
frequency-aware optimum and the frequency-oblivious baseline — route the
*same* query stream under each, and report the percentage reduction in
average hops.

Stable mode (no churn) seeds each node's frequency tracker with its exact
long-run destination distribution (the converged state of observing
queries forever), or lets it learn from the configured scenario's warmup
traffic, and routes queries against frozen tables. :func:`stable_cell`
is that recipe for one policy, and every stable driver runs it: this
module's comparison, the trace and telemetry drivers, and the
experiment grids, which add only their own extra step. A cell that
nothing observes per lookup, with no fault plane and no dead node,
routes each distinct ``(source, key)`` pair of its stream once and
weights the outcome by the pair's count; every other stable cell routes
query by query. Churn mode runs
the full discrete-event machinery: exponential on/off node sessions,
staggered per-node stabilization (default every 25 s) and auxiliary
recomputation (every 62.5 s), Poisson queries (4/s), online frequency
learning, and crash-induced state loss — the Section VI-C configuration.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro import selection
from repro.chord.ring import ChordRing
from repro.chord.ring import oblivious_policy as chord_oblivious
from repro.chord.ring import optimal_policy as chord_optimal
from repro.core import budget as budget_mod
from repro.core.frequency import snapshot_order
from repro.engine.dispatch import ENGINES, resolve_engine
from repro.faults.injector import apply_stable_faults, install_fault_events, maybe_corrupt
from repro.faults.plane import FaultPlane
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.kademlia.network import KademliaNetwork
from repro.kademlia.network import oblivious_policy as kademlia_oblivious
from repro.kademlia.network import optimal_policy as kademlia_optimal
from repro.obs.recorder import TeeRecorder
from repro.pastry.network import PastryNetwork
from repro.pastry.network import oblivious_policy as pastry_oblivious
from repro.pastry.network import optimal_policy as pastry_optimal
from repro.pastry.routing import ROUTING_MODES
from repro.sim.churn import ChurnProcess
from repro.sim.events import EventScheduler
from repro.sim.metrics import ComparisonResult, HopStatistics
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.rng import SeedSequenceRegistry
from repro.util.validation import require_positive
from repro.workload.items import ItemCatalog, PopularityModel
from repro.workload.spec import DEFAULT_RATE, WorkloadContext, WorkloadSpec, WorkloadStream

__all__ = [
    "POLICIES",
    "ChurnConfig",
    "ExperimentConfig",
    "StableRun",
    "churn_cell",
    "round_boundaries",
    "route_columnar",
    "run_churn",
    "run_stable",
    "stable_cell",
    "stable_universe",
]

#: Overlay name -> class; each module's policy pair is imported above as
#: ``{overlay}_optimal`` / ``{overlay}_oblivious``.
OVERLAY_CLASSES = {"chord": ChordRing, "pastry": PastryNetwork, "kademlia": KademliaNetwork}
OVERLAYS = tuple(OVERLAY_CLASSES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one stable-mode comparison cell.

    Defaults follow Section VI-A: 32-bit ids, zipf ``alpha = 1.2``,
    ``k = log2(n)`` when ``k`` is ``None``, identical rankings for Pastry
    and five per-node rankings for Chord.
    """

    overlay: str
    n: int = 1024
    k: int | None = None
    alpha: float = 1.2
    bits: int = 32
    num_items: int | None = None
    num_rankings: int | None = None
    queries: int = 20_000
    frequency_limit: int | None = 256
    seed: int = 0
    #: Pastry's next-hop rule (:data:`repro.pastry.routing.ROUTING_MODES`),
    #: fixed when the network is built; checked for every overlay.
    pastry_mode: str = "proximity"
    #: When True, nodes learn frequencies by observing ``warmup_queries``
    #: real lookups (the paper's Section III protocol) instead of being
    #: handed their converged destination distribution.
    learned_frequencies: bool = False
    #: Warmup traffic for learned mode; ``None`` = 40 queries per node.
    warmup_queries: int | None = None
    #: Deterministic fault-injection schedule; ``None`` = fault-free.
    faults: FaultSchedule | None = None
    #: Lookup retry policy; ``None`` picks the legacy single-attempt
    #: policy, or :meth:`RetryPolicy.robust` when faults are active.
    retry: RetryPolicy | None = None
    #: Simulation engine: ``"objects"`` (object-graph oracle),
    #: ``"columnar"`` (vectorized struct-of-arrays frontier), or
    #: ``"auto"`` — columnar for large supported cells, objects
    #: otherwise. See :mod:`repro.engine.dispatch`.
    engine: str = "auto"
    #: Budget policy: ``"uniform"`` gives every node the same per-node
    #: ``k`` (the paper's scheme); ``"allocated"`` distributes one global
    #: pointer budget by marginal gain (:mod:`repro.core.budget`,
    #: DESIGN.md §12). With ``budget_mode="uniform"`` and no explicit
    #: ``budget_total`` the legacy per-node path runs bit-identically.
    budget_mode: str = "uniform"
    #: Total network-wide pointer budget ``K``; ``None`` means
    #: ``n * effective_k`` (the uniform scheme's spend).
    budget_total: int | None = None
    #: Query-stream scenario, as a ``NAME[:PARAM]`` selector resolved
    #: against :data:`repro.workload.spec.WORKLOADS`. The default
    #: ``"static-zipf"`` is the paper's workload and runs draw-for-draw
    #: identically to the pre-workload-plane code.
    workload: str = "static-zipf"

    def __post_init__(self) -> None:
        if self.overlay not in OVERLAYS:
            raise ConfigurationError(f"unknown overlay {self.overlay!r}; expected one of {OVERLAYS}")
        if self.engine not in ENGINES:
            raise ConfigurationError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.pastry_mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"unknown pastry_mode {self.pastry_mode!r}; expected one of {ROUTING_MODES}"
            )
        if self.n < 2:
            raise ConfigurationError("need at least 2 nodes")
        if self.bits <= 0:
            raise ConfigurationError(f"bits must be positive, got {self.bits}")
        if self.n > 2**self.bits:
            raise ConfigurationError(
                f"n={self.n} exceeds the id-space capacity 2**{self.bits}={2**self.bits}"
            )
        if self.queries <= 0:
            raise ConfigurationError(f"queries must be positive, got {self.queries}")
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")
        if self.k is not None and self.k < 0:
            raise ConfigurationError(f"k must be non-negative, got {self.k}")
        if self.budget_mode not in ("uniform", "allocated"):
            raise ConfigurationError(
                f"unknown budget_mode {self.budget_mode!r}; expected 'uniform' or 'allocated'"
            )
        if self.budget_total is not None and self.budget_total < 0:
            raise ConfigurationError(
                f"budget_total must be non-negative, got {self.budget_total}"
            )
        if self.frequency_limit is not None and self.frequency_limit < 1:
            raise ConfigurationError(
                f"frequency_limit must be at least 1 (or None), got {self.frequency_limit}"
            )
        if not isinstance(self.learned_frequencies, bool):
            raise ConfigurationError(
                f"learned_frequencies must be True or False, got {self.learned_frequencies!r}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSchedule):
            raise ConfigurationError(f"faults must be a FaultSchedule, got {self.faults!r}")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ConfigurationError(f"retry must be a RetryPolicy, got {self.retry!r}")
        # Validate the selector eagerly so a typo fails at config time,
        # not deep inside a worker process.
        WorkloadSpec.parse(self.workload)
        if self.k is not None and self.k >= self.n:
            # A node can hold at most n - 1 distinct auxiliary pointers;
            # beyond that the budget silently degenerates (selection just
            # takes every candidate), which always signals a typo.
            raise ConfigurationError(
                f"k={self.k} must be smaller than n={self.n}: a node cannot "
                f"point at more auxiliary neighbors than there are other peers"
            )

    @property
    def effective_warmup_queries(self) -> int:
        if self.warmup_queries is not None:
            return self.warmup_queries
        return 40 * self.n

    @property
    def effective_k(self) -> int:
        """``k`` or the paper's default of ``log2(n)``."""
        if self.k is not None:
            return self.k
        return max(1, self.n.bit_length() - 1)

    @property
    def effective_items(self) -> int:
        """Item count (defaults to four items per node)."""
        return self.num_items if self.num_items is not None else 4 * self.n

    @property
    def effective_rankings(self) -> int:
        """Ranking count: the paper uses 1 for Pastry plots, 5 for Chord."""
        if self.num_rankings is not None:
            return self.num_rankings
        return 5 if self.overlay == "chord" else 1

    @property
    def effective_budget(self) -> int:
        """The network-wide pointer budget ``K``: ``budget_total`` when
        set, otherwise the uniform scheme's spend ``n * effective_k``."""
        if self.budget_total is not None:
            return self.budget_total
        return self.n * self.effective_k

    @property
    def budget_plan_active(self) -> bool:
        """True when per-node quotas come from a global budget plan
        (allocated mode, or uniform with an explicit total) rather than
        the legacy constant-``k`` path."""
        return self.budget_mode == "allocated" or self.budget_total is not None

    @property
    def budget_label(self) -> str:
        """Label fragment for budget-planned cells, empty on legacy."""
        if not self.budget_plan_active:
            return ""
        return f" budget={self.budget_mode}:{self.effective_budget}"

    @property
    def workload_spec(self) -> WorkloadSpec:
        """The parsed workload selector."""
        return WorkloadSpec.parse(self.workload)

    @property
    def workload_label(self) -> str:
        """Label fragment for non-default workloads, empty on the
        legacy static stream (keeps historical labels byte-identical)."""
        spec = self.workload_spec
        if spec.is_static:
            return ""
        return f" workload={spec.label}"

    @property
    def faults_active(self) -> bool:
        """True when a fault schedule is attached and actually injects."""
        return self.faults is not None and self.faults.active

    @property
    def effective_retry(self) -> RetryPolicy | None:
        """The retry policy lookups run under: the explicit ``retry`` when
        set, the robust default when faults are active, otherwise ``None``
        (routing's legacy evict-on-first-timeout behaviour)."""
        if self.retry is not None:
            return self.retry
        if self.faults_active:
            return RetryPolicy.robust()
        return None


@dataclass(frozen=True)
class ChurnConfig(ExperimentConfig):
    """Churn-mode parameters (defaults from Section VI-C).

    ``queries`` is ignored in churn mode; query volume is
    ``queries_per_second * duration``.
    """

    duration: float = 1800.0
    warmup: float = 300.0
    queries_per_second: float = 4.0
    stabilize_interval: float = 25.0
    recompute_interval: float = 62.5
    #: Global budget-rebalancing cadence in allocated mode (two recompute
    #: intervals by default, so moved quotas take effect at the affected
    #: nodes' next recomputation before the next rebalancing round).
    rebalance_interval: float = 125.0
    mean_uptime: float = 900.0
    mean_downtime: float = 900.0
    frequency_limit: int | None = 128

    def __post_init__(self) -> None:
        super().__post_init__()
        # NaN passes every comparison and infinity never ends the
        # simulation, so each rate, interval and time must be finite.
        for name in (
            "duration",
            "queries_per_second",
            "stabilize_interval",
            "recompute_interval",
            "rebalance_interval",
            "mean_uptime",
            "mean_downtime",
        ):
            require_positive(getattr(self, name), name)
        if not 0 <= self.warmup < self.duration:
            raise ConfigurationError(
                f"warmup must be in [0, duration={self.duration:g}), got {self.warmup!r}"
            )
        if self.engine == "columnar":
            raise ConfigurationError(
                "engine='columnar' is stable-mode only: churn mutates routing "
                "state mid-stream, which the frozen snapshot cannot observe"
            )
        if self.learned_frequencies:
            raise ConfigurationError(
                "learned_frequencies=True is stable-mode only: a churn cell seeds "
                "converged frequencies and then learns online from its own queries"
            )


# ----------------------------------------------------------------------
# Shared setup
# ----------------------------------------------------------------------

#: The two policies every comparison cell measures.
POLICIES = ("optimal", "oblivious")


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ConfigurationError(f"unknown policy {policy!r}; expected one of {POLICIES}")


def _label(config: ExperimentConfig, mode: str) -> str:
    """A comparison's label; the budget and workload fragments are empty
    on the legacy path, so historical labels stay byte-identical."""
    return (
        f"{config.overlay} {mode} n={config.n} k={config.effective_k} "
        f"alpha={config.alpha}{config.budget_label}{config.workload_label}"
    )


@dataclass
class _Bench:
    """One cell's universe: overlay, workload, frequencies and budget plan.

    Construction builds the overlay and the workload from the config's
    seeds; :meth:`seed_all` or :meth:`learn` gives the nodes their
    frequencies, :meth:`plan` cuts the global budget plan and
    :meth:`install` installs one policy's tables.
    """

    config: ExperimentConfig
    registry: SeedSequenceRegistry
    overlay: object = field(init=False)
    popularity: PopularityModel = field(init=False)
    assignment: dict[int, int] = field(init=False)
    ranking_destinations: list[dict[int, float]] = field(init=False)
    #: The plan's per-node quotas and the cost curves and problems they
    #: were cut from; ``None`` on the legacy constant-``k`` path.
    allocation: budget_mod.BudgetAllocation | None = field(init=False, default=None)
    curves: dict | None = field(init=False, default=None)
    problems: dict | None = field(init=False, default=None)
    #: :meth:`query_batch`'s last draw, keyed by its count and live set.
    _query_batch: tuple | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        config = self.config
        space = IdSpace(config.bits)
        overlay_seed = self.registry.stream("overlay").randrange(2**31)
        options = {"mode": config.pastry_mode} if config.overlay == "pastry" else {}
        self.overlay = OVERLAY_CLASSES[config.overlay].build(
            config.n, space=space, seed=overlay_seed, **options
        )
        catalog = ItemCatalog(space, config.effective_items, seed=self.registry.stream("items").randrange(2**31))
        self.popularity = PopularityModel(
            catalog,
            config.alpha,
            num_rankings=config.effective_rankings,
            seed=self.registry.stream("rankings").randrange(2**31),
        )
        self.assignment = self.popularity.assign_rankings(self.overlay.alive_ids())
        # Destination weights are identical for every node on the same
        # ranking (modulo excluding the node itself): compute once each.
        self.ranking_destinations = [
            self.popularity.node_frequencies(index, self.overlay.responsible)
            for index in range(self.popularity.num_rankings)
        ]

    def seed_all(self) -> None:
        """Give every node its converged destination distribution. Each
        ranking's distribution is ranked once; a node's tracker keeps
        that order minus the node itself."""
        orders = [snapshot_order(weights) for weights in self.ranking_destinations]
        for node_id in self.overlay.alive_ids():
            ranking = self.assignment[node_id]
            self.overlay.seed_frequencies(
                node_id, self.ranking_destinations[ranking], orders[ranking]
            )

    def learn(self) -> None:
        """Learn frequencies by observation (Section III): route the
        configured scenario's warmup traffic over the core tables with
        access recording on."""
        count = self.config.effective_warmup_queries
        warmup = self.workload_stream("warmup-queries", horizon=count / DEFAULT_RATE)
        overlay = self.overlay
        alive = overlay.alive_ids()
        for query in warmup.stream(count, lambda: alive):
            overlay.lookup(query.source, query.item, record_access=True)

    def plan(self) -> budget_mod.BudgetAllocation | None:
        """Cut the global budget plan from the current frequencies, or
        ``None`` on the legacy constant-``k`` path.

        Quotas come from the frequency-aware curves and are shared by
        both policies, so the optimal/oblivious comparison inside a cell
        stays apples-to-apples: they differ in *what* they point at,
        never in how many pointers each node holds.
        """
        config = self.config
        if config.budget_plan_active:
            self.problems = selection.plan_problems(self.overlay, config.frequency_limit)
            self.curves = budget_mod.curves_for_problems(self.problems, config.overlay)
            if config.budget_mode == "allocated":
                allocate = budget_mod.allocate_greedy
            else:
                allocate = budget_mod.allocate_uniform
            self.allocation = allocate(self.curves, config.effective_budget)
        return self.allocation

    def policy(self, name: str):
        """The ``optimal`` or ``oblivious`` selection policy for the
        configured overlay, read from this module's globals at call time."""
        return globals()[f"{self.config.overlay}_{name}"]

    def install(self, policy: str, rng: random.Random) -> None:
        """Install one policy's auxiliary tables: the plan's per-node
        quotas when a budget plan is active, the uniform ``k`` otherwise."""
        config = self.config
        chosen = self.policy(policy)
        if self.allocation is None:
            self.overlay.recompute_all_auxiliary(
                config.effective_k, chosen, rng, frequency_limit=config.frequency_limit
            )
        else:
            selection.install(self.overlay, self.allocation, chosen, rng, config.frequency_limit)

    def workload_stream(
        self, stream_name: str, horizon: float, rate: float = DEFAULT_RATE
    ) -> WorkloadStream:
        """Build the configured scenario's query substream for one cell.

        ``rng`` is the ``stream_name`` substream, which the source and
        item draws use; scenario-internal randomness lives on a separate
        ``-scenario`` substream.
        """
        context = WorkloadContext(
            popularity=self.popularity,
            assignment=self.assignment,
            rng=self.registry.fresh(stream_name),
            scenario_rng=self.registry.fresh(f"{stream_name}-scenario"),
            alpha=self.config.alpha,
            horizon=horizon,
            rate=rate,
        )
        return self.config.workload_spec.build(context)

    def queries(self, count: int):
        """The first ``count`` queries of the cell's measured ``queries``
        stream, drawn from the current live set."""
        alive = self.overlay.alive_ids()
        workload = self.workload_stream("queries", horizon=count / DEFAULT_RATE)
        return workload.stream(count, lambda: alive)

    def query_batch(self, count: int) -> Counter:
        """:meth:`queries` over the current live set, counted by
        ``(source, key)`` in first-occurrence order.

        The stream is a pure function of its substream and the live set,
        so the count is drawn once per universe and live set and both
        policies of a cell share it.
        """
        alive = self.overlay.alive_ids()
        if self._query_batch is not None and self._query_batch[0] == (count, alive):
            return self._query_batch[1]
        batch = Counter((query.source, query.item) for query in self.queries(count))
        self._query_batch = ((count, alive), batch)
        return batch


# ----------------------------------------------------------------------
# Stable mode
# ----------------------------------------------------------------------


def _policy_telemetry(telemetry, policy_name: str):
    """The telemetry runtime mapped to one policy, if any."""
    return telemetry.get(policy_name) if telemetry is not None else None


def round_boundaries(queries: int, rounds: int) -> list[int]:
    """Cumulative query indices at which the round clock ticks.

    The ``queries`` lookups are split into ``rounds`` near-equal chunks
    (earlier rounds absorb the remainder), so the boundaries — and hence
    every sampled series — are a pure function of (queries, rounds).
    """
    base, extra = divmod(queries, rounds)
    boundaries = []
    total = 0
    for index in range(rounds):
        total += base + (1 if index < extra else 0)
        boundaries.append(total)
    return boundaries


@dataclass
class StableRun:
    """One policy's measured stable cell: its statistics, the universe
    it ran in, and the fault plane (``None`` when fault-free)."""

    stats: HopStatistics
    bench: _Bench
    plane: FaultPlane | None


def stable_universe(config: ExperimentConfig) -> _Bench:
    """A stable cell's universe up to the policy step: overlay and
    workload from the config's seeds, converged or learned frequencies,
    and the budget plan both policies share."""
    bench = _Bench(config, SeedSequenceRegistry(config.seed))
    if config.learned_frequencies:
        bench.learn()
    else:
        bench.seed_all()
    bench.plan()
    return bench


def stable_cell(
    config: ExperimentConfig,
    policy: str,
    *,
    bench: _Bench | None = None,
    trace=None,
    telemetry=None,
    record_access: bool = False,
    on_lookup=None,
    rng_name: str | None = None,
) -> StableRun:
    """One policy's stable cell — the Section VI-A recipe every stable
    driver runs.

    Builds the universe (:func:`stable_universe`) unless a fault-free
    ``bench`` is passed for reuse, installs the policy's tables from the
    ``rng_name`` substream (default ``policy-rng-<policy>``), applies the
    setup faults after installation — survivors keep stale pointers to
    the burst victims — and routes the ``queries`` stream under the
    retry policy and fault plane.

    ``trace`` and ``telemetry`` both observe every hop through one
    :class:`~repro.obs.recorder.TeeRecorder`, and ``telemetry``'s round
    clock samples its registry at every chunk boundary; observers never
    change the statistics. Traced and faulted cells keep per-lookup
    samples for percentile reports.
    ``record_access`` keeps learning on while measuring and
    ``on_lookup(index)`` runs after each lookup. Any of these, a fault
    plane or a dead node routes the stream one query at a time, in
    order, on the object engine. Otherwise the stream is drawn once per
    universe as a batch counted by ``(source, key)``
    (:meth:`_Bench.query_batch`), each distinct pair is routed once —
    by ``overlay.lookup``, or as one lane of :func:`route_columnar` when
    ``config.engine`` resolves to columnar — and folded with its count;
    the statistics equal the per-query loop's bit for bit.
    """
    _check_policy(policy)
    if bench is None:
        bench = stable_universe(config)
    registry = bench.registry
    overlay = bench.overlay
    tel = overlay.attach_telemetry(telemetry)
    tee = TeeRecorder(trace, tel)
    recorder = tee if tee.enabled else None
    observed = trace is not None or tel is not None or record_access or on_lookup is not None
    engine = resolve_engine(config, observed)
    bench.install(policy, registry.fresh(rng_name or f"policy-rng-{policy}"))
    plane: FaultPlane | None = None
    if config.faults_active:
        # The plane's stream depends only on the seed, not the policy:
        # both universes realize the same burst, partition and loss.
        plane = FaultPlane(config.faults, registry.fresh("fault-plane"))
        apply_stable_faults(plane, overlay, telemetry=tel)
    retry = config.effective_retry
    if engine == "columnar" or (
        not observed and plane is None and overlay.alive_count() == len(overlay.nodes)
    ):
        # On a frozen snapshot, or with no observer, no fault plane and
        # no dead node to evict, no lookup can change a later one: each
        # distinct (source, key) pair is routed once and folded with its
        # count, whose integer latencies sum exactly.
        stats = HopStatistics()
        batch = bench.query_batch(config.queries)
        if engine == "columnar":
            sources = [source for source, __ in batch]
            keys = [key for __, key in batch]
            route_columnar(bench, sources, keys).fold_into(stats, list(batch.values()))
        else:
            for (source, key), count in batch.items():
                stats.record(overlay.lookup(source, key, record_access=False, retry=retry), count)
    else:
        stats = HopStatistics(keep_samples=config.faults_active or trace is not None)
        queries = bench.queries(config.queries)
        boundaries = round_boundaries(config.queries, tel.rounds) if tel is not None else ()
        next_boundary = 0
        for index, query in enumerate(queries, start=1):
            if plane is not None:
                maybe_corrupt(plane, overlay, telemetry=tel)
            stats.record(
                overlay.lookup(
                    query.source,
                    query.item,
                    record_access=record_access,
                    retry=retry,
                    faults=plane,
                    trace=recorder,
                )
            )
            while next_boundary < len(boundaries) and boundaries[next_boundary] == index:
                tel.sample_round(alive=overlay.alive_count())
                next_boundary += 1
            if on_lookup is not None:
                on_lookup(index)
    overlay.attach_telemetry(None)
    return StableRun(stats, bench, plane)


def route_columnar(bench: _Bench, sources, keys, record_paths: bool = False):
    """Freeze the installed tables into a columnar snapshot and route the
    lookups ``(sources[i], keys[i])`` as one vectorized batch
    (DESIGN.md §10); returns the batch."""
    from repro.engine.columnar import snapshot_chord, snapshot_pastry
    from repro.engine.router import batch_route_chord, batch_route_pastry

    if bench.config.overlay == "chord":
        return batch_route_chord(
            snapshot_chord(bench.overlay), sources, keys, record_paths=record_paths
        )
    return batch_route_pastry(
        snapshot_pastry(bench.overlay),
        sources,
        keys,
        mode=bench.overlay.mode,
        record_paths=record_paths,
    )


def run_stable(config: ExperimentConfig, telemetry=None) -> ComparisonResult:
    """Stable-mode comparison: frequency-aware vs frequency-oblivious.

    Both policies run :func:`stable_cell` on an identical universe and
    query stream, so the measured difference is attributable to pointer
    selection alone. Fault-free, one universe serves both (auxiliary sets
    are simply reinstalled); when ``config.faults`` injects anything,
    fault-driven evictions and planted stale pointers from the first
    policy's traffic would leak into the second, so each policy builds
    its own universe from the same seeds (identical overlay, workload
    and fault realization).

    ``telemetry`` optionally maps policy names to
    :class:`~repro.telemetry.runtime.RoundTelemetry` runtimes; attached
    or not, the returned statistics are bit-identical.
    """
    stats = {}
    bench = None
    for name in POLICIES:
        run = stable_cell(
            config, name, bench=bench, telemetry=_policy_telemetry(telemetry, name)
        )
        stats[name] = run.stats
        if not config.faults_active:
            bench = run.bench
    label = _label(config, "stable") + (" faults" if config.faults_active else "")
    return ComparisonResult(label, stats["optimal"], stats["oblivious"])


# ----------------------------------------------------------------------
# Churn mode
# ----------------------------------------------------------------------


def run_churn(config: ChurnConfig, telemetry=None) -> ComparisonResult:
    """Churn-mode comparison under the Section VI-C event schedule.

    Each policy runs in its own fresh universe built from the same seeds,
    so both see identical overlays, churn traces and query workloads.

    ``telemetry`` optionally maps policy names to telemetry runtimes;
    churn-mode round clocks are equal virtual-time intervals — the
    registry is sampled ``rounds`` times at ``i * duration / rounds``.
    """
    stats = {
        name: churn_cell(config, name, telemetry=_policy_telemetry(telemetry, name))
        for name in POLICIES
    }
    return ComparisonResult(_label(config, "churn"), stats["optimal"], stats["oblivious"])


def churn_cell(config: ChurnConfig, policy: str, telemetry=None) -> HopStatistics:
    """One policy's churn universe: the seeded, planned and installed
    bench of a stable cell, then the discrete-event run."""
    _check_policy(policy)
    registry = SeedSequenceRegistry(config.seed)
    bench = _Bench(config, registry)
    bench.seed_all()
    allocation = bench.plan()
    overlay = bench.overlay
    tel = overlay.attach_telemetry(telemetry)
    # Initial installation at t=0; the periodic recomputations keep
    # drawing from the same policy stream.
    policy_rng = registry.fresh(f"policy-rng-{policy}")
    bench.install(policy, policy_rng)
    quotas = allocation.quotas if allocation is not None else None
    k = config.effective_k

    scheduler = EventScheduler()
    stats = HopStatistics(keep_samples=config.faults_active)

    # Churn process (same trace for both policies via the shared seed).
    churn_rng = registry.fresh("churn")
    churn = ChurnProcess(
        scheduler,
        _ChurnAdapter(bench),
        overlay.alive_ids(),
        churn_rng,
        mean_uptime=config.mean_uptime,
        mean_downtime=config.mean_downtime,
        telemetry=tel,
    )
    churn.start()

    # Fault plane: same realization for both policies (seed-only streams).
    plane: FaultPlane | None = None
    if config.faults_active:
        plane = FaultPlane(config.faults, registry.fresh("fault-plane"))
        install_fault_events(
            scheduler,
            plane,
            overlay,
            registry.fresh("fault-events"),
            config.duration,
            telemetry=tel,
        )
    retry = config.effective_retry

    # Staggered per-node maintenance loops.
    offset_rng = registry.fresh("maintenance-offsets")
    for node_id in overlay.alive_ids():
        scheduler.schedule(
            offset_rng.uniform(0, config.stabilize_interval),
            _PeriodicNodeTask(scheduler, overlay, node_id, config.stabilize_interval, _stabilize),
        )
        scheduler.schedule(
            offset_rng.uniform(0, config.recompute_interval),
            _PeriodicNodeTask(
                scheduler,
                overlay,
                node_id,
                config.recompute_interval,
                _make_recompute(k, bench.policy(policy), policy_rng, config.frequency_limit, quotas),
            ),
        )

    # Allocated mode keeps the plan live: a bounded drift-gated rebalance
    # round every ``rebalance_interval`` mutates the shared quotas dict,
    # and moved budget lands at the next per-node recomputation. A node
    # that crashes keeps its quota until it rejoins and drifts.
    if allocation is not None and config.budget_mode == "allocated":
        rebalancer = budget_mod.BudgetRebalancer.from_allocation(allocation)
        rebalancer.baseline(bench.problems)
        scheduler.schedule(
            config.rebalance_interval,
            _PeriodicRebalanceTask(
                scheduler,
                overlay,
                config.overlay,
                rebalancer,
                config.frequency_limit,
                config.rebalance_interval,
                tel,
            ),
        )

    # Poisson query arrivals; frequencies keep learning online. The
    # workload's virtual clock rides the event scheduler directly, so
    # drift/crowd/rotation epochs land at real simulation times.
    workload = bench.workload_stream(
        "queries", horizon=config.duration, rate=config.queries_per_second
    )
    query_rng = registry.fresh("query-arrivals")

    def fire_query() -> None:
        alive = overlay.alive_ids()
        if alive:
            workload.advance(scheduler.now)
            query = workload.next_query(alive)
            if query is not None:
                result = overlay.lookup(
                    query.source,
                    query.item,
                    record_access=True,
                    retry=retry,
                    faults=plane,
                    trace=tel,
                )
                if scheduler.now >= config.warmup:
                    stats.record(result)
        scheduler.schedule(query_rng.expovariate(config.queries_per_second), fire_query)

    scheduler.schedule(query_rng.expovariate(config.queries_per_second), fire_query)
    if tel is not None:
        # Round clock: sample at the end of each of ``rounds`` equal
        # virtual-time intervals (run_until is inclusive of the horizon,
        # so the final boundary fires). Telemetry observes warmup traffic
        # too — the dashboard is meant to show the system settling.
        for index in range(1, tel.rounds + 1):
            scheduler.schedule_at(
                index * config.duration / tel.rounds,
                _RoundSampleTask(tel, overlay, scheduler),
            )
    scheduler.run_until(config.duration)
    return stats


class _RoundSampleTask:
    """Round-clock tick in churn mode: snapshot the registry with the
    live-node count and the simulation clock."""

    __slots__ = ("telemetry", "overlay", "scheduler")

    def __init__(self, telemetry, overlay, scheduler) -> None:
        self.telemetry = telemetry
        self.overlay = overlay
        self.scheduler = scheduler

    def __call__(self) -> None:
        self.telemetry.sample_round(
            alive=self.overlay.alive_count(), now=self.scheduler.now
        )


class _ChurnAdapter:
    """Adapter giving the churn process rejoin-with-reseed semantics:
    a node that comes back starts with empty observations (its state was
    volatile) — it re-learns frequencies from live traffic.

    Transitions are idempotent because fault-plane crash bursts overlap
    the churn timeline: a churn crash may find its node already felled by
    a burst, and a churn rejoin may race a burst rejoin. Without faults
    the guards never trigger (churn alone strictly alternates states)."""

    def __init__(self, bench: _Bench) -> None:
        self.bench = bench

    def crash(self, node_id: int) -> None:
        overlay = self.bench.overlay
        if overlay.node(node_id).alive:
            overlay.crash(node_id)

    def rejoin(self, node_id: int) -> None:
        overlay = self.bench.overlay
        if not overlay.node(node_id).alive:
            overlay.rejoin(node_id)

    def alive_count(self) -> int:
        return self.bench.overlay.alive_count()


class _PeriodicNodeTask:
    """Self-rescheduling per-node maintenance action (skips dead phases)."""

    __slots__ = ("scheduler", "overlay", "node_id", "interval", "action")

    def __init__(self, scheduler, overlay, node_id, interval, action) -> None:
        self.scheduler = scheduler
        self.overlay = overlay
        self.node_id = node_id
        self.interval = interval
        self.action = action

    def __call__(self) -> None:
        node = self.overlay.node(self.node_id)
        if node.alive:
            self.action(self.overlay, self.node_id)
        self.scheduler.schedule(self.interval, self)


def _stabilize(overlay, node_id: int) -> None:
    overlay.stabilize(node_id)


def _make_recompute(
    k: int,
    policy,
    rng: random.Random,
    frequency_limit: int | None,
    quotas: dict[int, int] | None = None,
):
    """Per-node recompute action; ``quotas`` (shared by reference with the
    rebalancer) overrides the uniform ``k`` when a budget plan is live.
    Nodes outside the plan — e.g. rejoined after the allocation was cut —
    fall back to the uniform ``k``."""

    def action(overlay, node_id: int) -> None:
        node_k = k if quotas is None else quotas.get(node_id, k)
        overlay.recompute_auxiliary(node_id, node_k, policy, rng, frequency_limit)

    return action


class _PeriodicRebalanceTask:
    """Self-rescheduling drift-gated budget rebalance round (allocated
    mode only). Mutates the rebalancer's quotas dict in place — the same
    dict the per-node recompute tasks read."""

    __slots__ = (
        "scheduler",
        "overlay",
        "overlay_kind",
        "rebalancer",
        "frequency_limit",
        "interval",
        "telemetry",
    )

    def __init__(
        self,
        scheduler,
        overlay,
        overlay_kind: str,
        rebalancer,
        frequency_limit: int | None,
        interval: float,
        telemetry,
    ) -> None:
        self.scheduler = scheduler
        self.overlay = overlay
        self.overlay_kind = overlay_kind
        self.rebalancer = rebalancer
        self.frequency_limit = frequency_limit
        self.interval = interval
        self.telemetry = telemetry

    def __call__(self) -> None:
        problems = selection.plan_problems(self.overlay, self.frequency_limit)
        self.rebalancer.rebalance(
            problems, self.overlay_kind, telemetry=self.telemetry
        )
        self.scheduler.schedule(self.interval, self)

