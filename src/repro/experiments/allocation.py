"""Uniform-k vs allocated-k at equal total pointer budget (DESIGN.md §12).

The paper gives every node the same auxiliary budget ``k``. The global
allocator (:mod:`repro.core.budget`) spends the *same total* budget
``K = budget_fraction * n * k`` non-uniformly, by marginal gain over the
per-node cost curves. This experiment measures what that buys:

* a deterministic **plan** stage per overlay — build the seeded overlay
  and workload exactly as the runners do, compute the uniform and the
  greedy allocation over the same curves, and record the predicted eq.-1
  network costs (the allocated plan is mathematically guaranteed to be
  no worse; see the convexity argument in DESIGN.md §12). The installed
  tables are cross-checked against
  :func:`repro.extensions.global_greedy.network_cost` — the shared
  evaluation — so the predicted numbers are honest.
* a measured **grid** stage — overlay x scenario (stable / churn /
  fault) x budget mode, each cell a full policy comparison through
  :func:`~repro.sim.runner.run_stable` / :func:`~repro.sim.runner.run_churn`
  with the budget threaded through ``ExperimentConfig``. Cells fan out
  over workers like every other harness; serial and parallel runs are
  bit-identical.

Skew comes from ``num_rankings > 1``: nodes hold different Zipf rankings
(and different core tables), so their cost curves — and hence their
marginal gains — differ, which is exactly the regime where non-uniform
budgets win.

Two axes thread the workload plane into the study:

* ``--workload NAME[:PARAM]`` swaps the query scenario on every grid
  cell (the grid ran static-zipf only before PR 10), so allocation is
  exercised under drifting rankings, flash crowds, or diurnal activity.
* ``--loads measured`` closes ROADMAP's load-weighted loop: the plan
  stage first *measures* per-node query rates by counting the sources of
  a probe stream of the configured workload, threads their add-one
  smoothed weights (:func:`~repro.core.budget.measured_loads`) into
  ``CostCurve(load=...)``, and re-plans. The gate demands the
  load-aware greedy plan strictly beat the uniform-load plan *evaluated
  under the measured curves* — the predicted value of knowing who
  actually asks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.analysis.ascii_chart import render_aligned
from repro.core import budget as budget_mod
from repro.experiments.driver import Experiment, presets
from repro.extensions.global_greedy import network_cost
from repro.faults.schedule import FaultSchedule
from repro.sim.metrics import ComparisonResult
from repro.sim.runner import (
    ChurnConfig,
    ExperimentConfig,
    run_churn,
    run_stable,
    stable_universe,
)
from repro.util.errors import ConfigurationError
from repro.util.parallel import run_tasks
from repro.workload.spec import DEFAULT_RATE, WorkloadSpec

__all__ = [
    "EXPERIMENT",
    "AllocationPlan",
    "AllocationPreset",
    "AllocationRow",
    "allocation",
    "allocation_plans",
    "gate_messages",
    "load_gate_messages",
    "measured_gate_messages",
    "payload",
    "plans_to_table",
    "rows_to_table",
]

OVERLAYS = ("chord", "pastry", "kademlia")
SCENARIOS = ("stable", "churn", "fault")
MODES = ("uniform", "allocated")
LOAD_MODES = ("uniform", "measured")

#: Predicted-cost comparisons tolerate float rounding only.
_COST_TOL = 1e-9


@dataclass(frozen=True)
class AllocationPreset:
    """Grid definition for one uniform-vs-allocated run."""

    name: str
    n: int
    bits: int
    queries: int
    seed: int
    num_rankings: int
    #: Total budget as a fraction of the paper's ``n * k`` spend. Tight
    #: budgets are where allocation matters: at full ``n * k`` most
    #: candidate pools saturate and the two schemes converge.
    budget_fraction: float = 0.5
    loss_rate: float = 0.05
    churn_duration: float = 600.0
    #: Query scenario for every plan probe and grid cell (``NAME[:PARAM]``).
    workload: str = "static-zipf"
    #: ``uniform`` = every node weighted equally (the pre-PR-10 study);
    #: ``measured`` = probe the workload, thread observed per-node query
    #: rates into ``CostCurve(load=...)``, and plan load-aware.
    loads: str = "uniform"
    overlays: tuple[str, ...] = OVERLAYS
    scenarios: tuple[str, ...] = SCENARIOS

    def __post_init__(self) -> None:
        if not 0 < self.budget_fraction <= 1:
            raise ConfigurationError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
                )
        if self.loads not in LOAD_MODES:
            raise ConfigurationError(
                f"loads must be one of {LOAD_MODES}, got {self.loads!r}"
            )
        WorkloadSpec.parse(self.workload)  # fail fast on a bad selector

    @classmethod
    def quick(
        cls, seed: int = 0, workload: str = "static-zipf", loads: str = "uniform"
    ) -> "AllocationPreset":
        """Laptop-scale grid (~a couple of minutes)."""
        return cls(
            name="quick",
            n=96,
            bits=18,
            queries=4000,
            seed=seed,
            num_rankings=6,
            churn_duration=600.0,
            workload=workload,
            loads=loads,
        )

    @classmethod
    def smoke(
        cls, seed: int = 0, workload: str = "static-zipf", loads: str = "uniform"
    ) -> "AllocationPreset":
        """CI-scale grid (seconds)."""
        return cls(
            name="smoke",
            n=40,
            bits=16,
            queries=1200,
            seed=seed,
            num_rankings=5,
            churn_duration=240.0,
            workload=workload,
            loads=loads,
        )

    @property
    def effective_k(self) -> int:
        return max(1, self.n.bit_length() - 1)

    @property
    def total_budget(self) -> int:
        return max(1, int(self.n * self.effective_k * self.budget_fraction))


@dataclass(frozen=True)
class AllocationPlan:
    """One overlay's deterministic allocation plan at equal total budget."""

    overlay: str
    total_budget: int
    spent: int
    uniform_cost: float
    allocated_cost: float
    #: Predicted eq.-1 network-cost reduction of allocated over uniform.
    reduction_pct: float
    min_quota: int
    max_quota: int
    nodes: int
    #: ``network_cost`` re-evaluation of the *installed* allocated tables
    #: minus the plan's prediction — honesty check, ~0 up to rounding.
    installed_cost_delta: float
    workload: str = "static-zipf"
    loads: str = "uniform"
    #: Load-aware study (``loads == "measured"`` only, else ``None``):
    #: greedy plan under the measured-load curves, the uniform-load greedy
    #: plan *evaluated* under those same curves, and the win of knowing
    #: the real loads.
    measured_cost: float | None = None
    uniform_loads_cost: float | None = None
    load_win_pct: float | None = None
    load_min: float | None = None
    load_max: float | None = None


@dataclass(frozen=True)
class AllocationRow:
    """One measured grid cell: overlay x scenario x budget mode."""

    overlay: str
    scenario: str
    mode: str
    total_budget: int
    improvement_pct: float
    optimal_mean_hops: float
    baseline_mean_hops: float
    label: str


def _measured_loads(bench, preset: AllocationPreset) -> dict[int, float]:
    """Count the sources of a probe stream of the configured workload and
    return the mean-1 per-node load weights — the measured side of
    ``CostCurve(load=...)``. A node's load is the queries it issues, so
    the probe is drawn, never routed."""
    stream = bench.workload_stream("load-probe", horizon=preset.queries / DEFAULT_RATE)
    alive = bench.overlay.alive_ids()
    counts = Counter(query.source for query in stream.stream(preset.queries, lambda: alive))
    return budget_mod.measured_loads(counts, alive)


def _plan_one(preset: AllocationPreset, overlay: str) -> AllocationPlan:
    """Plan stage for one overlay: the seeded, planned stable universe,
    the uniform allocation beside its greedy plan, the load probe, and
    the shared-evaluation cross-check. Pure function of the preset."""
    config = _cell_config(preset, overlay, "stable", "allocated")
    bench = stable_universe(config)
    problems, curves, allocated = bench.problems, bench.curves, bench.allocation
    uniform = budget_mod.allocate_uniform(curves, preset.total_budget)
    measured_cost = uniform_loads_cost = load_win_pct = load_min = load_max = None
    if preset.loads == "measured":
        loads = _measured_loads(bench, preset)
        measured_curves = budget_mod.curves_for_problems(problems, overlay, loads=loads)
        measured = budget_mod.allocate_greedy(measured_curves, preset.total_budget)
        measured_cost = measured.total_cost
        # The uniform-load plan judged by the loads the network actually
        # carries: Σ_i load_i * C_i(k_i) at the load-blind quotas.
        uniform_loads_cost = sum(
            measured_curves[node].cost(allocated.quota(node)) for node in measured_curves
        )
        load_win_pct = (
            100.0 * (uniform_loads_cost - measured_cost) / uniform_loads_cost
            if uniform_loads_cost
            else 0.0
        )
        load_min = min(loads.values(), default=0.0)
        load_max = max(loads.values(), default=0.0)
    # Honesty check: install the allocated plan (frequency-aware policy)
    # and re-evaluate with the shared network_cost over the exact demand
    # snapshots the curves were built from.
    bench.install("optimal", bench.registry.fresh("plan-install"))
    demands = {node_id: dict(problem.frequencies) for node_id, problem in problems.items()}
    installed = network_cost(bench.overlay, demands, overlay=overlay)
    quotas = allocated.quotas.values()
    return AllocationPlan(
        overlay=overlay,
        total_budget=preset.total_budget,
        spent=allocated.spent,
        uniform_cost=uniform.total_cost,
        allocated_cost=allocated.total_cost,
        reduction_pct=100.0 * (uniform.total_cost - allocated.total_cost) / uniform.total_cost
        if uniform.total_cost
        else 0.0,
        min_quota=min(quotas, default=0),
        max_quota=max(quotas, default=0),
        nodes=len(allocated.quotas),
        installed_cost_delta=installed - allocated.total_cost,
        workload=preset.workload,
        loads=preset.loads,
        measured_cost=measured_cost,
        uniform_loads_cost=uniform_loads_cost,
        load_win_pct=load_win_pct,
        load_min=load_min,
        load_max=load_max,
    )


def allocation_plans(preset: AllocationPreset) -> list[AllocationPlan]:
    """Deterministic per-overlay plans (serial — they are cheap)."""
    return [_plan_one(preset, overlay) for overlay in preset.overlays]


def _cell_config(
    preset: AllocationPreset, overlay: str, scenario: str, mode: str
) -> ExperimentConfig:
    common = dict(
        overlay=overlay,
        n=preset.n,
        bits=preset.bits,
        queries=preset.queries,
        seed=preset.seed,
        num_rankings=preset.num_rankings,
        budget_mode=mode,
        budget_total=preset.total_budget,
        workload=preset.workload,
        engine="objects",
    )
    if scenario == "stable":
        return ExperimentConfig(**common)
    if scenario == "fault":
        return ExperimentConfig(**common, faults=FaultSchedule(loss_rate=preset.loss_rate))
    return ChurnConfig(
        **common,
        duration=preset.churn_duration,
        warmup=preset.churn_duration / 5.0,
    )


def _cells(preset: AllocationPreset) -> list[tuple[str, str, str]]:
    return [
        (overlay, scenario, mode)
        for overlay in preset.overlays
        for scenario in preset.scenarios
        for mode in MODES
    ]


def _run_cell(config: ExperimentConfig) -> ComparisonResult:
    """Module-level so the process pool can pickle it."""
    if isinstance(config, ChurnConfig):
        return run_churn(config)
    return run_stable(config)


def _row(cell: tuple[str, str, str], preset: AllocationPreset, result: ComparisonResult) -> AllocationRow:
    overlay, scenario, mode = cell
    return AllocationRow(
        overlay=overlay,
        scenario=scenario,
        mode=mode,
        total_budget=preset.total_budget,
        improvement_pct=result.improvement,
        optimal_mean_hops=result.optimized.mean_hops,
        baseline_mean_hops=result.baseline.mean_hops,
        label=result.label,
    )


def allocation(
    preset: AllocationPreset, jobs: int | None = None
) -> tuple[list[AllocationPlan], list[AllocationRow]]:
    """Plans plus the measured grid; identical output at any ``jobs``."""
    plans = allocation_plans(preset)
    cells = _cells(preset)
    configs = [_cell_config(preset, *cell) for cell in cells]
    results = run_tasks(_run_cell, configs, jobs)
    rows = [_row(cell, preset, result) for cell, result in zip(cells, results)]
    return plans, rows


def gate_messages(plans: Sequence[AllocationPlan]) -> list[str]:
    """Exit-gate checks: allocation must strictly beat uniform on every
    overlay's predicted cost, and the installed tables must reproduce the
    prediction under the shared evaluation."""
    messages = []
    for plan in plans:
        if not plan.allocated_cost < plan.uniform_cost - _COST_TOL:
            messages.append(
                f"{plan.overlay}: allocated cost {plan.allocated_cost:.6f} does "
                f"not beat uniform {plan.uniform_cost:.6f} at K={plan.total_budget}"
            )
        if abs(plan.installed_cost_delta) > 1e-6:
            messages.append(
                f"{plan.overlay}: installed tables cost deviates from the plan "
                f"by {plan.installed_cost_delta!r}"
            )
    return messages


def load_gate_messages(plans: Sequence[AllocationPlan]) -> list[str]:
    """With ``--loads measured``, the load-aware greedy plan must
    strictly beat the uniform-load plan under the measured curves on
    every overlay — the predicted value of measuring who asks. Empty for
    uniform-loads runs."""
    messages = []
    for plan in plans:
        if plan.loads != "measured":
            continue
        if plan.measured_cost is None or plan.uniform_loads_cost is None:
            messages.append(f"{plan.overlay}: measured-loads plan missing its costs")
            continue
        if not plan.measured_cost < plan.uniform_loads_cost - _COST_TOL:
            messages.append(
                f"{plan.overlay}: load-aware cost {plan.measured_cost:.6f} does not "
                f"beat the uniform-load plan {plan.uniform_loads_cost:.6f} under "
                f"measured loads (workload {plan.workload})"
            )
    return messages


def measured_gate_messages(rows: Sequence[AllocationRow]) -> list[str]:
    """Per overlay, the allocated budget must deliver lower measured mean
    hops (frequency-aware policy) than uniform on at least one scenario.
    Measured hops are noisier than predicted cost — routing uses pointers
    the eq.-1 model only approximates — so one-scenario-per-overlay is
    the honest measurable claim."""
    messages = []
    by_overlay: dict[str, list[AllocationRow]] = {}
    for row in rows:
        by_overlay.setdefault(row.overlay, []).append(row)
    for overlay, overlay_rows in sorted(by_overlay.items()):
        uniform = {r.scenario: r for r in overlay_rows if r.mode == "uniform"}
        allocated = {r.scenario: r for r in overlay_rows if r.mode == "allocated"}
        wins = [
            scenario
            for scenario in uniform
            if scenario in allocated
            and allocated[scenario].optimal_mean_hops < uniform[scenario].optimal_mean_hops
        ]
        if not wins:
            messages.append(
                f"{overlay}: allocated budget beat uniform measured hops on no "
                f"scenario (scenarios: {sorted(uniform)})"
            )
    return messages


def payload(
    grid: tuple[list[AllocationPlan], list[AllocationRow]], preset: AllocationPreset
) -> dict:
    """ALLOCATION_v1's own keys: the preset, the plans and the grid rows."""
    plans, rows = grid
    return {
        "preset": asdict(preset),
        "plans": [asdict(plan) for plan in plans],
        "rows": [asdict(row) for row in rows],
    }


def _gates(grid: tuple[list[AllocationPlan], list[AllocationRow]]) -> list[str]:
    # The allocated plan must strictly beat uniform on predicted cost for
    # every overlay (convexity guarantees it — a miss means a broken
    # allocator), must win measured hops on at least one scenario per
    # overlay, and with --loads measured the load-aware plan must strictly
    # beat the load-blind plan under the measured curves.
    plans, rows = grid
    return gate_messages(plans) + measured_gate_messages(rows) + load_gate_messages(plans)


def _render(grid: tuple[list[AllocationPlan], list[AllocationRow]], args) -> str:
    plans, rows = grid
    return "\n".join(
        [
            "predicted eq.-1 network cost at equal total budget:",
            plans_to_table(plans),
            "",
            "measured mean hops per scenario:",
            rows_to_table(rows),
        ]
    )


def plans_to_table(plans: Sequence[AllocationPlan]) -> str:
    """Predicted eq.-1 costs at equal total budget, per overlay."""
    if not plans:
        return "(no plans)"
    measured = any(plan.loads == "measured" for plan in plans)
    header = ["overlay", "K", "uniform", "allocated", "reduction", "quotas"]
    if measured:
        header += ["load-aware", "load-blind", "load win", "loads"]
    body = []
    for plan in plans:
        row = [
            plan.overlay,
            str(plan.total_budget),
            f"{plan.uniform_cost:.2f}",
            f"{plan.allocated_cost:.2f}",
            f"{plan.reduction_pct:.2f}%",
            f"{plan.min_quota}..{plan.max_quota}",
        ]
        if measured:
            if plan.loads == "measured":
                row += [
                    f"{plan.measured_cost:.2f}",
                    f"{plan.uniform_loads_cost:.2f}",
                    f"{plan.load_win_pct:.2f}%",
                    f"{plan.load_min:.2f}..{plan.load_max:.2f}",
                ]
            else:
                row += ["-", "-", "-", "-"]
        body.append(row)
    return render_aligned([header] + body)


def rows_to_table(rows: Sequence[AllocationRow]) -> str:
    """Measured mean hops per overlay x scenario x budget mode."""
    if not rows:
        return "(empty grid)"
    header = ["overlay", "scenario", "mode", "improvement", "ours", "oblivious"]
    body = [
        [
            row.overlay,
            row.scenario,
            row.mode,
            f"{row.improvement_pct:.1f}%",
            f"{row.optimal_mean_hops:.3f}",
            f"{row.baseline_mean_hops:.3f}",
        ]
        for row in rows
    ]
    return render_aligned([header] + body)


#: ``repro allocate``.
EXPERIMENT = Experiment(
    schema="ALLOCATION_v1",
    preset=presets(AllocationPreset, "workload", "loads"),
    run=lambda preset, args: allocation(preset, jobs=args.jobs),
    payload=payload,
    render=_render,
    gates=_gates,
    noun="allocation document",
)
