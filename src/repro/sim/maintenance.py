"""Routing-table maintenance-cost accounting (paper Section I).

"The maintenance cost of the routing table grows with the size of the
routing table" — every extra auxiliary pointer is another neighbor to
ping each refresh interval. The paper argues the benefit is worth roughly
doubling the table (k ≈ log n) and defers budget-driven sizing to [12].

This module quantifies the trade-off for our overlays:

* :func:`table_sizes` — per-node neighbor counts (core + successors +
  auxiliary for Chord; cells + leaf set for Pastry).
* :func:`maintenance_rate` — expected liveness-probe messages per second
  network-wide for a given stabilization interval: one ping per neighbor
  entry per round, the model the paper sketches.
* :func:`cost_benefit_curve` — sweeps the pointer budget and reports, for
  each ``k``: the measured hop improvement and the extra maintenance
  traffic it costs, i.e. the data behind a "bandwidth budget" decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.metrics import percent_reduction
from repro.sim.runner import ExperimentConfig, stable_cell
from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive

__all__ = ["table_sizes", "maintenance_rate", "TradeoffPoint", "cost_benefit_curve"]


def table_sizes(overlay) -> dict[int, int]:
    """Current neighbor-table size of every live node."""
    return {
        node_id: len(overlay.nodes[node_id].neighbor_ids())
        for node_id in overlay.alive_ids()
    }


def maintenance_rate(overlay, stabilize_interval: float) -> float:
    """Liveness-probe messages per second, network-wide.

    One ping per neighbor entry per stabilization round (Section III's
    ping process, extended to auxiliary entries).
    """
    require_positive(stabilize_interval, "stabilize_interval")
    return sum(table_sizes(overlay).values()) / stabilize_interval


@dataclass(frozen=True)
class TradeoffPoint:
    """One budget level in the cost/benefit sweep."""

    k: int
    improvement_pct: float
    optimal_mean_hops: float
    baseline_mean_hops: float
    pings_per_second: float
    mean_table_size: float


def cost_benefit_curve(
    overlay: str = "chord",
    n: int = 128,
    bits: int = 20,
    alpha: float = 1.2,
    budgets: tuple[int, ...] | None = None,
    queries: int = 3000,
    stabilize_interval: float = 25.0,
    seed: int = 0,
) -> list[TradeoffPoint]:
    """Measure hop improvement *and* maintenance traffic per budget ``k``.

    Each point runs both policies' stable cells (same machinery as the
    figures) and then prices the optimal scheme's tables at the given
    stabilization interval.
    """
    if budgets is None:
        log_n = max(1, n.bit_length() - 1)
        budgets = (0, log_n, 2 * log_n, 3 * log_n)
    if not budgets:
        raise ConfigurationError("budgets must not be empty")
    points = []
    for k in budgets:
        config = ExperimentConfig(
            overlay=overlay,
            n=n,
            k=k,
            alpha=alpha,
            bits=bits,
            queries=queries,
            seed=seed,
        )
        # The optimal cell's universe keeps its tables installed to price.
        optimal = stable_cell(config, "optimal")
        baseline = stable_cell(config, "oblivious").stats
        priced = optimal.bench.overlay
        sizes = table_sizes(priced)
        points.append(
            TradeoffPoint(
                k=k,
                improvement_pct=percent_reduction(baseline.mean_hops, optimal.stats.mean_hops),
                optimal_mean_hops=optimal.stats.mean_hops,
                baseline_mean_hops=baseline.mean_hops,
                pings_per_second=maintenance_rate(priced, stabilize_interval),
                mean_table_size=sum(sizes.values()) / len(sizes),
            )
        )
    return points
