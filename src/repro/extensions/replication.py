"""Beehive-style replication comparator (paper Section II-C, ref [16]).

Beehive replicates popular items proactively along lookup paths so that
hot queries terminate in O(1) hops. The paper contrasts it with pointer
caching: replication's win on hops comes with an *update cost* — every
item modification must refresh all replicas — which explodes when items
change often.

This module implements a simplified level-based Beehive on our Chord
substrate: an item replicated at level ``l`` is stored on every node
within ``2**l`` id-distance "hops-worth" of its home (approximated as the
``r_l`` ring-predecessors of the responsible node, doubling per level),
so a lookup stops as soon as it reaches any replica holder.

:func:`simulate_replication` reports mean hops, total replica count and
update traffic (replica refreshes per item update) for a popularity-ranked
replication budget, alongside the pointer-caching scheme.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.chord.ring import ChordRing
from repro.faults import arm_stable_plane
from repro.sim.runner import ExperimentConfig, stable_universe
from repro.util.validation import require_non_negative_int

__all__ = ["ReplicaDirectory", "ReplicationReport", "simulate_replication"]


class ReplicaDirectory:
    """Placement of item replicas on ring predecessors of the home node.

    Level ``l`` places ``2**l`` replicas: the home node plus the
    ``2**l - 1`` live nodes preceding it clockwise (the nodes a Chord
    lookup traverses last, per Beehive's intuition).
    """

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self._holders: dict[int, set[int]] = {}

    def replicate(self, item: int, level: int) -> set[int]:
        """Install replicas of ``item`` at the given level; returns holders."""
        require_non_negative_int(level, "level")
        alive = self.ring.alive_ids()
        home = self.ring.responsible(item)
        copies = min(1 << level, len(alive))
        index = bisect_right(alive, home) - 1
        if alive[index] != home:  # wrapped: responsible() is alive[-1]
            index = alive.index(home)
        holders = {alive[(index - offset) % len(alive)] for offset in range(copies)}
        self._holders[item] = holders
        return holders

    def holders(self, item: int) -> set[int]:
        """Current replica holders (home node only when never replicated)."""
        return self._holders.get(item, {self.ring.responsible(item)})

    def replica_count(self) -> int:
        """Total replicas beyond the home copies."""
        return sum(len(holders) - 1 for holders in self._holders.values())

    def update_cost(self, item: int) -> int:
        """Messages required to refresh every replica after one update."""
        return len(self.holders(item)) - 1


@dataclass
class ReplicationReport:
    """Outcome of one strategy in the replication comparison."""

    strategy: str
    mean_hops: float
    replicas: int
    update_messages_per_update: float

    def summary(self) -> str:
        return (
            f"{self.strategy}: {self.mean_hops:.3f} hops, "
            f"{self.replicas} replicas, "
            f"{self.update_messages_per_update:.1f} msgs/update"
        )


def _route_until_replica(
    ring: ChordRing, source: int, item: int, holders: set[int], retry=None, faults=None
) -> int:
    """Hop count of a lookup that may stop early at any replica holder."""
    if source in holders:
        return 0
    result = ring.lookup(source, item, record_access=False, retry=retry, faults=faults)
    hops = 0
    for node_id in result.path[1:]:
        hops += 1
        if node_id in holders:
            return hops
    return result.latency


def simulate_replication(
    n: int = 64,
    bits: int = 18,
    alpha: float = 1.2,
    k: int | None = None,
    queries: int = 3000,
    replicated_fraction: float = 0.05,
    replication_level: int = 3,
    seed: int = 0,
    faults=None,
    workload: str = "static-zipf",
) -> dict[str, ReplicationReport]:
    """Compare pointer caching against Beehive-style replication.

    The ``replicated_fraction`` most popular items get ``2**level``
    replicas each. Returns ``{strategy: ReplicationReport}`` for
    ``pointer``, ``replication`` and ``none``.

    ``faults`` is an optional :class:`~repro.faults.schedule.FaultSchedule`
    applied identically to every strategy's ring (setup crash burst /
    partition, then per-message loss with robust retries); ``None`` keeps
    the fault-free legacy behaviour bit for bit. ``workload`` selects the
    query scenario (default: the paper's static Zipf stream, draw-for-draw
    identical to the legacy path). Replica placement keys off the *static*
    ranking either way, so drifting scenarios show replication chasing a
    hot set that has moved on.
    """
    config = ExperimentConfig(
        overlay="chord",
        n=n,
        k=k,
        alpha=alpha,
        bits=bits,
        num_rankings=1,
        queries=queries,
        seed=seed,
        workload=workload,
    )
    reports: dict[str, ReplicationReport] = {}
    for strategy in ("pointer", "replication", "none"):
        bench = stable_universe(config)
        ring, popularity, registry = bench.overlay, bench.popularity, bench.registry
        catalog = popularity.catalog
        directory = ReplicaDirectory(ring)
        if strategy == "pointer":
            bench.install("optimal", registry.fresh("policy"))
        elif strategy == "replication":
            hot_count = max(1, int(replicated_fraction * len(catalog)))
            for item in popularity.rankings[0][:hot_count]:
                directory.replicate(item, replication_level)

        plane, retry = arm_stable_plane(faults, registry.fresh("fault-plane"), ring)
        total_hops = 0
        issued = 0
        for query in bench.queries(queries):
            issued += 1
            if strategy == "replication":
                total_hops += _route_until_replica(
                    ring, query.source, query.item, directory.holders(query.item),
                    retry=retry, faults=plane,
                )
            else:
                total_hops += ring.lookup(
                    query.source, query.item, record_access=False, retry=retry, faults=plane
                ).latency

        replicated_items = list(directory._holders) or list(catalog)[:1]
        mean_update_cost = sum(directory.update_cost(item) for item in replicated_items) / len(
            replicated_items
        )
        reports[strategy] = ReplicationReport(
            strategy=strategy,
            mean_hops=total_hops / issued if issued else 0.0,
            replicas=directory.replica_count(),
            update_messages_per_update=mean_update_cost if strategy == "replication" else 0.0,
        )
    return reports
