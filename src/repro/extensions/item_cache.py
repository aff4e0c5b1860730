"""Item-caching comparator (paper Section I motivation).

The paper argues that caching *items* (query results) breaks down when
items are updated frequently — cached copies go stale — whereas caching
*peer pointers* never serves stale data: a pointer accelerates the route
to the authoritative node regardless of how often the item changes.

This module makes that argument measurable. :class:`ItemCache` is a
node-local LRU cache of item copies with version tracking;
:func:`simulate_item_churn` runs a Chord workload where items are updated
at a configurable rate and reports, for three strategies:

* ``pointer`` — the paper's auxiliary-neighbor scheme,
* ``item-cache`` — per-node LRU item caching on top of plain Chord,
* ``none`` — plain Chord,

the average hops *and* the fraction of answers that were stale. Item
caching wins on hops (a hit is 0 hops) but pays in staleness as the update
rate grows; pointer caching keeps hops low at zero staleness.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.faults import arm_stable_plane
from repro.sim.runner import ExperimentConfig, stable_universe
from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive_int

__all__ = ["CACHE_POLICIES", "ItemCache", "ItemChurnReport", "simulate_item_churn"]


CACHE_POLICIES = ("lru", "lfu")


class ItemCache:
    """A node-local cache of item copies with version stamps.

    ``policy`` picks the eviction discipline: ``"lru"`` (the original
    behaviour, bit-identical at the defaults) evicts the least recently
    used entry; ``"lfu"`` (icarus-style) evicts the least frequently hit
    entry, breaking ties toward the least recently touched.
    ``admission_probability`` < 1 turns :meth:`store` into probabilistic
    caching (Psaras et al.'s ProbCache idea in its simplest form): a miss
    only populates the cache with that probability, which shields the
    small cache from one-hit wonders under heavy-tailed workloads.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = "lru",
        admission_probability: float = 1.0,
        rng: random.Random | None = None,
    ) -> None:
        require_positive_int(capacity, "capacity")
        if policy not in CACHE_POLICIES:
            raise ConfigurationError(
                f"unknown cache policy {policy!r}; expected one of {CACHE_POLICIES}"
            )
        if not 0.0 < admission_probability <= 1.0:
            raise ConfigurationError(
                f"admission_probability must be in (0, 1], got {admission_probability!r}"
            )
        if admission_probability < 1.0 and rng is None:
            raise ConfigurationError(
                "probabilistic admission needs an explicit rng for determinism"
            )
        self.capacity = capacity
        self.policy = policy
        self.admission_probability = admission_probability
        self._rng = rng
        self._entries: OrderedDict[int, int] = OrderedDict()  # item -> cached version
        self._frequencies: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0

    def lookup(self, item: int, current_version: int) -> bool:
        """Return True on a cache hit; track staleness against the
        authoritative ``current_version``."""
        cached = self._entries.get(item)
        if cached is None:
            self.misses += 1
            return False
        self._entries.move_to_end(item)
        self._frequencies[item] = self._frequencies.get(item, 0) + 1
        self.hits += 1
        if cached != current_version:
            self.stale_hits += 1
        return True

    def store(self, item: int, version: int) -> None:
        """Insert/update an item copy, evicting per policy when full."""
        if (
            self.admission_probability < 1.0
            and item not in self._entries
            and self._rng.random() >= self.admission_probability
        ):
            return
        self._entries[item] = version
        self._entries.move_to_end(item)
        self._frequencies.setdefault(item, 0)
        while len(self._entries) > self.capacity:
            victim = self._victim(protected=item)
            del self._entries[victim]
            self._frequencies.pop(victim, None)

    def _victim(self, protected: int) -> int:
        # The entry being stored is immune for this round: admission is
        # the admission filter's job, not the eviction policy's.
        if self.policy == "lru":
            return next(entry for entry in self._entries if entry != protected)
        # LFU: smallest hit count, ties broken by recency (OrderedDict
        # iterates least-recently-touched first).
        return min(
            (entry for entry in self._entries if entry != protected),
            key=lambda entry: self._frequencies.get(entry, 0),
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stale_rate(self) -> float:
        """Fraction of hits that served an out-of-date copy."""
        if self.hits == 0:
            return 0.0
        return self.stale_hits / self.hits


@dataclass
class ItemChurnReport:
    """Outcome of one strategy under item churn."""

    strategy: str
    mean_hops: float
    stale_answer_rate: float
    queries: int = 0
    cache_hit_rate: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.strategy}: {self.mean_hops:.3f} hops, "
            f"{100 * self.stale_answer_rate:.1f}% stale answers"
        )


@dataclass
class _ItemWorld:
    """Shared ground truth: per-item version counters bumped by updates."""

    versions: dict[int, int] = field(default_factory=dict)

    def version(self, item: int) -> int:
        return self.versions.get(item, 0)

    def update(self, item: int) -> None:
        self.versions[item] = self.versions.get(item, 0) + 1


def simulate_item_churn(
    n: int = 64,
    bits: int = 18,
    alpha: float = 1.2,
    k: int | None = None,
    queries: int = 4000,
    update_probability: float = 0.05,
    cache_capacity: int = 64,
    seed: int = 0,
    faults=None,
    workload: str = "static-zipf",
    cache_policy: str = "lru",
    admission_probability: float = 1.0,
) -> dict[str, ItemChurnReport]:
    """Compare pointer caching, item caching and plain Chord while a
    fraction ``update_probability`` of queries is preceded by an update to
    a (popularity-weighted) random item.

    ``faults`` optionally injects a
    :class:`~repro.faults.schedule.FaultSchedule` into every strategy's
    ring (same plane seed per strategy, robust retries); ``None`` is the
    bit-identical fault-free path. ``workload`` names the query scenario
    (:data:`repro.workload.spec.WORKLOADS`); ``cache_policy`` and
    ``admission_probability`` configure the item-cache strategy's
    eviction/admission behaviour. Defaults run the legacy comparison
    draw-for-draw. Returns ``{strategy: ItemChurnReport}``.
    """
    if not 0.0 <= update_probability <= 1.0:
        raise ConfigurationError("update_probability must be in [0, 1]")
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

    reports: dict[str, ItemChurnReport] = {}
    for strategy in ("pointer", "item-cache", "none"):
        bench = stable_universe(config)
        ring, popularity, registry = bench.overlay, bench.popularity, bench.registry
        if strategy == "pointer":
            bench.install("optimal", registry.fresh("policy"))
        plane, retry = arm_stable_plane(faults, registry.fresh("fault-plane"), ring)
        admission_rng = (
            registry.fresh("cache-admission") if admission_probability < 1.0 else None
        )
        caches = {
            node_id: ItemCache(
                cache_capacity,
                policy=cache_policy,
                admission_probability=admission_probability,
                rng=admission_rng,
            )
            for node_id in ring.alive_ids()
        }
        world = _ItemWorld()
        update_rng = registry.fresh("updates")

        total_hops = 0
        issued = 0
        for query in bench.queries(queries):
            if update_rng.random() < update_probability:
                world.update(popularity.sample_item(0, update_rng))
            issued += 1
            if strategy == "item-cache":
                cache = caches[query.source]
                if cache.lookup(query.item, world.version(query.item)):
                    continue  # a hit costs zero hops (but may be stale)
                result = ring.lookup(
                    query.source, query.item, record_access=False, retry=retry, faults=plane
                )
                total_hops += result.latency
                cache.store(query.item, world.version(query.item))
            else:
                result = ring.lookup(
                    query.source, query.item, record_access=False, retry=retry, faults=plane
                )
                total_hops += result.latency
        stale = sum(cache.stale_hits for cache in caches.values())
        hits = sum(cache.hits for cache in caches.values())
        reports[strategy] = ItemChurnReport(
            strategy=strategy,
            mean_hops=total_hops / issued if issued else 0.0,
            stale_answer_rate=stale / issued if issued else 0.0,
            queries=issued,
            cache_hit_rate=hits / issued if issued else 0.0,
        )
    return reports
