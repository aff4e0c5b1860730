"""Cache attribution plane: per-pointer accounting and hop-savings credit.

The aggregate hop curves say *that* auxiliary pointers help; nothing in
the repro said *which* cached pointer earned its slot, on which node,
under which workload. This module answers that with a recorder that
rides the existing :class:`~repro.obs.recorder.TraceRecorder` protocol —
zero new hook sites in any routing layer, zero cost when disabled (a
disabled recorder normalizes to ``None`` at route entry exactly like
:class:`~repro.obs.recorder.NullRecorder`; the ``cachestats_overhead``
bench gate certifies < 2%).

Per lookup the :class:`AttributionRecorder` accounts:

* **uses / hits per (node, pointer class)** — one use per attempted
  forwarding target, one hit per delivered forward, so ``hits <= uses``
  holds per pointer by construction (the ``cachestats.conservation``
  invariant re-checks it).
* **staleness at use** — uses whose target turned out dead (the pointer
  was stale when consulted), the churn-facing quality signal.
* **hop-savings attribution** — each delivered hop ``x -> y`` is
  credited ``R(x) - R(y) - 1`` marginal hops, where ``R(v)`` is the hop
  count of the *oblivious* route from ``v`` to the key: the overlay's
  own forwarding rule (the ``next_hop`` its lookups route with) called
  with the auxiliary plane masked, so only core-plane pointers
  (fingers / successor list / leaf set / k-buckets) remain, and with
  discovered-dead targets skipped. The credits telescope, so per lookup

  ``sum(credits) == R(source) - R(terminal) - delivered_hops``

  holds *exactly* (integer arithmetic); on a completed lookup
  ``R(terminal) == 0`` and this is the paper-facing conservation law
  ``sum(credited savings) == oblivious hops - observed hops``. The
  recorder machine-checks the telescoped identity on every lookup and
  keeps any violation message — a double-crediting bug cannot hide.
  Because the oblivious next hop is the same rule ranking a *subset* of
  the router's candidates, a hop resolved by a core-plane pointer has
  the oblivious route take the identical hop, so non-auxiliary hops earn
  exactly zero credit without any special-casing.
* **per-node query counts** — ``source_counts``, which
  :func:`repro.core.budget.measured_loads` turns into the mean-1 load
  weights ``repro cachestats`` reports.
* **quota utilization** — installed auxiliary pointers vs the budget
  allocator's per-node quota ``k_i``, and how many of them actually
  resolved a hop.

``R`` values are computed lazily at ``record_lookup`` time against the
*live* overlay state (routing has already applied this lookup's
evictions), never post-hoc over stored traces — under churn the tables
the next lookup sees are not the tables this one saw. Within one lookup
a single memo reuses walk suffixes, so attribution costs
``O(path * oblivious-walk)`` only while enabled.

:func:`attribute_batch` feeds the columnar engine's batched lanes
(``record_paths=True`` results) through the same recorder, which is what
lets ``tests/obs`` pin object-graph vs columnar attribution equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.recorder import HopEvent
from repro.routing import hop_limit

__all__ = [
    "AttributionRecorder",
    "PointerStats",
    "attribute_batch",
    "oblivious_route_length",
]

# ----------------------------------------------------------------------
# The oblivious (auxiliary-masked) walk
# ----------------------------------------------------------------------


class _ObliviousWalker:
    """Hop counts of the oblivious route: the router's rule with the
    auxiliary plane masked — the baseline every auxiliary pointer's
    marginal credit is measured against. Targets the overlay already
    knows to be dead are skipped: the real router discovers them at the
    cost of a timeout and retries with the next-best entry, and the
    baseline counts hops, not timeouts. The masked next hop is a pure
    function of the overlay state, so every node on a walk shares the
    walk's suffix lengths (memoized)."""

    __slots__ = ("overlay", "next_hop", "limit")

    def __init__(self, overlay) -> None:
        self.overlay = overlay
        self.next_hop = overlay._forwarding_rule()
        self.limit = hop_limit(overlay.space)

    def route_length(self, start: int, key: int, memo: dict[int, int | None]) -> int | None:
        """``R(start)`` for ``key``, or ``None`` past the hop limit
        (the same bound the real routers use)."""
        overlay = self.overlay
        path = [start]
        current = start
        while current not in memo:
            step = self.next_hop(
                overlay, overlay.node(current), key, auxiliary=False, skip_dead=True
            )
            if step is None:
                memo[current] = 0
                break
            if len(path) > self.limit:
                memo[current] = None
                break
            current = step[0]
            path.append(current)
        tail = memo[current]
        for depth, visited in enumerate(reversed(path)):
            memo[visited] = None if tail is None else tail + depth
        return memo[start]


def _credit(r_from: int, r_to: int) -> int:
    """Marginal hop savings of one delivered hop: the oblivious route
    shortened by ``r_from - r_to`` at the price of the hop itself.
    Module-level so the verify-plane mutation test can plant a
    double-crediting recorder by patching exactly this function."""
    return r_from - r_to - 1


def oblivious_route_length(overlay, source: int, key: int) -> int | None:
    """Hop count of the oblivious (auxiliary-masked) route from
    ``source`` to ``key``, or ``None`` when it exceeds the hop limit."""
    return _ObliviousWalker(overlay).route_length(source, key, {})


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------


@dataclass
class PointerStats:
    """Accounting bucket for one pointer aggregate (a (node, class) pair
    or one concrete (owner, target) pointer)."""

    uses: int = 0
    hits: int = 0
    stale_uses: int = 0
    credited: int = 0

    def merge(self, other: "PointerStats") -> None:
        self.uses += other.uses
        self.hits += other.hits
        self.stale_uses += other.stale_uses
        self.credited += other.credited

    def to_dict(self) -> dict:
        return {
            "uses": self.uses,
            "hits": self.hits,
            "stale_uses": self.stale_uses,
            "credited": self.credited,
        }


@dataclass
class _Totals:
    lookups: int = 0
    attributed: int = 0
    unattributed: int = 0
    oblivious_hops: int = 0
    observed_hops: int = 0
    residual_hops: int = 0
    credited: int = 0


class AttributionRecorder:
    """Per-node, per-pointer-class cache accounting recorder.

    Implements the :class:`~repro.obs.recorder.TraceRecorder` protocol:
    ``enabled`` is read once per lookup at route entry and
    ``record_lookup`` observes the finished result + hop events without
    touching overlay, RNG, or result state. Construct with
    ``enabled=False`` to get a recorder the routers normalize away —
    the disabled path the overhead bench gate measures.

    ``kind`` names the overlay in the exported document. ``quotas``
    (optional) are the budget allocator's per-node auxiliary quotas
    ``k_i`` for :meth:`quota_utilization`.
    """

    __slots__ = (
        "enabled",
        "kind",
        "overlay",
        "quotas",
        "by_node_class",
        "by_pointer",
        "source_counts",
        "totals",
        "conservation_failures",
        "_walker",
    )

    def __init__(
        self,
        kind: str,
        overlay,
        *,
        quotas: dict[int, int] | None = None,
        enabled: bool = True,
    ) -> None:
        self._walker = _ObliviousWalker(overlay)
        self.enabled = enabled
        self.kind = kind
        self.overlay = overlay
        self.quotas = dict(quotas) if quotas else {}
        #: (node id, pointer class) -> PointerStats
        self.by_node_class: dict[tuple[int, str], PointerStats] = {}
        #: (owner id, target id, pointer class) -> PointerStats
        self.by_pointer: dict[tuple[int, int, str], PointerStats] = {}
        self.source_counts: dict[int, int] = {}
        self.totals = _Totals()
        self.conservation_failures: list[str] = []

    # -- TraceRecorder protocol ----------------------------------------

    def record_lookup(self, result, events: Sequence[HopEvent]) -> None:
        totals = self.totals
        totals.lookups += 1
        source = result.source
        self.source_counts[source] = self.source_counts.get(source, 0) + 1
        for event in events:
            stale = 1 if "dead" in event.verdicts else 0
            bucket = self._node_class(event.forwarder, event.pointer_class)
            bucket.uses += 1
            bucket.stale_uses += stale
            pointer = self._pointer(event.forwarder, event.target, event.pointer_class)
            pointer.uses += 1
            pointer.stale_uses += stale
            if event.delivered:
                bucket.hits += 1
                pointer.hits += 1
        self._attribute(result, events)

    # -- hop-savings attribution ---------------------------------------

    def _attribute(self, result, events: Sequence[HopEvent]) -> None:
        totals = self.totals
        delivered = [event for event in events if event.delivered]
        path = [result.source] + [event.target for event in delivered]
        memo: dict[int, int | None] = {}
        key = result.key
        lengths = [self._walker.route_length(node_id, key, memo) for node_id in path]
        if any(length is None for length in lengths):
            totals.unattributed += 1
            return
        credited = 0
        for event, r_from, r_to in zip(delivered, lengths, lengths[1:]):
            credit = _credit(r_from, r_to)
            credited += credit
            self._node_class(event.forwarder, event.pointer_class).credited += credit
            self._pointer(
                event.forwarder, event.target, event.pointer_class
            ).credited += credit
        oblivious = lengths[0]
        residual = lengths[-1]
        hops = len(delivered)
        totals.attributed += 1
        totals.oblivious_hops += oblivious
        totals.observed_hops += hops
        totals.residual_hops += residual
        totals.credited += credited
        # The telescoped conservation law, machine-checked per lookup; a
        # double- (or mis-)crediting recorder trips it immediately.
        if credited != oblivious - residual - hops:
            self.conservation_failures.append(
                f"key {key} from {result.source}: credited {credited} != "
                f"oblivious {oblivious} - residual {residual} - hops {hops}"
            )

    def _node_class(self, node_id: int, pointer_class: str) -> PointerStats:
        bucket = self.by_node_class.get((node_id, pointer_class))
        if bucket is None:
            bucket = self.by_node_class[(node_id, pointer_class)] = PointerStats()
        return bucket

    def _pointer(self, owner: int, target: int, pointer_class: str) -> PointerStats:
        bucket = self.by_pointer.get((owner, target, pointer_class))
        if bucket is None:
            bucket = self.by_pointer[(owner, target, pointer_class)] = PointerStats()
        return bucket

    # -- exports -------------------------------------------------------

    def class_totals(self) -> dict[str, PointerStats]:
        """Aggregate accounting per pointer class (sorted by class)."""
        out: dict[str, PointerStats] = {}
        for (__, pointer_class), stats in self.by_node_class.items():
            out.setdefault(pointer_class, PointerStats()).merge(stats)
        return dict(sorted(out.items()))

    def top_pointers(self, count: int = 10) -> list[dict]:
        """The ``count`` hottest concrete pointers by credited savings
        (ties broken by hits, then ids — fully deterministic)."""
        ranked = sorted(
            self.by_pointer.items(),
            key=lambda item: (-item[1].credited, -item[1].hits, item[0]),
        )
        return [
            {
                "owner": owner,
                "target": target,
                "class": pointer_class,
                **stats.to_dict(),
            }
            for (owner, target, pointer_class), stats in ranked[:count]
        ]

    def quota_utilization(self) -> dict[int, dict]:
        """Per live node: allocator quota ``k_i``, installed auxiliary
        pointers, and how many of those resolved at least one hop."""
        hit_targets: dict[int, set[int]] = {}
        for (owner, target, pointer_class), stats in self.by_pointer.items():
            if pointer_class == "auxiliary" and stats.hits:
                hit_targets.setdefault(owner, set()).add(target)
        out: dict[int, dict] = {}
        for node_id in self.overlay.alive_ids():
            node = self.overlay.node(node_id)
            installed = len(node.auxiliary)
            quota = self.quotas.get(node_id, installed)
            hit = len(hit_targets.get(node_id, set()) & set(node.auxiliary))
            out[node_id] = {
                "quota": quota,
                "installed": installed,
                "hit": hit,
                "utilization": installed / quota if quota else 0.0,
            }
        return out

    def conservation(self) -> dict:
        """The conservation ledger: totals plus the exactness verdict."""
        totals = self.totals
        return {
            "lookups": totals.lookups,
            "attributed": totals.attributed,
            "unattributed": totals.unattributed,
            "oblivious_hops": totals.oblivious_hops,
            "observed_hops": totals.observed_hops,
            "residual_hops": totals.residual_hops,
            "credited": totals.credited,
            "exact": not self.conservation_failures
            and totals.credited
            == totals.oblivious_hops - totals.residual_hops - totals.observed_hops,
            "failures": list(self.conservation_failures),
        }

    def to_dict(self) -> dict:
        """JSON-ready snapshot with stable key order (ids as strings)."""
        per_node: dict[str, dict] = {}
        for (node_id, pointer_class), stats in sorted(self.by_node_class.items()):
            node_entry = per_node.setdefault(
                str(node_id), {"queries": self.source_counts.get(node_id, 0), "classes": {}}
            )
            node_entry["classes"][pointer_class] = stats.to_dict()
        return {
            "overlay": self.kind,
            "classes": {
                name: stats.to_dict() for name, stats in self.class_totals().items()
            },
            "per_node": per_node,
            "conservation": self.conservation(),
        }


# ----------------------------------------------------------------------
# Columnar lanes
# ----------------------------------------------------------------------


def attribute_batch(
    recorder: AttributionRecorder,
    result,
    sources: Sequence[int],
    keys: Sequence[int],
) -> None:
    """Feed a :class:`~repro.engine.router.BatchRouteResult` (run with
    ``record_paths=True``) through ``recorder``, lane by lane, exactly
    as the object-graph router would have: one delivered
    :class:`HopEvent` per forward with the lane's pointer-class labels.
    ``tests/obs`` pins that this matches object-graph attribution
    hop for hop."""
    if not recorder.enabled:
        return
    for lane, (source, key) in enumerate(zip(sources, keys)):
        lane_result = result.lane_result(lane, source, key)
        path = lane_result.path
        classes = result.lane_classes(lane, recorder.kind)
        events = [
            HopEvent(
                forwarder=path[index],
                target=path[index + 1],
                pointer_class=classes[index],
                delivered=True,
                attempts=1,
                timeouts=0,
                penalty=0.0,
            )
            for index in range(len(path) - 1)
        ]
        recorder.record_lookup(lane_result, events)
