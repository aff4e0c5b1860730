"""Pastry's forwarding rule: leaf delivery, prefix repair, fallback.

Per Section II-A, a query is routed to the node numerically closest to the
key; each hop forwards to a neighbor sharing a strictly longer prefix with
the key (falling back to the leaf set for final delivery and to a
numerically-closer neighbor in the rare empty-cell case).

Two next-hop choices among the candidates that repair the next digit:

* ``"greedy"`` — the candidate sharing the longest prefix with the key
  (and numerically closest on ties): fastest possible progress in hops.
* ``"proximity"`` — FreePastry's behaviour: "if there is more than one
  candidate node for the next hop, then the candidate node that is live
  and closest [in network latency] to the current node is picked"
  (Section VI). A candidate that *is* the key's neighborhood — i.e. would
  let the leaf set deliver immediately — is still preferred, matching
  FreePastry's deliver-direct short cut when the key falls inside a
  known node's leaf range.

:func:`next_hop` is that rule; :func:`repro.routing.route` wraps it with
retries, fault delivery, eviction and tracing. After a dead candidate is
evicted the next call re-ranks, failing over to the leaf set or the
next-ranked candidate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.util.ids import IdSpace

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.pastry.network import PastryNetwork
    from repro.pastry.node import PastryNode

__all__ = ["ROUTING_MODES", "circular_distance", "leaf_geometry", "next_hop"]

ROUTING_MODES = ("greedy", "proximity")


def circular_distance(space: IdSpace, a: int, b: int) -> int:
    """Numeric distance on the ring: the shorter way around."""
    gap = space.gap(a, b)
    return min(gap, space.size - gap)


def next_hop(
    network: "PastryNetwork",
    node: "PastryNode",
    key: int,
    mode: str = "proximity",
    auxiliary: bool = True,
    skip_dead: bool = False,
) -> tuple[int, str | None] | None:
    """Pastry's forwarding rule, in three stages.

    1. *Leaf delivery* (label ``"leaf"``): when the key lies inside the
       node's leaf-set coverage, the numerically closest of
       ``leaves ∪ {self}`` — terminal when that is the node itself.
    2. *Prefix repair* (label from plane membership): the best-ranked
       candidate of the routing-table cell that repairs the key's next
       digit, ranked by ``mode``.
    3. *Fallback* (label ``"fallback"``): the known neighbor strictly
       numerically closest to the key; terminal when none is closer.

    ``auxiliary=False`` removes auxiliary pointers from stages two and
    three (the leaf set is core plane and stays); ``skip_dead`` passes
    over targets whose node is down. The coverage arc always spans the
    whole leaf set, which is what the node believes before it discovers
    a leaf is dead.
    """
    if not node.leaves:
        return None  # isolated node: deliver locally
    space = network.space
    own = node.node_id
    covers_all, arc_start, span, known, radius = leaf_geometry(network, node)
    if covers_all or space.gap(arc_start, key) <= span:
        if skip_dead:
            known = [c for c in known if c == own or network.node(c).alive]
        closest = min(known, key=lambda c: (circular_distance(space, c, key), c))
        return None if closest == own else (closest, "leaf")

    def usable(candidate: int) -> bool:
        return (auxiliary or candidate in node.core or candidate in node.leaves) and (
            not skip_dead or network.node(candidate).alive
        )

    pool = [c for c in node.candidates_for(key) if usable(c)]
    if pool:
        if mode == "greedy":
            return min(
                pool,
                key=lambda c: (
                    -space.common_prefix_length(c, key),
                    circular_distance(space, c, key),
                    c,
                ),
            ), None

        # Locality-aware: a candidate that is, as far as this node can
        # tell, already the key's neighborhood — judged against the
        # node's own leaf-set radius, a purely local density estimate —
        # can deliver directly, so those rank first by numeric closeness.
        # Everything else follows FreePastry's closest-live-candidate-by-
        # latency rule.
        def rank(candidate: int):
            numeric = circular_distance(space, candidate, key)
            if numeric <= radius:
                return (0, float(numeric), candidate)
            return (1, network.proximity.latency(own, candidate), candidate)

        return min(pool, key=rank), None
    # Rare case: empty cell. Any known neighbor strictly numerically
    # closer to the key (Section II-A's "numerically closest" objective
    # keeps making progress), preferring the closest, then the lower id.
    best = None
    best_distance = circular_distance(space, own, key)
    for neighbor in node.neighbor_ids():
        if not usable(neighbor):
            continue
        distance = circular_distance(space, neighbor, key)
        if distance < best_distance or (distance == best_distance and best is not None and neighbor < best):
            best = neighbor
            best_distance = distance
    return None if best is None else (best, "fallback")


def leaf_geometry(network: "PastryNetwork", node) -> tuple:
    """Leaf-set geometry, cached on the node until its leaves change.

    Returns ``(covers_all, arc_start, span, known, radius_max)`` where the
    first three describe the covered arc (see :func:`next_hop`),
    ``known`` is ``leaves ∪ {self}`` as a list, and ``radius_max`` is the
    largest numeric distance to any leaf (the local density estimate the
    proximity mode ranks with). All of it depends only on the leaf set, yet
    the uncached version re-sorted the leaves on **every hop** of every
    lookup — the pastry routing loop's dominant cost. Every mutation of
    ``node.leaves`` resets ``node._leaf_cache`` to ``None``.
    """
    cached = node._leaf_cache
    if cached is not None:
        return cached
    space = network.space
    radius = network.leaf_radius
    own = node.node_id
    leaves = sorted(node.leaves)
    by_clockwise = sorted(leaves, key=lambda leaf: space.gap(own, leaf))
    by_counter = sorted(leaves, key=lambda leaf: space.gap(leaf, own))
    clockwise_extent = space.gap(own, by_clockwise[:radius][-1])
    counter_extent = space.gap(by_counter[:radius][-1], own)
    span = clockwise_extent + counter_extent
    covers_all = span >= space.size
    arc_start = space.add(own, -counter_extent)
    radius_max = max(circular_distance(space, own, leaf) for leaf in leaves)
    cached = (covers_all, arc_start, span, leaves + [own], radius_max)
    node._leaf_cache = cached
    return cached
