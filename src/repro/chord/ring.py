"""The Chord overlay: node membership, key responsibility, stabilization,
and installation of auxiliary-neighbor policies.

Keys are assigned to their *predecessor* — the first node whose id equals
or precedes the key clockwise (the paper's variant, Section II-B).

Churn model (Section VI-C): nodes crash abruptly and later rejoin with the
same id but fresh state. Other nodes keep stale entries until they either
hit them (lookup timeout -> eviction) or run their next stabilization
round, which re-initializes all core entries — mirroring the paper's
"each node pings its core neighbors at regular intervals and also
periodically re-initializes all the entries".
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from typing import Iterable

from repro import selection
from repro.chord.node import ChordNode
from repro.chord.routing import next_hop
from repro.core.chord_selection import select_chord
from repro.core.frequency import ExactFrequencyTable
from repro.core.oblivious import select_chord_oblivious
from repro.core.types import SelectionProblem, SelectionResult
from repro.routing import LookupResult, route
from repro.util.errors import ConfigurationError, NodeAbsentError
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int

__all__ = ["ChordRing", "oblivious_policy", "optimal_policy"]


def optimal_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "ChordRing | None" = None
) -> SelectionResult:
    """The paper's frequency-aware optimal selection (rng/overlay unused)."""
    return select_chord(problem)


def oblivious_policy(
    problem: SelectionProblem, rng: random.Random, overlay: "ChordRing | None" = None
) -> SelectionResult:
    """The frequency-oblivious baseline of Section VI-A: random nodes per
    finger range, drawn from the live population when available."""
    pool = overlay.alive_ids() if overlay is not None else None
    return select_chord_oblivious(problem, rng, pool=pool)


class ChordRing:
    """A complete Chord overlay with explicit, inspectable state.

    Example
    -------
    >>> ring = ChordRing.build(64, space=IdSpace(16), seed=1)
    >>> result = ring.lookup(ring.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(self, space: IdSpace | None = None, successor_list_size: int = 4) -> None:
        self.space = space or IdSpace()
        require_positive_int(successor_list_size, "successor_list_size")
        self.successor_list_size = successor_list_size
        self.nodes: dict[int, ChordNode] = {}
        self._alive: list[int] = []  # sorted ids of live nodes
        self._telemetry = None  # set via attach_telemetry

    def attach_telemetry(self, telemetry) -> None:
        """Attach (or detach with ``None``) a telemetry runtime.

        The overlay stores the caller-normalized handle and feeds its
        maintenance spans — selection recomputes, pointer updates, stale
        evictions during stabilization. Observe-only: attaching telemetry
        never changes routing state or consumes randomness.
        """
        self._telemetry = telemetry if telemetry is not None and telemetry.enabled else None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n: int,
        space: IdSpace | None = None,
        seed: int = 0,
        successor_list_size: int = 4,
    ) -> "ChordRing":
        """Create a stabilized ring of ``n`` nodes with random distinct ids."""
        require_positive_int(n, "n")
        ring = cls(space, successor_list_size)
        rng = random.Random(seed)
        if n > ring.space.size:
            raise ConfigurationError(f"cannot place {n} nodes in a {ring.space.bits}-bit space")
        ids = rng.sample(range(ring.space.size), n)
        for node_id in ids:
            ring.add_node(node_id)
        ring.stabilize_all()
        return ring

    def add_node(self, node_id: int) -> ChordNode:
        """Add a brand-new node (not yet stabilized into others' tables)."""
        self.space.validate(node_id, "node id")
        if node_id in self.nodes:
            raise ConfigurationError(f"node {node_id} already exists")
        node = ChordNode(node_id, self.space, self.successor_list_size)
        self.nodes[node_id] = node
        insort(self._alive, node_id)
        node.rebuild_core(self._alive)
        return node

    def join_via(self, node_id: int, bootstrap: int) -> ChordNode:
        """Protocol-faithful join: build the new node's tables by routing
        *through the overlay* from a bootstrap node (Chord's join).

        The joining node issues one lookup per finger interval — for each
        ``i``, a lookup for ``node_id + 2**i`` whose answering node's
        successor is the first live node in ``[node_id + 2**i,
        node_id + 2**(i+1))`` if one exists — plus one for its own
        successor list. Existing nodes learn about the newcomer only
        through their own later stabilization rounds, so responsibility
        for the newcomer's keys genuinely transfers over time, exactly as
        in a deployed ring.
        """
        self.space.validate(node_id, "node id")
        if node_id in self.nodes and self.nodes[node_id].alive:
            raise ConfigurationError(f"node {node_id} already exists")
        boot = self.nodes[bootstrap]
        if not boot.alive:
            raise NodeAbsentError(f"bootstrap node {bootstrap} is not alive")

        node = self.nodes.get(node_id)
        if node is None:
            node = ChordNode(node_id, self.space, self.successor_list_size)
            self.nodes[node_id] = node
        # Keep the node unroutable until its tables exist: a stale pointer
        # reaching a half-built node would otherwise strand join lookups.
        node.alive = False
        node.core.clear()
        node.successors.clear()
        node.auxiliary.clear()

        # Resolve each finger interval with a real lookup (before the node
        # becomes routable, so no lookup can traverse it half-built).
        for i in range(self.space.bits):
            target = self.space.add(node_id, 1 << i)
            answer = route(self, bootstrap, target, next_hop, record_access=False)
            if answer.destination is None:
                continue
            owner = self.nodes[answer.destination]
            finger = self._successor_of(owner, target)
            if finger is None or finger == node_id:
                continue
            if self.space.gap(target, finger) < (1 << i):
                node.core.add(finger)
        # Successor list: the answer for our own id's successor.
        answer = route(self, bootstrap, node_id, next_hop, record_access=False)
        if answer.destination is not None:
            predecessor = self.nodes[answer.destination]
            walker = self._successor_of(predecessor, self.space.add(node_id, 1))
            while walker is not None and walker != node_id and len(node.successors) < self.successor_list_size:
                node.successors.append(walker)
                walker = self._successor_of(self.nodes[walker], self.space.add(walker, 1))
                if walker in node.successors:
                    break
        node._rebuild_table()
        node.alive = True
        insort(self._alive, node_id)
        return node

    def _successor_of(self, node: ChordNode, target: int) -> int | None:
        """The first *live* entry at or clockwise-after ``target`` that
        ``node`` knows about (successor list first, then its whole table).

        Filtering liveness matters after a crash burst at the top of the
        ring: the join/refresh walkers would otherwise install crashed ids
        into successor lists, and a later failover would stop at the dead
        entry instead of wrapping to the first live one. When *everything*
        the node knows is crashed (the whole burst landed on its view),
        fall back to the ring's bookkeeping and wrap to the first live
        node at or after the target — the walkers calling this already
        operate on the global view, and aborting would leave the node with
        an empty successor list."""
        best = None
        best_gap = self.space.size
        for candidate in node.successors + node.table.entries():
            if not self.nodes[candidate].alive:
                continue
            gap = self.space.gap(target, candidate)
            if gap < best_gap:
                best = candidate
                best_gap = gap
        if best is not None:
            return best
        return self._first_live_at_or_after(target, exclude=node.node_id)

    def _first_live_at_or_after(self, target: int, exclude: int | None = None) -> int | None:
        """The first live node at or clockwise-after ``target``, wrapping
        around the ring; ``None`` when no live node (other than
        ``exclude``) exists."""
        if not self._alive:
            return None
        index = bisect_left(self._alive, target)
        for offset in range(len(self._alive)):
            candidate = self._alive[(index + offset) % len(self._alive)]
            if candidate != exclude:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> ChordNode:
        """Fetch a node object by id (KeyError when unknown)."""
        return self.nodes[node_id]

    def alive_ids(self) -> list[int]:
        """Sorted ids of live nodes (a copy)."""
        return list(self._alive)

    def alive_count(self) -> int:
        return len(self._alive)

    def responsible(self, key: int) -> int:
        """The node responsible for ``key``: its predecessor on the ring."""
        if not self._alive:
            raise NodeAbsentError("ring has no live nodes")
        index = bisect_right(self._alive, key) - 1
        return self._alive[index]  # wraps via [-1]

    # ------------------------------------------------------------------
    # Verification hooks (read-only introspection)
    # ------------------------------------------------------------------
    def successor_snapshot(self) -> dict[int, tuple[int, ...]]:
        """Per-live-node successor lists, as installed right now."""
        return {
            node_id: self.nodes[node_id].successor_snapshot()
            for node_id in self._alive
        }

    def reference_successors(self, node_id: int) -> tuple[int, ...]:
        """Ground-truth successor list from the global view: the next
        ``successor_list_size`` live nodes clockwise of ``node_id`` — what
        a stabilization round installs. Verification compares the per-node
        state against this independent derivation."""
        others = [nid for nid in self._alive if nid != node_id]
        if not others:
            return ()
        others.sort(key=lambda nid: self.space.gap(self.space.add(node_id, 1), nid))
        return tuple(others[: self.successor_list_size])

    def hop_distances(self, path: Iterable[int], key: int) -> list[int]:
        """The clockwise gap from each path node to ``key`` — the quantity
        the paper's Chord distance metric (eq. 6) takes the bit-length of.
        Strictly decreasing along any correctly routed path."""
        return [self.space.gap(node_id, key) for node_id in path]

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def crash(self, node_id: int) -> None:
        """Abruptly fail a node; others keep stale pointers to it."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"node {node_id} is already down")
        node.crash()
        index = bisect_left(self._alive, node_id)
        del self._alive[index]

    def rejoin(self, node_id: int) -> None:
        """Bring a crashed node back with fresh state and correct core."""
        node = self.nodes[node_id]
        if node.alive:
            raise NodeAbsentError(f"node {node_id} is already up")
        insort(self._alive, node_id)
        node.rejoin(self._alive)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stabilize(self, node_id: int) -> None:
        """One node's stabilization round: re-initialize its core entries
        and drop auxiliary entries that are known dead (the modified ping
        process of Section III)."""
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"cannot stabilize dead node {node_id}")
        tel = self._telemetry
        if tel is not None:
            with tel.span("maintenance.stabilize"):
                stale_aux = {aux for aux in node.auxiliary if not self.nodes[aux].alive}
                node.auxiliary -= stale_aux
                node.rebuild_core(self._alive)
            # One ping per auxiliary pointer plus the core re-init sweep.
            tel.add_work("maintenance.stabilize_messages", len(node.auxiliary) + len(stale_aux))
            tel.add_work("maintenance.stale_evictions", len(stale_aux))
            return
        stale_aux = {aux for aux in node.auxiliary if not self.nodes[aux].alive}
        node.auxiliary -= stale_aux
        node.rebuild_core(self._alive)

    def stabilize_all(self) -> None:
        """Stabilize every live node (used to reach a steady state)."""
        for node_id in self._alive:
            self.stabilize(node_id)

    def refresh_via(self, node_id: int) -> None:
        """Protocol-faithful fix-fingers: refresh one node's core entries
        by routing lookups *through its own current table* (Chord's
        ``fix_fingers``), rather than consulting the global view.

        Converges to the same entries as :meth:`stabilize` on a consistent
        overlay, but propagates knowledge only as fast as real routing
        would — a newly joined node becomes a finger of others only once
        some path already leads to it.
        """
        node = self.nodes[node_id]
        if not node.alive:
            raise NodeAbsentError(f"cannot refresh dead node {node_id}")
        fingers: set[int] = set()
        for i in range(self.space.bits):
            target = self.space.add(node_id, 1 << i)
            answer = route(self, node_id, target, next_hop, record_access=False)
            if answer.destination is None:
                continue
            owner = self.nodes[answer.destination]
            finger = self._successor_of(owner, target)
            if finger is None or finger == node_id:
                continue
            if self.space.gap(target, finger) < (1 << i):
                fingers.add(finger)
        node.core = fingers
        # Refresh the successor list by walking from the first finger.
        node.successors.clear()
        walker = self._successor_of(node, self.space.add(node_id, 1))
        while (
            walker is not None
            and walker != node_id
            and len(node.successors) < self.successor_list_size
        ):
            node.successors.append(walker)
            walker = self._successor_of(self.nodes[walker], self.space.add(walker, 1))
            if walker in node.successors:
                break
        stale_aux = {aux for aux in node.auxiliary if not self.nodes[aux].alive}
        node.auxiliary -= stale_aux
        node._rebuild_table()

    def recompute_auxiliary(
        self,
        node_id: int,
        k: int,
        policy: selection.AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
    ) -> SelectionResult:
        """Run ``policy`` at one node and install the result; see
        :func:`repro.selection.recompute`."""
        return selection.recompute(self, node_id, k, policy, rng, frequency_limit, self._telemetry)

    def recompute_all_auxiliary(
        self,
        k: int,
        policy: selection.AuxiliaryPolicy,
        rng: random.Random,
        frequency_limit: int | None = None,
    ) -> None:
        """Recompute auxiliary sets at every live node, in ascending id order."""
        selection.install(self, k, policy, rng, frequency_limit)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(
        self,
        source: int,
        key: int,
        record_access: bool = True,
        retry=None,
        faults=None,
        trace=None,
    ) -> LookupResult:
        """Route a query for ``key`` from ``source`` with Chord's
        forwarding rule; see :func:`repro.routing.route` for the knobs."""
        return route(
            self,
            source,
            key,
            next_hop,
            record_access=record_access,
            retry=retry,
            faults=faults,
            trace=trace,
        )

    def seed_frequencies(self, node_id: int, frequencies: dict[int, float]) -> None:
        """Pre-load a node's tracker (used by stable-mode experiments that
        hand each node its long-run destination distribution directly)."""
        self.nodes[node_id].tracker = ExactFrequencyTable.seeded(frequencies, node_id)
