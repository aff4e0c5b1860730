"""The Chord overlay on the shared skeleton (:mod:`repro.overlay`).

Keys are assigned to their *predecessor* — the first node whose id equals
or precedes the key clockwise (the paper's variant, Section II-B). A
node's core tables are its fingers and successor list
(:class:`~repro.chord.node.ChordNode`): stabilization re-initializes them
from the live ids, while :meth:`ChordRing.join_via` and
:meth:`ChordRing.refresh_via` build them by routing through the ring.
Membership, churn and the entry points are the skeleton's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro import selection
from repro.chord.node import ChordNode
from repro.chord.routing import next_hop
from repro.core.chord_selection import select_chord
from repro.core.oblivious import select_chord_oblivious
from repro.overlay import Overlay
from repro.routing import route
from repro.util.errors import NodeAbsentError
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int

__all__ = ["ChordRing", "oblivious_policy", "optimal_policy"]

#: The frequency-aware optimum and the oblivious baseline (random nodes
#: per finger range).
optimal_policy, oblivious_policy = selection.policies(select_chord, select_chord_oblivious)


class ChordRing(Overlay):
    """A complete Chord overlay with explicit, inspectable state.

    Example
    -------
    >>> ring = ChordRing.build(64, space=IdSpace(16), seed=1)
    >>> result = ring.lookup(ring.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(self, space: IdSpace | None = None, successor_list_size: int = 4) -> None:
        super().__init__(space or IdSpace())
        require_positive_int(successor_list_size, "successor_list_size")
        self.successor_list_size = successor_list_size

    @classmethod
    def build(
        cls,
        n: int,
        space: IdSpace | None = None,
        seed: int = 0,
        successor_list_size: int = 4,
    ) -> "ChordRing":
        """Create a stabilized ring of ``n`` nodes with random distinct ids."""
        return cls(space, successor_list_size).populate(n, seed)

    def _new_node(self, node_id: int) -> ChordNode:
        return ChordNode(node_id, self.space, self.successor_list_size)

    def _rebuild_tables(self, node: ChordNode) -> None:
        node.rebuild_core(self._alive)

    def _drop_auxiliary(self, node: ChordNode, stale: set[int]) -> None:
        # In place: the rebuild_core that follows rebuilds the RingTable
        # once, where set_auxiliary would rebuild it a second time.
        node.auxiliary -= stale

    def _forwarding_rule(self):
        return next_hop

    def _join(self, node: ChordNode, bootstrap: int) -> None:
        """Chord's join: the newcomer issues one lookup per finger
        interval from ``bootstrap`` (see :meth:`_routed_fingers`) plus one
        for its own successor list. Existing nodes learn about it only
        through their own later stabilization rounds, so responsibility
        for its keys genuinely transfers over time, as in a deployed ring.
        """
        node_id = node.node_id
        node.successors.clear()
        node.auxiliary.clear()
        node.core = self._routed_fingers(node_id, bootstrap)
        # Successor list: the answer for our own id's successor.
        answer = route(self, bootstrap, node_id, next_hop, record_access=False)
        if answer.destination is not None:
            self._walk_successors(node, self.nodes[answer.destination])
        node._rebuild_table()

    def _routed_fingers(self, node_id: int, source: int) -> set[int]:
        """``node_id``'s fingers as routing from ``source`` finds them: for
        each ``i``, a lookup for ``node_id + 2**i`` whose answering node's
        successor is the first live node in ``[node_id + 2**i, node_id +
        2**(i+1))`` if one exists."""
        fingers: set[int] = set()
        for i in range(self.space.bits):
            target = self.space.add(node_id, 1 << i)
            answer = route(self, source, target, next_hop, record_access=False)
            if answer.destination is None:
                continue
            finger = self._successor_of(self.nodes[answer.destination], target)
            if finger is None or finger == node_id:
                continue
            if self.space.gap(target, finger) < (1 << i):
                fingers.add(finger)
        return fingers

    def _walk_successors(self, node: ChordNode, start: ChordNode) -> None:
        """Fill ``node``'s (empty) successor list by walking successor
        pointers clockwise from what ``start`` knows of ``node_id + 1``."""
        node_id = node.node_id
        walker = self._successor_of(start, self.space.add(node_id, 1))
        while walker is not None and walker != node_id and len(node.successors) < self.successor_list_size:
            node.successors.append(walker)
            walker = self._successor_of(self.nodes[walker], self.space.add(walker, 1))
            if walker in node.successors:
                break

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

    def _owner(self, key: int) -> int:
        """The node responsible for ``key``: its predecessor on the ring."""
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
        node.core = self._routed_fingers(node_id, node_id)
        # Refresh the successor list by walking from the node's own table.
        node.successors.clear()
        self._walk_successors(node, node)
        self._drop_auxiliary(node, {aux for aux in node.auxiliary if not self.nodes[aux].alive})
        node._rebuild_table()
