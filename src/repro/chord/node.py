"""A single Chord peer: core fingers, successor list, auxiliary pointers.

Core neighbors follow the paper's Chord variant (Section II-B): the i-th
neighbor of a node ``x`` is the first live node whose id lies in the
clockwise interval ``[x + 2**i, x + 2**(i+1))``. A short successor list
(standard Chord practice) keeps the ring connected under churn.

Each node also owns:

* a frequency tracker recording the true destination of every query it
  issued (Section III's access-frequency maintenance), and
* a set of auxiliary neighbors installed by one of the selection policies.

All neighbor kinds are merged into a single :class:`RingTable`, reflecting
the paper's design decision that auxiliary neighbors are used by the
*unmodified* routing policy.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.chord.routing import RingTable
from repro.core.frequency import ExactFrequencyTable
from repro.overlay import OverlayNode
from repro.util.ids import IdSpace

__all__ = ["ChordNode"]


class ChordNode(OverlayNode):
    """One Chord peer.

    Parameters
    ----------
    node_id:
        Identifier on the ring.
    space:
        The identifier space.
    successor_list_size:
        Number of immediate successors tracked besides the fingers.
    """

    __slots__ = ("successor_list_size", "successors", "table")

    def __init__(self, node_id: int, space: IdSpace, successor_list_size: int = 4) -> None:
        super().__init__(node_id, space)
        self.successor_list_size = successor_list_size
        self.successors: list[int] = []
        self.table = RingTable(node_id, space)

    # ------------------------------------------------------------------
    # Table maintenance
    # ------------------------------------------------------------------
    def rebuild_core(self, alive_ids: list[int]) -> None:
        """Refresh fingers and successor list from the current ring view.

        ``alive_ids`` is the sorted list of currently-live node ids. This
        models the *outcome* of Chord's periodic stabilization — after a
        stabilization round the node's core entries point at the correct
        first-node-per-interval — without simulating each fix-finger RPC.
        Between rounds the entries go stale, which is where churn bites.
        """
        space = self.space
        self.core.clear()
        self.successors.clear()
        index = bisect_left(alive_ids, self.node_id)
        present = index < len(alive_ids) and alive_ids[index] == self.node_id
        others = len(alive_ids) - (1 if present else 0)
        if others <= 0:
            self._rebuild_table()
            return
        for i in range(space.bits):
            low = space.add(self.node_id, 1 << i)
            span = 1 << i  # interval [x + 2^i, x + 2^(i+1)) has width 2^i
            neighbor = _first_in_interval(alive_ids, low, span, space)
            if neighbor is not None and neighbor != self.node_id:
                self.core.add(neighbor)
        successor = _first_in_interval(alive_ids, space.add(self.node_id, 1), space.size - 1, space)
        walker = successor
        while walker is not None and walker != self.node_id and len(self.successors) < self.successor_list_size:
            self.successors.append(walker)
            walker = _first_in_interval(alive_ids, space.add(walker, 1), space.size - 1, space)
            if walker in self.successors:
                break
        self._rebuild_table()

    def set_auxiliary(self, pointers: set[int]) -> None:
        """Install a new auxiliary-neighbor set (from any selection policy)."""
        self.auxiliary = {p for p in pointers if p != self.node_id}
        self._rebuild_table()

    def evict(self, dead_id: int) -> None:
        """Drop a neighbor discovered dead (lookup timeout, Section III)."""
        self.core.discard(dead_id)
        self.auxiliary.discard(dead_id)
        if dead_id in self.successors:
            self.successors.remove(dead_id)
        self.table.remove(dead_id)

    def core_neighbors(self) -> frozenset[int]:
        """The budget-free pointers ``N_s`` selection builds on: fingers
        plus the successor list."""
        return frozenset(self.core | set(self.successors))

    def neighbor_ids(self) -> set[int]:
        """All current neighbors: fingers, successors and auxiliaries."""
        return self.core | set(self.successors) | self.auxiliary

    def pointer_class(self, target: int) -> str:
        """Which pointer kind holds ``target``; an id living in several
        sets is credited to the strongest claim (core > successor >
        auxiliary)."""
        if target in self.core:
            return "core"
        if target in self.successors:
            return "successor"
        if target in self.auxiliary:
            return "auxiliary"
        return "unknown"

    def successor_snapshot(self) -> tuple[int, ...]:
        """Read-only copy of the successor list (verification hook)."""
        return tuple(self.successors)

    def _rebuild_table(self) -> None:
        self.table.clear()
        for neighbor in self.neighbor_ids():
            self.table.add(neighbor)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail abruptly: all volatile state (tables, history) is lost."""
        self.alive = False
        self.core.clear()
        self.successors.clear()
        self.auxiliary.clear()
        self.table.clear()
        self.tracker = ExactFrequencyTable()


def _first_in_interval(sorted_ids: list[int], start: int, width: int, space: IdSpace) -> int | None:
    """First id (clockwise) in ``[start, start + width)`` over the ring,
    given ``sorted_ids`` ascending. Returns ``None`` when the interval is
    empty of nodes."""
    if not sorted_ids:
        return None
    index = bisect_left(sorted_ids, start)
    candidate = sorted_ids[index % len(sorted_ids)]
    if space.gap(start, candidate) < width:
        return candidate
    return None
