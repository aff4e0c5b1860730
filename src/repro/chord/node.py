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

from bisect import bisect_left, bisect_right

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
        node_id, mask = self.node_id, self.space.mask
        self.core.clear()
        index = bisect_right(alive_ids, node_id)
        others = len(alive_ids) - (index > 0 and alive_ids[index - 1] == node_id)
        # The next live ids clockwise; there are at most ``others`` of
        # them, so the wrapped part stops short of the node itself.
        count = min(self.successor_list_size, others)
        successors = alive_ids[index : index + count]
        self.successors[:] = successors + alive_ids[: count - len(successors)]
        # Fingers, one bisect per populated distance class: the first
        # live id at or past ``x + low`` is the finger of its own class
        # ``[x + 2**i, x + 2**(i+1))``, every class between is empty, and
        # the search goes on from the next class.
        low = 1
        while others and low <= mask:
            finger = alive_ids[bisect_left(alive_ids, (node_id + low) & mask) % len(alive_ids)]
            gap = (finger - node_id) & mask
            if gap < low:  # wrapped past the node: the rest is empty
                break
            self.core.add(finger)
            low = 1 << gap.bit_length()
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
        self.table.fill(self.neighbor_ids())

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

