"""Chord's forwarding rule: greedy clockwise over a sorted table.

The paper's Chord variant (Section II-B) forwards a query for key ``v`` at
node ``x`` to the neighbor *closest to ``v`` without passing it* in the
clockwise direction. With every node's neighbors (core fingers, successor
list and auxiliary pointers) merged into one id-sorted table, that neighbor
is the table's ring-predecessor of ``v`` — found by a single ``bisect``.

:func:`next_hop` is that rule; :func:`repro.routing.route` wraps it with
retries, fault delivery, eviction and tracing. Failover after an eviction
is implicit in the merged table: the next ``next_hop`` call returns the
next-best entry, which includes the successor list.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable

from repro.util.ids import IdSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.chord.node import ChordNode
    from repro.chord.ring import ChordRing

__all__ = ["RingTable", "next_hop"]


class RingTable:
    """A node's merged neighbor table, kept sorted by absolute id.

    Supports O(log t) next-hop queries (t = table size), an O(t) removal
    and an O(t log t) refill, which is fine for the O(log n + k) tables
    the paper studies.
    """

    __slots__ = ("owner", "space", "_entries")

    def __init__(self, owner: int, space: IdSpace) -> None:
        self.owner = owner
        self.space = space
        self._entries: list[int] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        index = bisect_right(self._entries, node_id) - 1
        return index >= 0 and self._entries[index] == node_id

    def entries(self) -> list[int]:
        """All entries in ascending id order (a copy)."""
        return list(self._entries)

    def remove(self, node_id: int) -> None:
        """Remove ``node_id`` if present."""
        index = bisect_right(self._entries, node_id) - 1
        if index >= 0 and self._entries[index] == node_id:
            del self._entries[index]

    def clear(self) -> None:
        self._entries.clear()

    def fill(self, node_ids: set[int]) -> None:
        """Replace every entry with ``node_ids``, the owner skipped."""
        self._entries = sorted(node_ids - {self.owner})

    def next_hop(self, key: int, accept: Callable[[int], bool] | None = None) -> int | None:
        """The entry closest to ``key`` without passing it clockwise, or
        ``None`` when no entry lies in the clockwise interval
        ``(owner, key]`` (the owner is then the key's predecessor as far as
        this table knows). With ``accept``, entries it rejects are passed
        over in favour of the next-closest one."""
        entries = self._entries
        # Inlined IdSpace.gap: this runs once per forwarded hop and the
        # method calls were the routing loop's hottest frames.
        mask = self.space.mask
        owner = self.owner
        key_gap = (key - owner) & mask
        index = bisect_right(entries, key)
        for _ in entries:
            index -= 1
            candidate = entries[index]  # wraps via negative indices
            if not 0 < (candidate - owner) & mask <= key_gap:
                return None
            if accept is None or accept(candidate):
                return candidate
        return None


def next_hop(
    ring: "ChordRing",
    node: "ChordNode",
    key: int,
    auxiliary: bool = True,
    skip_dead: bool = False,
) -> tuple[int, None] | None:
    """Chord's forwarding rule: the table's ring-predecessor of ``key``.

    ``auxiliary=False`` passes over entries held only as auxiliary
    pointers; ``skip_dead`` passes over entries whose node is down. The
    hop's pointer class follows from plane membership (label ``None``).
    """
    if auxiliary and not skip_dead:
        target = node.table.next_hop(key)
    else:

        def accept(entry: int) -> bool:
            return (auxiliary or entry in node.core or entry in node.successors) and (
                not skip_dead or ring.node(entry).alive
            )

        target = node.table.next_hop(key, accept)
    return None if target is None else (target, None)
