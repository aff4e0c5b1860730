"""A single Pastry peer: prefix routing table, leaf set, auxiliary pointers.

The routing table is organized into cells keyed by ``(row, digit)``: the
entries in cell ``(l, d)`` share exactly the first ``l`` digits with this
node and have digit ``d`` at position ``l`` (Section II-A). Core
maintenance keeps (at most) one entry per cell, but auxiliary neighbors
land in the cell their id belongs to, so a cell can offer several
candidates for the same prefix repair — the situation where FreePastry's
locality-aware choice matters (Section VI discussion of Figure 4).

The leaf set holds the ``leaf_radius`` numerically closest live nodes on
each side and both finishes deliveries and guarantees routing progress.
"""

from __future__ import annotations

from repro.core.frequency import ExactFrequencyTable
from repro.overlay import OverlayNode
from repro.util.ids import IdSpace

__all__ = ["PastryNode"]


class PastryNode(OverlayNode):
    """One Pastry peer.

    Parameters
    ----------
    node_id:
        Identifier in the circular id space.
    space:
        The identifier space.
    digit_bits:
        Bits per routing digit (1 = the paper's binary exposition).
    leaf_radius:
        Leaf-set entries maintained on each side.
    """

    __slots__ = ("digit_bits", "leaf_radius", "cells", "leaves", "_leaf_cache")

    def __init__(
        self,
        node_id: int,
        space: IdSpace,
        digit_bits: int = 1,
        leaf_radius: int = 8,
    ) -> None:
        super().__init__(node_id, space)
        self.digit_bits = digit_bits
        self.leaf_radius = leaf_radius
        #: (row, digit) -> set of neighbor ids usable for that prefix repair.
        self.cells: dict[tuple[int, int], set[int]] = {}
        self.leaves: set[int] = set()
        #: Routing-layer cache of leaf-set geometry (see
        #: :func:`repro.pastry.routing.leaf_geometry`); any mutation of
        #: ``leaves`` must reset it to ``None``.
        self._leaf_cache: tuple | None = None

    # ------------------------------------------------------------------
    # Cell bookkeeping
    # ------------------------------------------------------------------
    def cell_key(self, other: int) -> tuple[int, int]:
        """The (row, digit) cell another node's id belongs to: the row is
        the shared prefix ``bits - bitlen(node ^ other)`` in digits, the
        digit is ``other``'s digit there (the last one right-aligned, as
        :meth:`IdSpace.digit_at` reads it)."""
        space = self.space
        digit_bits = self.digit_bits
        shared = space.bits - (space.validate(other, "id b") ^ self.node_id).bit_length()
        row = shared // digit_bits
        if other == self.node_id:
            return row, space.digit_at(other, row, digit_bits)
        high = space.bits - row * digit_bits
        low = max(high - digit_bits, 0)
        return row, (other >> low) & ((1 << (high - low)) - 1)

    def _add_to_cell(self, other: int) -> None:
        self.cells.setdefault(self.cell_key(other), set()).add(other)

    def _remove_from_cell(self, other: int) -> None:
        key = self.cell_key(other)
        bucket = self.cells.get(key)
        if bucket is not None:
            bucket.discard(other)
            if not bucket:
                del self.cells[key]

    def candidates_for(self, key: int) -> set[int]:
        """Neighbors that repair at least one digit of ``key``: the entries
        of the cell addressed by the key's first digit mismatch."""
        if key == self.node_id:
            return set()
        return self.cells.get(self.cell_key(key), set())

    # ------------------------------------------------------------------
    # Neighbor-set maintenance
    # ------------------------------------------------------------------
    def set_core(self, entries: set[int]) -> None:
        """Replace the core routing-table entries."""
        for old in self.core - entries - self.auxiliary - self.leaves:
            self._remove_from_cell(old)
        self.core = {entry for entry in entries if entry != self.node_id}
        for entry in self.core:
            self._add_to_cell(entry)

    def set_leaves(self, entries: set[int]) -> None:
        """Replace the leaf set. Leaf entries also count as routing
        candidates (Pastry consults both structures)."""
        for old in self.leaves - entries - self.core - self.auxiliary:
            self._remove_from_cell(old)
        self.leaves = {entry for entry in entries if entry != self.node_id}
        self._leaf_cache = None
        for entry in self.leaves:
            self._add_to_cell(entry)

    def set_auxiliary(self, pointers: set[int]) -> None:
        """Install a new auxiliary set (selection output)."""
        for old in self.auxiliary - pointers - self.core - self.leaves:
            self._remove_from_cell(old)
        self.auxiliary = {p for p in pointers if p != self.node_id}
        for pointer in self.auxiliary:
            self._add_to_cell(pointer)

    def evict(self, dead_id: int) -> None:
        """Drop a neighbor discovered dead via a lookup timeout."""
        self.core.discard(dead_id)
        self.auxiliary.discard(dead_id)
        if dead_id in self.leaves:
            self.leaves.discard(dead_id)
            self._leaf_cache = None
        self._remove_from_cell(dead_id)

    def core_neighbors(self) -> frozenset[int]:
        """The budget-free pointers ``N_s`` selection builds on: routing
        table plus leaf set."""
        return frozenset(self.core | self.leaves)

    def neighbor_ids(self) -> set[int]:
        """Every currently-known neighbor."""
        return self.core | self.auxiliary | self.leaves

    def pointer_class(self, target: int) -> str:
        """Which pointer kind holds ``target``; an id living in several
        sets is credited to the strongest claim (core > leaf >
        auxiliary)."""
        if target in self.core:
            return "core"
        if target in self.leaves:
            return "leaf"
        if target in self.auxiliary:
            return "auxiliary"
        return "unknown"

    def leaf_snapshot(self) -> frozenset[int]:
        """Read-only copy of the leaf set (verification hook)."""
        return frozenset(self.leaves)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail abruptly, losing all volatile state."""
        self.alive = False
        self.cells.clear()
        self.core.clear()
        self.auxiliary.clear()
        self.leaves.clear()
        self._leaf_cache = None
        self.tracker = ExactFrequencyTable()
