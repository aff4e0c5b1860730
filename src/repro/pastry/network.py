"""The Pastry overlay on the shared skeleton (:mod:`repro.overlay`).

Keys are assigned to the *numerically closest* live node (Section II-A).
Core routing tables are rebuilt locality-aware, as in FreePastry: for each
``(row, digit)`` cell a few candidates from the matching id range are
sampled and the proximally closest one becomes the entry (DESIGN.md §5
documents this as the sampling approximation of FreePastry's table
maintenance). Stabilization rebuilds those cells and the leaf set from
the live ids; membership, churn and the entry points are the skeleton's.
The next-hop ``mode`` (:data:`~repro.pastry.routing.ROUTING_MODES`) is
fixed when the network is built, and every lookup routes under it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import partial

from repro import selection
from repro.core.oblivious import select_pastry_oblivious
from repro.core.pastry_selection import select_pastry, select_pastry_greedy_batch
from repro.overlay import Overlay
from repro.pastry.node import PastryNode
from repro.pastry.proximity import ProximityModel
from repro.pastry.routing import ROUTING_MODES, circular_distance, next_hop
from repro.routing import route
from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int

__all__ = ["PastryNetwork", "optimal_policy", "oblivious_policy"]

#: The frequency-aware optimum and the oblivious baseline (random nodes
#: per prefix class).
optimal_policy, oblivious_policy = selection.policies(
    select_pastry, select_pastry_oblivious, select_pastry_greedy_batch
)


class PastryNetwork(Overlay):
    """A complete Pastry overlay with explicit, inspectable state.

    Example
    -------
    >>> network = PastryNetwork.build(64, space=IdSpace(16), seed=1)
    >>> result = network.lookup(network.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(
        self,
        space: IdSpace | None = None,
        digit_bits: int = 1,
        leaf_radius: int = 8,
        core_samples: int = 4,
        proximity_seed: int = 0,
        mode: str = "proximity",
    ) -> None:
        super().__init__(space or IdSpace())
        require_positive_int(digit_bits, "digit_bits")
        require_positive_int(leaf_radius, "leaf_radius")
        require_positive_int(core_samples, "core_samples")
        if mode not in ROUTING_MODES:
            raise ConfigurationError(
                f"unknown routing mode {mode!r}; expected one of {ROUTING_MODES}"
            )
        self.mode = mode
        self.digit_bits = digit_bits
        self.leaf_radius = leaf_radius
        self.core_samples = core_samples
        self.proximity = ProximityModel(proximity_seed)
        self._maintenance_rng = random.Random(proximity_seed ^ 0x5A5A5A)

    @classmethod
    def build(
        cls,
        n: int,
        space: IdSpace | None = None,
        seed: int = 0,
        digit_bits: int = 1,
        leaf_radius: int = 8,
        mode: str = "proximity",
    ) -> "PastryNetwork":
        """Create a stabilized network of ``n`` nodes with random ids,
        routing in ``mode``."""
        network = cls(
            space, digit_bits=digit_bits, leaf_radius=leaf_radius, proximity_seed=seed, mode=mode
        )
        return network.populate(n, seed)

    def _new_node(self, node_id: int) -> PastryNode:
        return PastryNode(node_id, self.space, self.digit_bits, self.leaf_radius)

    def _forwarding_rule(self):
        return partial(next_hop, mode=self.mode)

    def _join(self, node: PastryNode, bootstrap: int) -> None:
        """Pastry's join (Section II-A): route a join message from
        ``bootstrap`` toward the new node's own id and assemble state from
        the nodes on the path. As in Pastry, the node encountered at hop
        ``i`` shares at least ``i`` digits with the newcomer, so its
        routing rows seed the newcomer's corresponding rows; the final
        node — numerically closest to the new id — donates its leaf set.
        """
        node_id = node.node_id
        # The join message routes in the default proximity mode, whatever
        # mode the network's lookups use.
        answer = route(self, bootstrap, node_id, next_hop, record_access=False)
        node.cells.clear()
        node.core.clear()
        node.auxiliary.clear()
        node.leaves.clear()

        # Harvest routing state from every node the join message visited.
        core: set[int] = set()
        for visited in answer.path:
            donor = self.nodes[visited]
            core.add(visited)
            for entries in donor.cells.values():
                core.update(entries)
        core.discard(node_id)
        # Keep one entry per cell (the proximally closest, as FreePastry
        # would), so the harvested table has the usual shape.
        best_per_cell: dict[tuple[int, int], int] = {}
        for candidate in core:
            key = node.cell_key(candidate)
            incumbent = best_per_cell.get(key)
            if incumbent is None or self.proximity.latency(node_id, candidate) < self.proximity.latency(node_id, incumbent):
                best_per_cell[key] = candidate
        node.set_core(set(best_per_cell.values()))

        # Leaf set: seeded from the numerically closest node found.
        closest = self.nodes[answer.path[-1]]
        donated = {leaf for leaf in closest.leaves if leaf != node_id}
        donated.add(closest.node_id)
        node.set_leaves(donated)

    def _owner(self, key: int) -> int:
        """The live node numerically closest to ``key`` (lower id on ties)."""
        index = bisect_left(self._alive, key)
        candidates = {
            self._alive[index % len(self._alive)],
            self._alive[index - 1],  # wraps via [-1]
        }
        return min(candidates, key=lambda c: (circular_distance(self.space, c, key), c))

    # ------------------------------------------------------------------
    # Verification hooks (read-only introspection)
    # ------------------------------------------------------------------
    def leaf_snapshot(self) -> dict[int, frozenset[int]]:
        """Per-live-node leaf sets, as installed right now."""
        return {
            node_id: self.nodes[node_id].leaf_snapshot() for node_id in self._alive
        }

    def reference_leaf_set(self, node_id: int) -> frozenset[int]:
        """Ground-truth leaf set from the global view — what a
        stabilization round installs. Verification compares per-node state
        against this independent derivation."""
        return frozenset(self._leaf_set(node_id))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild_tables(self, node: PastryNode) -> None:
        node.set_core(self._locality_core(node.node_id))
        node.set_leaves(self._leaf_set(node.node_id))

    def _leaf_set(self, node_id: int) -> set[int]:
        """The ``leaf_radius`` numerically nearest live nodes on each side."""
        alive = self._alive
        others = len(alive) - 1
        if others <= 0:
            return set()
        index = bisect_left(alive, node_id)
        take = min(self.leaf_radius, others // 2 + others % 2)
        leaves: set[int] = set()
        for step in range(1, take + 1):
            leaves.add(alive[(index + step) % len(alive)])
            leaves.add(alive[(index - step) % len(alive)])
        leaves.discard(node_id)
        return leaves

    def _locality_core(self, node_id: int) -> set[int]:
        """One locality-chosen entry per (row, digit) cell.

        For each cell the candidate ids form a contiguous range; we sample
        up to ``core_samples`` live ids from it and keep the proximally
        closest — approximating FreePastry's proximity-aware table fill.
        """
        bits = self.space.bits
        digit_bits = self.digit_bits
        alive = self._alive
        entries: set[int] = set()
        for row in range(self.space.num_digits(digit_bits)):
            # The row's digit covers id bits [suffix_bits, rest) from the
            # bottom; the last digit may be narrower (IdSpace.digit_at).
            rest = bits - row * digit_bits
            width = min(digit_bits, rest)
            suffix_bits = rest - width
            own_digit = (node_id >> suffix_bits) & ((1 << width) - 1)
            base = (node_id >> rest) << rest
            for digit in range(1 << width):
                if digit == own_digit:
                    continue
                low = base | (digit << suffix_bits)
                high = low + (1 << suffix_bits)  # exclusive
                lo_index = bisect_left(alive, low)
                hi_index = bisect_left(alive, high)
                count = hi_index - lo_index
                if count <= 0:
                    continue
                if count <= self.core_samples:
                    sample = alive[lo_index:hi_index]
                else:
                    sample = [
                        alive[self._maintenance_rng.randrange(lo_index, hi_index)]
                        for __ in range(self.core_samples)
                    ]
                entries.add(self.proximity.closest(node_id, sample))
        return entries
