"""Synthetic network-proximity model for the Pastry substrate.

FreePastry's routing is *locality-aware*: among next-hop candidates it
prefers the one with the lowest network latency to the current node — the
behaviour the paper credits for Figure 4's increasing-with-k trend
(Section VI discussion). The authors ran on FreePastry's transport; we
substitute a standard synthetic coordinate space: every node gets a random
point in a unit square and latency is the Euclidean distance (documented in
DESIGN.md §5).
"""

from __future__ import annotations

import math
import random

__all__ = ["ProximityModel"]


class ProximityModel:
    """Deterministic synthetic latencies from random 2-D coordinates.

    Coordinates are derived lazily per node id from the seed, so latencies
    are stable across the life of a network regardless of join order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._coordinates: dict[int, tuple[float, float]] = {}

    def coordinates(self, node_id: int) -> tuple[float, float]:
        """The node's point in the unit square."""
        point = self._coordinates.get(node_id)
        if point is None:
            rng = random.Random((self.seed << 32) ^ node_id)
            point = (rng.random(), rng.random())
            self._coordinates[node_id] = point
        return point

    def latency(self, a: int, b: int) -> float:
        """Symmetric synthetic latency between two nodes."""
        if a == b:
            return 0.0
        xa, ya = self.coordinates(a)
        xb, yb = self.coordinates(b)
        return math.hypot(xa - xb, ya - yb)

    def closest(self, origin: int, candidates: list[int]) -> int:
        """The candidate with the lowest latency to ``origin`` (ties break
        on id for determinism). ``candidates`` must be non-empty.

        Each latency is :meth:`latency`'s, with ``origin``'s coordinates
        read once per call."""
        x, y = self.coordinates(origin)
        coordinates = self.coordinates
        hypot = math.hypot

        def key(candidate: int) -> tuple[float, int]:
            if candidate == origin:
                return 0.0, candidate
            cx, cy = coordinates(candidate)
            return hypot(x - cx, y - cy), candidate

        return min(candidates, key=key)
