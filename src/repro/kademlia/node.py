"""A single Kademlia peer: k-bucket routing table, auxiliary pointers.

Two structures live here:

* :class:`RoutingTable` — the classic Kademlia bucket *tree*
  (Maymounkov & Mazières §2.4 / §4.2): one bucket initially covers the
  whole id space; a full bucket splits into halves only while it contains
  the owner's id, so the table keeps fine-grained coverage near the owner
  and at most ``bucket_size`` contacts per distant subtree. Buckets order
  contacts least-recently-seen first; a full non-splittable bucket evicts
  its LRU head (this simulation has no liveness ping to spare it).
  Because splitting always peels the sibling subtree off the owner's
  path, every non-owner bucket covers exactly one XOR distance class.

* :class:`KademliaNode` — the peer object the routing and verification
  planes consume, mirroring :class:`repro.pastry.node.PastryNode`: a
  ``core`` contact set (the rebuilt bucket contents), an ``auxiliary``
  pointer set (selection output), and a per-class candidate index keyed
  by common prefix length (``class == b - bitlength(self XOR other)``)
  with a bitmask of its non-empty classes. The per-class index is
  capacity-free — it is the *view* routing walks, one class per step,
  while the bucket tree is the *policy* deciding which contacts the core
  retains.
"""

from __future__ import annotations

from repro.core.frequency import ExactFrequencyTable
from repro.overlay import OverlayNode
from repro.util.ids import IdSpace

__all__ = ["KBucket", "RoutingTable", "KademliaNode"]


class KBucket:
    """One bucket: a contiguous id range ``[low, high)`` holding at most
    ``capacity`` contacts in least-recently-seen-first order."""

    __slots__ = ("low", "high", "capacity", "entries")

    def __init__(self, low: int, high: int, capacity: int) -> None:
        self.low = low
        self.high = high
        self.capacity = capacity
        #: Least-recently-seen contact at index 0, freshest at the tail.
        self.entries: list[int] = []

    def covers(self, node_id: int) -> bool:
        return self.low <= node_id < self.high

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def midpoint(self) -> int:
        return (self.low + self.high) // 2

    def touch(self, node_id: int) -> bool:
        """Move an already-known contact to the fresh end. Returns whether
        the contact was known."""
        try:
            self.entries.remove(node_id)
        except ValueError:
            return False
        self.entries.append(node_id)
        return True

    def split(self) -> tuple["KBucket", "KBucket"]:
        """Halve the covered range, redistributing contacts and keeping
        the relative recency order within each half."""
        mid = self.midpoint
        lower = KBucket(self.low, mid, self.capacity)
        upper = KBucket(mid, self.high, self.capacity)
        for entry in self.entries:
            (lower if entry < mid else upper).entries.append(entry)
        return lower, upper

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"KBucket([{self.low}, {self.high}), {self.entries})"


class RoutingTable:
    """The owner's bucket tree over ``space``, flattened to a range-sorted
    bucket list (ranges always partition ``[0, space.size)``)."""

    def __init__(self, owner: int, space: IdSpace, bucket_size: int = 8) -> None:
        self.owner = space.validate(owner, "owner id")
        self.space = space
        self.bucket_size = bucket_size
        self.buckets: list[KBucket] = [KBucket(0, space.size, bucket_size)]

    def _bucket_index(self, node_id: int) -> int:
        # Ranges are sorted and disjoint; binary-search the covering one.
        lo, hi = 0, len(self.buckets) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.buckets[mid].high <= node_id:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def bucket_for(self, node_id: int) -> KBucket:
        return self.buckets[self._bucket_index(node_id)]

    def insert(self, node_id: int) -> int | None:
        """Record that ``node_id`` was seen. Returns the id evicted to
        make room, or ``None``.

        A known contact is refreshed (moved to the bucket tail); a full
        bucket containing the owner splits and the insert retries; a full
        distant bucket drops its least-recently-seen contact.
        """
        if node_id == self.owner:
            return None
        self.space.validate(node_id, "contact id")
        while True:
            index = self._bucket_index(node_id)
            bucket = self.buckets[index]
            if bucket.touch(node_id):
                return None
            if not bucket.full:
                bucket.entries.append(node_id)
                return None
            if bucket.covers(self.owner) and bucket.high - bucket.low > 1:
                lower, upper = bucket.split()
                self.buckets[index : index + 1] = [lower, upper]
                continue
            evicted = bucket.entries.pop(0)
            bucket.entries.append(node_id)
            return evicted

    def remove(self, node_id: int) -> None:
        bucket = self.bucket_for(node_id)
        try:
            bucket.entries.remove(node_id)
        except ValueError:
            pass

    def contacts(self) -> list[int]:
        """Every contact, in bucket-range order (deterministic)."""
        out: list[int] = []
        for bucket in self.buckets:
            out.extend(sorted(bucket.entries))
        return out

    def closest(self, key: int, count: int) -> list[int]:
        """The ``count`` contacts XOR-closest to ``key`` (no ties: XOR is
        injective for a fixed key)."""
        return sorted(self.contacts(), key=key.__xor__)[:count]

    def __len__(self) -> int:
        return sum(len(bucket.entries) for bucket in self.buckets)


class KademliaNode(OverlayNode):
    """One Kademlia peer.

    Parameters
    ----------
    node_id:
        Identifier in the XOR id space.
    space:
        The identifier space.
    bucket_size:
        The protocol's ``k``: contacts retained per bucket.
    """

    __slots__ = ("bucket_size", "classes", "class_mask")

    def __init__(self, node_id: int, space: IdSpace, bucket_size: int = 8) -> None:
        super().__init__(node_id, space)
        self.bucket_size = bucket_size
        #: prefix length -> set of known contacts in that XOR distance
        #: class (``class = space.bits - prefix``); capacity-free view of
        #: ``core | auxiliary`` the forwarding rule walks.
        self.classes: dict[int, set[int]] = {}
        #: Bit ``h`` is set iff ``classes[space.bits - 1 - h]`` is
        #: non-empty: the contacts whose highest bit differing from
        #: ``node_id`` is ``h``.
        self.class_mask = 0

    # ------------------------------------------------------------------
    # Class bookkeeping
    # ------------------------------------------------------------------
    def class_key(self, other: int) -> int:
        """The prefix-length class another node's id belongs to."""
        return self.space.common_prefix_length(self.node_id, other)

    def _add_to_class(self, other: int) -> None:
        key = self.class_key(other)
        self.classes.setdefault(key, set()).add(other)
        self.class_mask |= 1 << (self.space.bits - 1 - key)

    def _remove_from_class(self, other: int) -> None:
        key = self.class_key(other)
        bucket = self.classes.get(key)
        if bucket is not None:
            bucket.discard(other)
            if not bucket:
                del self.classes[key]
                self.class_mask &= ~(1 << (self.space.bits - 1 - key))

    # ------------------------------------------------------------------
    # Neighbor-set maintenance
    # ------------------------------------------------------------------
    def set_core(self, entries: set[int]) -> None:
        """Replace the core contacts (the rebuilt bucket contents)."""
        for old in self.core - entries - self.auxiliary:
            self._remove_from_class(old)
        self.core = {entry for entry in entries if entry != self.node_id}
        for entry in self.core:
            self._add_to_class(entry)

    def set_auxiliary(self, pointers: set[int]) -> None:
        """Install a new auxiliary set (selection output)."""
        for old in self.auxiliary - pointers - self.core:
            self._remove_from_class(old)
        self.auxiliary = {p for p in pointers if p != self.node_id}
        for pointer in self.auxiliary:
            self._add_to_class(pointer)

    def forget_contacts(self) -> None:
        """Drop every core and auxiliary contact and the class index."""
        self.classes.clear()
        self.class_mask = 0
        self.core.clear()
        self.auxiliary.clear()

    def evict(self, dead_id: int) -> None:
        """Drop a contact discovered dead via a lookup timeout."""
        self.core.discard(dead_id)
        self.auxiliary.discard(dead_id)
        self._remove_from_class(dead_id)

    def core_neighbors(self) -> frozenset[int]:
        """The budget-free pointers ``N_s`` selection builds on: the
        bucket contacts."""
        return frozenset(self.core)

    def neighbor_ids(self) -> set[int]:
        """Every currently-known contact."""
        return self.core | self.auxiliary

    def pointer_class(self, target: int) -> str:
        """Which pointer kind holds ``target``; an id living in both sets
        is credited to the stronger claim (core > auxiliary)."""
        if target in self.core:
            return "core"
        if target in self.auxiliary:
            return "auxiliary"
        return "unknown"

    def class_snapshot(self) -> dict[int, frozenset[int]]:
        """Read-only copy of the per-class index (verification hook)."""
        return {prefix: frozenset(members) for prefix, members in self.classes.items()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail abruptly, losing all volatile state."""
        self.alive = False
        self.forget_contacts()
        self.tracker = ExactFrequencyTable()
