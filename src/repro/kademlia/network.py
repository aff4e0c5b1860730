"""The Kademlia overlay on the shared skeleton (:mod:`repro.overlay`).

Keys are assigned to the live node *XOR-closest* to the key — XOR is
injective for a fixed key, so the owner is always unique (no tie-break
rule needed, unlike Chord's clockwise successor or Pastry's numeric
proximity). A stabilization round installs, as the node's ``core``
contact set, what the k-bucket tree of
:class:`repro.kademlia.node.RoutingTable` keeps when every live id is
offered to it in ascending order: fine-grained coverage near the own id
(own-range buckets split instead of evicting), at most ``bucket_size``
contacts per distant distance class. Fed in ascending order, the tree
keeps exactly the ``bucket_size`` highest live ids of each distance
class, so :meth:`KademliaNetwork._rebuild_tables` reads them off the
sorted live ids with two bisects per class; :meth:`reference_core`
still feeds the tree, as the independent oracle verification compares
with. Membership, churn, the memoized owner and the entry points are the
skeleton's.

The default id space is the protocol's 160-bit SHA-1 space
(:data:`KADEMLIA_BITS`); experiments pass narrower spaces, which also
keeps the eq.-1 cost kernels on their NumPy fast path (exact only below
53 bits — see :mod:`repro.core.kademlia_selection`).
"""

from __future__ import annotations

from bisect import bisect_left

from repro import selection
from repro.core.kademlia_selection import select_kademlia, select_kademlia_greedy_batch
from repro.core.oblivious import select_kademlia_oblivious
from repro.kademlia.node import KademliaNode, RoutingTable
from repro.kademlia.routing import FindNodeResult, iterative_find_node, next_hop
from repro.overlay import Overlay
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int

__all__ = ["KADEMLIA_BITS", "KademliaNetwork", "optimal_policy", "oblivious_policy"]

#: The protocol's canonical id width (SHA-1).
KADEMLIA_BITS = 160

#: The frequency-aware optimum and the oblivious baseline (random nodes
#: per XOR distance class).
optimal_policy, oblivious_policy = selection.policies(
    select_kademlia, select_kademlia_oblivious, select_kademlia_greedy_batch
)


class KademliaNetwork(Overlay):
    """A complete Kademlia overlay with explicit, inspectable state.

    Example
    -------
    >>> network = KademliaNetwork.build(64, space=IdSpace(16), seed=1)
    >>> result = network.lookup(network.alive_ids()[0], key=12345)
    >>> result.succeeded
    True
    """

    def __init__(
        self,
        space: IdSpace | None = None,
        bucket_size: int = 8,
        alpha: int = 3,
    ) -> None:
        super().__init__(space or IdSpace(KADEMLIA_BITS))
        require_positive_int(bucket_size, "bucket_size")
        require_positive_int(alpha, "alpha")
        self.bucket_size = bucket_size
        self.alpha = alpha

    @classmethod
    def build(
        cls,
        n: int,
        space: IdSpace | None = None,
        seed: int = 0,
        bucket_size: int = 8,
        alpha: int = 3,
    ) -> "KademliaNetwork":
        """Create a stabilized network of ``n`` nodes with random ids."""
        return cls(space, bucket_size=bucket_size, alpha=alpha).populate(n, seed)

    def _new_node(self, node_id: int) -> KademliaNode:
        return KademliaNode(node_id, self.space, self.bucket_size)

    def _rebuild_tables(self, node: KademliaNode) -> None:
        node.set_core(self._bucket_core(node.node_id))

    def _forwarding_rule(self):
        return next_hop

    def _join(self, node: KademliaNode, bootstrap: int) -> None:
        """Kademlia's join (Maymounkov & Mazières §2.3): insert the
        bootstrap contact, run an iterative FIND_NODE on the own id, and
        populate the newcomer's buckets from every contact the lookup
        surfaced."""
        answer = iterative_find_node(self, bootstrap, node.node_id, alpha=self.alpha)
        node.forget_contacts()

        # Feed every surfaced contact through a fresh bucket tree, in the
        # order the lookup heard of them (bootstrap first).
        table = RoutingTable(node.node_id, self.space, self.bucket_size)
        for contact in [bootstrap, *answer.queried, *answer.found]:
            if self.nodes.get(contact) is not None and self.nodes[contact].alive:
                table.insert(contact)
        node.set_core(set(table.contacts()))

    def _owner(self, key: int) -> int:
        """The live node XOR-closest to ``key`` (unique: XOR is injective
        for a fixed key)."""
        return min(self._alive, key=key.__xor__)

    # ------------------------------------------------------------------
    # Verification hooks (read-only introspection)
    # ------------------------------------------------------------------
    def class_snapshot(self) -> dict[int, dict[int, frozenset[int]]]:
        """Per-live-node per-prefix-class contact sets, as installed now."""
        return {node_id: self.nodes[node_id].class_snapshot() for node_id in self._alive}

    def reference_core(self, node_id: int) -> frozenset[int]:
        """Ground-truth core contacts from the global view — what a
        stabilization round installs. Verification compares per-node state
        against this independent derivation: every live id offered to a
        fresh bucket tree in ascending order (deterministic recency:
        higher ids read as fresher), the survivors kept."""
        table = RoutingTable(node_id, self.space, self.bucket_size)
        for other in self._alive:
            if other != node_id:
                table.insert(other)
        return frozenset(table.contacts())

    def find_node(
        self, source: int, key: int, alpha: int | None = None, count: int | None = None
    ) -> FindNodeResult:
        """Iterative α-parallel FIND_NODE: the ``count`` (default
        ``bucket_size``) XOR-closest nodes to ``key``; see
        :func:`repro.kademlia.routing.iterative_find_node`."""
        return iterative_find_node(
            self,
            source,
            key,
            alpha=alpha if alpha is not None else self.alpha,
            count=count,
        )

    def _bucket_core(self, node_id: int) -> set[int]:
        """The ``bucket_size`` highest live ids of each XOR distance class
        of ``node_id`` — what :meth:`reference_core`'s ascending-fed bucket
        tree keeps. A split never drops a contact and an own-range bucket
        splits rather than evicts, so only a full bucket covering exactly
        one class evicts, and it drops its oldest entry: under ascending
        inserts, its lowest id. Every distance class with live members
        thus keeps at least one contact — the property greedy XOR
        routing's termination proof rests on.

        The class at bit ``h`` is the id range sharing ``node_id``'s bits
        above ``h`` and differing at ``h``: a contiguous slice of the
        sorted live ids.
        """
        alive = self._alive
        kept: list[int] = []
        for h in range(self.space.bits):
            low = ((node_id >> h) ^ 1) << h
            stop = bisect_left(alive, low + (1 << h))
            start = bisect_left(alive, low, 0, stop)
            kept.extend(alive[max(start, stop - self.bucket_size) : stop])
        # Ascending, the order the bucket tree lists its contacts in, so the
        # set is built in the same insertion order as the tree's.
        return set(sorted(kept))
