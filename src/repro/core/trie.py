"""Path-compressed binary trie over peer identifiers (paper Section IV).

The Pastry selection algorithms view the observed peers ``V`` (plus the
core neighbors) as leaves of a binary trie of their ids. The paper uses an
uncompressed trie with ``O(n b)`` vertices; we path-compress unary chains
into single edges carrying a ``length`` multiplier, which yields exactly
the same dynamic-programming values with only ``O(n)`` vertices (a chain of
unary vertices above a subtree contributes ``length * F(subtree)`` to the
cost when the subtree holds no pointer, and nothing otherwise — identical
to summing the per-edge indicator terms of eq. 2).

Vertices carry the aggregates the selection layer needs:

* ``frequency_sum`` — ``F(T_a)``, total access frequency below the vertex,
* ``has_core`` — whether any core neighbor lies below,
* ``eligible_count`` — number of leaves that may be picked as auxiliary
  neighbors (observed peers that are not core neighbors),
* ``required`` — QoS marker: the subtree must end up containing a pointer.

One-shot selection solves build the trie of a complete peer set in one
pass (:meth:`PeerTrie.from_entries`): the ids are sorted once and every
vertex is created, and aggregated, exactly once. The trie also supports
incremental maintenance (Section IV-C): inserts, removes and frequency
updates touch only one root-to-leaf path and report it via
``on_path_change`` so the selection layer can refresh its memoized cost
tables bottom-up in ``O(b k)``. Both routes build the same vertices with
the same aggregates.

A vertex's ``prefix`` holds its first ``depth`` bits right-aligned; for a
leaf (``depth == bits``) that is the full peer id.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterator, Mapping

from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace

__all__ = ["TrieVertex", "PeerTrie"]


class TrieVertex:
    """One vertex of the compressed trie."""

    __slots__ = (
        "depth",
        "prefix",
        "parent",
        "children",
        "peer",
        "frequency",
        "is_core",
        "required",
        "frequency_sum",
        "has_core",
        "eligible_count",
        "memo",
    )

    def __init__(self, depth: int, prefix: int, parent: "TrieVertex | None") -> None:
        self.depth = depth
        self.prefix = prefix
        self.parent = parent
        self.children: dict[int, TrieVertex] = {}
        self.peer: int | None = None
        self.frequency = 0.0
        self.is_core = False
        self.required = False
        self.frequency_sum = 0.0
        self.has_core = False
        self.eligible_count = 0
        #: Scratch slot for the selection layer's memoized cost tables.
        self.memo: object | None = None

    @property
    def is_leaf(self) -> bool:
        """True for vertices carrying a peer payload."""
        return self.peer is not None

    def edge_length(self) -> int:
        """Number of uncompressed trie edges between this vertex and its parent."""
        if self.parent is None:
            return 0
        return self.depth - self.parent.depth

    def bit_within_prefix(self, position: int) -> int:
        """Bit of this vertex's prefix at absolute position ``position``
        (counted from the most-significant bit of the full id)."""
        return (self.prefix >> (self.depth - position - 1)) & 1

    def child_order(self) -> list["TrieVertex"]:
        """Children in deterministic bit order (0 before 1)."""
        children = self.children
        return [children[bit] for bit in (0, 1) if bit in children]

    def refresh_aggregates(self) -> None:
        """Recompute subtree aggregates from the immediate children
        (or, for a leaf, from its payload)."""
        if self.is_leaf:
            self.frequency_sum = self.frequency
            self.has_core = self.is_core
            self.eligible_count = 0 if self.is_core else 1
            return
        self.frequency_sum = sum(child.frequency_sum for child in self.children.values())
        self.has_core = any(child.has_core for child in self.children.values())
        self.eligible_count = sum(child.eligible_count for child in self.children.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"leaf peer={self.peer}" if self.is_leaf else f"internal children={len(self.children)}"
        return f"<TrieVertex depth={self.depth} prefix={self.prefix:b} {kind}>"


class PeerTrie:
    """Compressed binary trie over peer ids with incremental maintenance.

    Parameters
    ----------
    space:
        Identifier space the peer ids live in; fixes the trie depth.
    on_path_change:
        Optional callback invoked after every structural or payload change
        with the affected root-to-leaf path, ordered leaf-first. The
        selection layer uses it to refresh memoized DP tables bottom-up
        (Section IV-C).
    """

    def __init__(
        self,
        space: IdSpace,
        on_path_change: Callable[[list[TrieVertex]], None] | None = None,
    ) -> None:
        self.space = space
        self.root = TrieVertex(0, 0, None)
        self._leaves: dict[int, TrieVertex] = {}
        self.on_path_change = on_path_change

    @classmethod
    def from_entries(
        cls, space: IdSpace, entries: Mapping[int, tuple[float, bool]]
    ) -> "PeerTrie":
        """Build the trie of a complete peer set in one pass.

        ``entries`` maps each peer id to ``(frequency, is_core)``. The ids
        are sorted once. Each internal vertex is created once, at the
        common-prefix depth of its leaf range; the range splits at the
        vertex's branching bit, and the vertex's aggregates are set once
        from its two children. The result is vertex for vertex the trie
        that inserting the peers one by one builds, and a bad id or
        frequency raises the same error. Recursion goes at most ``bits``
        levels deep.
        """
        for peer, (frequency, __) in entries.items():
            space.validate(peer, "peer id")
            if frequency < 0:
                raise ConfigurationError(f"frequency must be non-negative, got {frequency!r}")
        trie = cls(space)
        if not entries:
            return trie
        peers = sorted(entries)
        bits = space.bits
        leaves = trie._leaves

        def subtree(lo: int, hi: int, parent: TrieVertex) -> TrieVertex:
            """The vertex holding exactly ``peers[lo:hi]``."""
            low = peers[lo]
            if hi - lo == 1:
                frequency, is_core = entries[low]
                leaf = TrieVertex(bits, low, parent)
                leaf.peer = low
                leaf.frequency = leaf.frequency_sum = frequency
                leaf.is_core = leaf.has_core = is_core
                leaf.eligible_count = 0 if is_core else 1
                leaves[low] = leaf
                return leaf
            depth = bits - (low ^ peers[hi - 1]).bit_length()
            vertex = TrieVertex(depth, low >> (bits - depth), parent)
            # ``low`` has a 0 at the branching bit; the 1-side starts at
            # the smallest id that has a 1 there.
            shift = bits - depth - 1
            mid = bisect_left(peers, ((low >> shift) | 1) << shift, lo, hi)
            first = subtree(lo, mid, vertex)
            second = subtree(mid, hi, vertex)
            vertex.children = {0: first, 1: second}
            vertex.frequency_sum = first.frequency_sum + second.frequency_sum
            vertex.has_core = first.has_core or second.has_core
            vertex.eligible_count = first.eligible_count + second.eligible_count
            return vertex

        # The root is the only vertex that may keep a single child.
        root = trie.root
        mid = bisect_left(peers, 1 << (bits - 1))
        if mid > 0:
            root.children[0] = subtree(0, mid, root)
        if mid < len(peers):
            root.children[1] = subtree(mid, len(peers), root)
        root.refresh_aggregates()
        return trie

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaves)

    def __contains__(self, peer: int) -> bool:
        return peer in self._leaves

    def leaf(self, peer: int) -> TrieVertex:
        """Return the leaf for ``peer`` (raises ``KeyError`` when absent)."""
        return self._leaves[peer]

    def leaves(self) -> Iterator[TrieVertex]:
        """Iterate all leaves in ascending peer-id order."""
        for peer in sorted(self._leaves):
            yield self._leaves[peer]

    def total_frequency(self) -> float:
        """Sum of all leaf frequencies."""
        return self.root.frequency_sum

    def postorder(self) -> Iterator[TrieVertex]:
        """Iterate all vertices children-first (for bottom-up passes)."""
        stack: list[tuple[TrieVertex, bool]] = [(self.root, False)]
        while stack:
            vertex, expanded = stack.pop()
            if expanded or vertex.is_leaf:
                yield vertex
                continue
            stack.append((vertex, True))
            for child in vertex.child_order():
                stack.append((child, False))

    def path_to_root(self, vertex: TrieVertex) -> list[TrieVertex]:
        """Vertices from ``vertex`` up to and including the root."""
        path = []
        current: TrieVertex | None = vertex
        while current is not None:
            path.append(current)
            current = current.parent
        return path

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(self, peer: int, frequency: float = 0.0, is_core: bool = False) -> TrieVertex:
        """Insert (or update) ``peer``; returns its leaf.

        Re-inserting an existing peer overwrites its frequency; the
        ``is_core`` flag is OR-ed so a queried core neighbor keeps both
        roles.
        """
        self.space.validate(peer, "peer id")
        if frequency < 0:
            raise ConfigurationError(f"frequency must be non-negative, got {frequency!r}")
        existing = self._leaves.get(peer)
        if existing is not None:
            existing.frequency = frequency
            existing.is_core = existing.is_core or is_core
            self._bubble_up(existing)
            return existing
        leaf = self._insert_new(peer)
        leaf.frequency = frequency
        leaf.is_core = is_core
        self._leaves[peer] = leaf
        self._bubble_up(leaf)
        return leaf

    def update_frequency(self, peer: int, frequency: float) -> None:
        """Set the access frequency of an existing peer (Section IV-C)."""
        if frequency < 0:
            raise ConfigurationError(f"frequency must be non-negative, got {frequency!r}")
        leaf = self._leaves[peer]
        leaf.frequency = frequency
        self._bubble_up(leaf)

    def add_frequency(self, peer: int, delta: float) -> None:
        """Add ``delta`` to the frequency of an existing peer."""
        leaf = self._leaves[peer]
        updated = leaf.frequency + delta
        if updated < 0:
            raise ConfigurationError(f"frequency for peer {peer} would become negative")
        leaf.frequency = updated
        self._bubble_up(leaf)

    def set_required(self, peer: int, max_distance: int) -> None:
        """Install the QoS constraint "``peer`` reachable within
        ``max_distance`` trie hops": the ancestor subtree of height
        ``max_distance`` containing the peer must hold a pointer
        (Section IV-D). ``max_distance = 0`` pins the leaf itself. A
        bound of ``bits`` hops or more marks nothing: with no pointer at
        all ``d(v, {}) = bits``, so the empty set already meets it.
        """
        if max_distance < 0:
            raise ConfigurationError(f"max_distance must be >= 0, got {max_distance}")
        leaf = self._leaves[peer]
        if max_distance >= self.space.bits:
            return
        threshold = self.space.bits - max_distance
        target = leaf
        # Pointer anywhere in an ancestor at depth >= threshold satisfies
        # the bound; the shallowest such ancestor's subtree contains all
        # deeper ones, so marking it captures the whole constraint.
        while target.parent is not None and target.parent.depth >= threshold:
            target = target.parent
        target.required = True
        self._notify(self.path_to_root(leaf))

    def clear_required(self) -> None:
        """Remove every QoS marker.

        Memo owners must rebuild their tables afterwards — this touches
        vertices on arbitrarily many paths, so no incremental notification
        is emitted.
        """
        for vertex in self.postorder():
            vertex.required = False

    def remove(self, peer: int) -> None:
        """Remove ``peer`` and re-compress the trie (Section IV-C)."""
        leaf = self._leaves.pop(peer)
        parent = leaf.parent
        bit = self.space.bit_at(peer, parent.depth)
        del parent.children[bit]
        if parent is not self.root and len(parent.children) == 1:
            # Splice out the now-unary vertex, merging its two edges.
            (survivor,) = parent.children.values()
            grandparent = parent.parent
            survivor.parent = grandparent
            grandparent.children[parent.bit_within_prefix(grandparent.depth)] = survivor
            # The merged subtree has the same leafset, so a QoS marker on
            # the spliced vertex migrates to the survivor.
            survivor.required = survivor.required or parent.required
            self._bubble_up(survivor)
        else:
            self._bubble_up(parent)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert_new(self, peer: int) -> TrieVertex:
        bits = self.space.bits
        current = self.root
        while True:
            bit = self.space.bit_at(peer, current.depth)
            child = current.children.get(bit)
            if child is None:
                leaf = TrieVertex(bits, peer, current)
                leaf.peer = peer
                current.children[bit] = leaf
                return leaf
            edge_bits = child.depth - current.depth
            mask = (1 << edge_bits) - 1
            id_segment = self.space.prefix(peer, child.depth) & mask
            child_segment = child.prefix & mask
            if id_segment == child_segment:
                if child.is_leaf:
                    raise ConfigurationError(f"peer {peer} already present")
                current = child
                continue
            # Split the compressed edge at the first disagreeing bit.
            agree = edge_bits - (id_segment ^ child_segment).bit_length()
            split_depth = current.depth + agree
            middle = TrieVertex(split_depth, self.space.prefix(peer, split_depth), current)
            current.children[bit] = middle
            child.parent = middle
            middle.children[child.bit_within_prefix(split_depth)] = child
            leaf = TrieVertex(bits, peer, middle)
            leaf.peer = peer
            middle.children[self.space.bit_at(peer, split_depth)] = leaf
            return leaf

    def _bubble_up(self, vertex: TrieVertex) -> None:
        path = self.path_to_root(vertex)
        for node in path:
            node.refresh_aggregates()
        self._notify(path)

    def _notify(self, path: list[TrieVertex]) -> None:
        if self.on_path_change is not None:
            self.on_path_change(path)
