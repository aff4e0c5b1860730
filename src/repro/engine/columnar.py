"""Columnar struct-of-arrays snapshots of frozen overlays.

A snapshot copies a *stable* overlay's routing state into flat NumPy
``int64`` arrays sized for cache-friendly batched gathers:

ColumnarChord
    ``ids``           (n,)    sorted live node ids — the ring.
    ``table_offsets`` (n+1,)  CSR row pointers into the merged tables.
    ``table_ids``     (E,)    each node's :class:`~repro.chord.routing.
                              RingTable` entries, ascending, verbatim —
                              the same array ``bisect_right`` walks.
    ``table_class``   (E,)    int8 pointer class per entry (strongest
                              claim: 0=core, 1=successor, 2=auxiliary,
                              3=unknown), matching ``ChordNode.pointer_class``.

ColumnarPastry
    ``ids``        (n,)          sorted live node ids.
    ``row_ptr``    (n, bits+1)   per-node per-prefix-row CSR pointers:
                                 the cell a key addresses is row
                                 ``lcp(node, key)`` (binary digits).
    ``nbr_ids``    (E,)          routing-table entries grouped by row.
    ``nbr_class``  (E,)          int8 (0=core, 1=leaf, 2=auxiliary).
    ``nbr_lat``    (E,)          proximity latency node->entry, float64.
    ``leaf_mat``   (n, Lmax)     leaf sets padded with the owner's own
                                 id (so a row min over ``(circ, id)`` is
                                 exactly ``min(leaves ∪ {self})``).
    plus per-node leaf-arc geometry (``covers_all``, ``arc_start``,
    ``span``, ``radius_max``, ``no_leaves``) precomputed once — the
    quantities the leaf stage of ``pastry.routing.next_hop`` reads.

Snapshots are verbatim: they copy whatever the object tables hold right
now, including (in verification scenarios) stale pointers to dead
nodes. The batched routers assume a fully-live frozen overlay — the
dispatch layer guarantees that for experiment cells, and the verify
integration only routes on all-alive scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.pastry.routing import leaf_geometry

__all__ = [
    "ColumnarChord",
    "ColumnarPastry",
    "snapshot_chord",
    "snapshot_pastry",
]

#: Pointer-class codes shared by both snapshots and the batch routers.
#: Chord: core > successor > auxiliary (``ChordNode.pointer_class``);
#: Pastry: core > leaf > auxiliary (``PastryNode.pointer_class``).
CHORD_CLASSES = ("core", "successor", "auxiliary", "unknown")
PASTRY_CLASSES = ("core", "leaf", "auxiliary")


@dataclass
class ColumnarChord:
    """Frozen Chord ring as flat arrays (see module docstring).

    ``hop_gaps``/``hop_pos``/``hop_class`` are the *dense hop tables*:
    the CSR entries re-laid-out as ``n x hop_width`` row-major matrices
    (stored flat), each row sorted ascending by clockwise gap from the
    owner and padded with a sentinel gap no real entry can reach. The
    object router's ``bisect_right`` + wrap + validity test is
    equivalent to "table entry with the largest gap(owner, entry) <=
    gap(owner, key), or terminate when none exists", so the whole
    frontier's next hop is a fixed ``log2(hop_width)``-step branchless
    binary search over these rows — each probe gathers from the lane's
    own (cache-resident) row instead of binary-searching a global
    array. ``hop_pos`` holds each entry's *position* in ``ids`` rather
    than its id, so advancing a lane is a gather, not another search.
    ``hop_width`` is one more than the longest row, so every row keeps
    at least one sentinel column; the search runs one branchless
    opening probe to cover the non-power-of-two remainder, then a fixed
    power-of-two halving schedule. Pad columns carry the sentinel gap
    but *duplicate* the row's max-gap entry in ``hop_pos`` /
    ``hop_class``, which makes every gathered slot well-defined. The
    tables are ``None`` when the sentinel cannot dominate real gaps
    (``bits >= 62``) or some row is empty; the router then falls back
    to per-row CSR binary search.
    """

    bits: int
    ids: np.ndarray
    table_offsets: np.ndarray
    table_ids: np.ndarray
    table_class: np.ndarray
    hop_width: int = 0
    hop_gaps: np.ndarray | None = None
    hop_pos: np.ndarray | None = None
    hop_class: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.ids.size)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def responsible(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized ring-predecessor oracle: ``ids[bisect_right(ids,
        key) - 1]`` with the same ``[-1]`` wrap as the object ring."""
        index = np.searchsorted(self.ids, keys, side="right") - 1
        return self.ids[index]  # index -1 wraps to the largest id


@dataclass
class ColumnarPastry:
    """Frozen Pastry network as flat arrays (see module docstring)."""

    bits: int
    ids: np.ndarray
    row_ptr: np.ndarray
    nbr_ids: np.ndarray
    nbr_class: np.ndarray
    nbr_lat: np.ndarray
    leaf_mat: np.ndarray
    no_leaves: np.ndarray
    covers_all: np.ndarray
    arc_start: np.ndarray
    span: np.ndarray
    radius_max: np.ndarray

    @property
    def n(self) -> int:
        return int(self.ids.size)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @property
    def size(self) -> int:
        return 1 << self.bits

    def responsible(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized numerically-closest oracle, lower id on ties —
        the same two-candidate bisect the object network uses."""
        n = self.n
        index = np.searchsorted(self.ids, keys, side="left")
        above = self.ids[index % n]
        below = self.ids[index - 1]  # index 0 wraps to the largest id
        return _closer_on_ring(self.size, keys, above, below)


def _closer_on_ring(size: int, keys: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-lane ``min((circ(c, key), c) for c in (a, b))``."""
    mask = size - 1
    ga = (keys - a) & mask
    da = np.minimum(ga, size - ga)
    gb = (keys - b) & mask
    db = np.minimum(gb, size - gb)
    take_b = (db < da) | ((db == da) & (b < a))
    return np.where(take_b, b, a)


def _attach_hop_tables(snapshot: ColumnarChord) -> ColumnarChord:
    """Fill the dense gap-sorted hop tables in place (see ColumnarChord).

    Entries are grouped per row and sorted ascending by gap via one
    global ``(row, gap)`` lexsort; each row then lands in its matrix row
    left-aligned. ``hop_width`` is ``max_count + 1``, so every row keeps
    at least one pad column. Pad columns carry the dtype's maximum gap
    while duplicating the row's *last real entry's* position and class:
    for any ``gap(owner, key)`` below the pad value the search count is
    exact, and in the one collision case (``bits == 32``, uint32 gaps,
    key exactly one step counter-clockwise of the owner) the overcount
    lands on a pad that forwards to the same node the true maximum-gap
    entry would. Gaps are in ``[1, 2**bits)`` (entries never equal
    their owner), so a zero count means "no valid next hop" exactly
    like the object table's ``None``. Rows are stored as uint32 when
    gaps fit (bits <= 32) — halving probe bandwidth — and int64
    otherwise; positions are int32 (a ring index always fits).

    Rings with an empty table row (only the single-node ring, which has
    no successor) keep ``hop_gaps`` as ``None`` and use the CSR
    fallback, as do id spaces whose gaps would collide with the int64
    pad value (``bits >= 62``).
    """
    n = snapshot.n
    counts = np.diff(snapshot.table_offsets)
    if n == 0 or snapshot.bits >= 62 or int(counts.min()) == 0:
        return snapshot
    width = int(counts.max()) + 1
    row = np.repeat(np.arange(n, dtype=np.int64), counts)
    col = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        snapshot.table_offsets[:-1], counts
    )
    owner = np.repeat(snapshot.ids, counts)
    gap = (snapshot.table_ids - owner) & snapshot.mask
    order = np.lexsort((gap, row))
    slot = row * width + col  # CSR order == (row, within-row rank) order
    gap_dtype = np.uint32 if snapshot.bits <= 32 else np.int64
    gaps_mat = np.full(n * width, np.iinfo(gap_dtype).max, dtype=gap_dtype)
    gaps_mat[slot] = gap[order].astype(gap_dtype)
    # Entries are live node ids, so their ring positions are exact.
    pos_sorted = np.searchsorted(snapshot.ids, snapshot.table_ids[order]).astype(np.int32)
    class_sorted = snapshot.table_class[order]
    row_end = snapshot.table_offsets[1:] - 1  # each row's max-gap entry
    pos_mat = np.repeat(pos_sorted[row_end], width)
    pos_mat[slot] = pos_sorted
    class_mat = np.repeat(class_sorted[row_end], width)
    class_mat[slot] = class_sorted
    snapshot.hop_width = width
    snapshot.hop_gaps = gaps_mat
    snapshot.hop_pos = pos_mat
    snapshot.hop_class = class_mat
    return snapshot


# ----------------------------------------------------------------------
# Snapshots from live overlays
# ----------------------------------------------------------------------


def snapshot_chord(ring) -> ColumnarChord:
    """Materialize a :class:`ColumnarChord` from a live ring, verbatim."""
    alive = ring.alive_ids()
    ids = np.asarray(alive, dtype=np.int64)
    offsets = np.zeros(len(alive) + 1, dtype=np.int64)
    chunks: list[list[int]] = []
    classes: list[np.ndarray] = []
    for position, node_id in enumerate(alive):
        node = ring.node(node_id)
        entries = node.table.entries()  # ascending, the bisect target
        offsets[position + 1] = offsets[position] + len(entries)
        chunks.append(entries)
        row = np.full(len(entries), 3, dtype=np.int8)
        for index, entry in enumerate(entries):
            if entry in node.core:
                row[index] = 0
            elif entry in node.successors:
                row[index] = 1
            elif entry in node.auxiliary:
                row[index] = 2
        classes.append(row)
    table_ids = (
        np.concatenate([np.asarray(chunk, dtype=np.int64) for chunk in chunks])
        if offsets[-1]
        else np.empty(0, dtype=np.int64)
    )
    table_class = (
        np.concatenate(classes) if offsets[-1] else np.empty(0, dtype=np.int8)
    )
    return _attach_hop_tables(
        ColumnarChord(
            bits=ring.space.bits,
            ids=ids,
            table_offsets=offsets,
            table_ids=table_ids,
            table_class=table_class,
        )
    )


def snapshot_pastry(network) -> ColumnarPastry:
    """Materialize a :class:`ColumnarPastry` from a live network.

    Only the binary-digit configuration (``digit_bits == 1``, the
    default everywhere) is snapshot-able: with one bit per digit the
    cell a key addresses collapses to "all neighbors at prefix row
    ``lcp(node, key)``", which is what ``row_ptr`` indexes.
    """
    if network.digit_bits != 1:
        raise ValueError(
            f"columnar pastry requires digit_bits=1, got {network.digit_bits}"
        )
    bits = network.space.bits
    alive = network.alive_ids()
    n = len(alive)
    ids = np.asarray(alive, dtype=np.int64)

    row_ptr = np.zeros((n, bits + 1), dtype=np.int64)
    nbr_chunks: list[int] = []
    class_chunks: list[int] = []
    lat_chunks: list[float] = []
    leaf_rows: list[list[int]] = []
    no_leaves = np.zeros(n, dtype=bool)
    covers_all = np.zeros(n, dtype=bool)
    arc_start = np.zeros(n, dtype=np.int64)
    span = np.zeros(n, dtype=np.int64)
    radius_max = np.zeros(n, dtype=np.int64)

    coordinates = network.proximity.coordinates
    hypot = math.hypot
    total = 0
    for position, node_id in enumerate(alive):
        node = network.node(node_id)
        # Group the routing-cell entries by prefix row. With binary
        # digits each (row, digit) cell is the only cell at its row.
        per_row: dict[int, list[int]] = {}
        for (row, __), bucket in node.cells.items():
            per_row.setdefault(row, []).extend(sorted(bucket))
        counts = row_ptr[position]
        counts[0] = total
        # ProximityModel.latency, with the node's coordinates read once.
        x, y = coordinates(node_id)
        for row in range(bits):
            entries = per_row.get(row, ())
            for entry in entries:
                nbr_chunks.append(entry)
                if entry in node.core:
                    class_chunks.append(0)
                elif entry in node.leaves:
                    class_chunks.append(1)
                else:
                    class_chunks.append(2)
                cx, cy = coordinates(entry)
                lat_chunks.append(hypot(x - cx, y - cy))
            total += len(entries)
            counts[row + 1] = total

        # The leaf stage's geometry, as pastry.routing.next_hop reads it.
        if not node.leaves:
            no_leaves[position] = True
            leaf_rows.append([])
            continue
        covers, start, arc, known, radius = leaf_geometry(network, node)
        leaf_rows.append(known[:-1])  # the sorted leaves, without self
        span[position] = arc
        covers_all[position] = covers
        arc_start[position] = start
        radius_max[position] = radius

    # Width lmax + 1: even a full row keeps one own-id padding column, so
    # the row min ranges over ``leaves ∪ {self}`` exactly.
    lmax = max((len(row) for row in leaf_rows), default=0)
    leaf_mat = np.repeat(ids[:, None], lmax + 1, axis=1)
    for position, row in enumerate(leaf_rows):
        if row:
            leaf_mat[position, : len(row)] = row

    return ColumnarPastry(
        bits=bits,
        ids=ids,
        row_ptr=row_ptr,
        nbr_ids=np.asarray(nbr_chunks, dtype=np.int64),
        nbr_class=np.asarray(class_chunks, dtype=np.int8),
        nbr_lat=np.asarray(lat_chunks, dtype=np.float64),
        leaf_mat=leaf_mat,
        no_leaves=no_leaves,
        covers_all=covers_all,
        arc_start=arc_start,
        span=span,
        radius_max=radius_max,
    )

