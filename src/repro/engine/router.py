"""Batched frontier routers over columnar snapshots.

Both routers advance a whole batch of in-flight lookups one hop per
vectorized step: gather each active lane's next-hop decision from the
CSR tables, terminate the lanes whose current node believes itself the
destination, advance the rest, repeat until the frontier drains.

The per-lane decision rules replicate the object routers operation for
operation (on the fully-live frozen overlays the dispatch layer
guarantees):

* Chord (:func:`batch_route_chord`): next hop = the table's
  ring-predecessor of the key (``bisect_right`` with the ``[-1]``
  wrap), valid iff its clockwise gap from the owner is in
  ``(0, gap(owner, key)]``; no valid entry terminates the lookup, which
  succeeds iff the current node is the ring's responsible node.
* Pastry (:func:`batch_route_pastry`): per hop, in order — leaf-set
  delivery (arc-coverage test, then numerically-closest of
  ``leaves ∪ {self}``), best routing-cell candidate (greedy or
  proximity ranking), then the numerically-closer-neighbor fallback.

Hop budgets match the object routers: a lane whose hop count exceeds
``4 * bits`` at the top of a step fails with the accumulated count —
the same ``hops = limit + 1`` a stranded object lookup reports.

Termination is guaranteed on any input: every step either terminates a
lane or advances it, and the hop-budget check fails any lane that is
still in flight after ``limit`` forwards, so the frontier drains in at
most ``limit + 2`` steps.

:meth:`BatchRouteResult.fold_into` folds a batch into
:class:`~repro.sim.metrics.HopStatistics`, each lane weighted by the
number of queries it stands for, with exact integer sums (all addends
are small integers, exact in float64), producing an accumulator
bit-identical to recording the object results one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.columnar import ColumnarChord, ColumnarPastry
from repro.routing import LookupResult

__all__ = ["BatchRouteResult", "batch_route_chord", "batch_route_pastry"]

#: Per-hop pointer-class labels, indexed by the int8 codes the snapshot
#: and the routers use. "leaf" covers both leaf-delivery forwards and
#: candidate forwards resolved by a leaf entry, exactly like the object
#: tracer's attribution.
CHORD_CLASS_NAMES = ("core", "successor", "auxiliary", "unknown")
PASTRY_CLASS_NAMES = ("core", "leaf", "auxiliary", "fallback")


@dataclass
class BatchRouteResult:
    """Outcome arrays for one batch of lookups (lane order = query order).

    ``destinations`` holds ``-1`` where the object router would report
    ``None`` (failed lookups). ``paths``/``path_classes`` are only
    materialized under ``record_paths`` (equivalence tests): ``paths``
    row ``i`` is the visited-id sequence padded with ``-1``;
    ``path_classes`` row ``i`` the per-forward pointer-class codes.
    """

    hops: np.ndarray
    succeeded: np.ndarray
    destinations: np.ndarray
    hops_by_class: dict[str, int]
    paths: np.ndarray | None = None
    path_classes: np.ndarray | None = None

    def fold_into(self, stats, counts) -> None:
        """Fold the batch into a :class:`~repro.sim.metrics.HopStatistics`
        exactly as ``stats.record(result, count)`` per lane would, where
        ``counts[i]`` is how many queries lane ``i`` stands for (timeouts
        and penalties are structurally zero on the frozen overlay)."""
        counts = np.asarray(counts, dtype=np.int64)
        ok = self.succeeded
        total = int(counts.sum())
        successes = int(counts[ok].sum())
        stats.lookups += total
        stats.failures += total - successes
        stats.successes += successes
        winning = self.hops[ok]
        weights = counts[ok]
        hop_sum = int((winning * weights).sum())
        stats.total_hops += hop_sum
        # latency == hops for every clean lookup; the sums are integer
        # totals well below 2**53, so these float adds are exact.
        stats._sum_latency += float(hop_sum)
        stats._sum_latency_sq += float((winning * winning * weights).sum())
        if stats.keep_samples:
            stats.per_lookup.extend(int(value) for value in np.repeat(winning, weights))

    def lane_path(self, lane: int) -> list[int]:
        """The visited ids of one lane (requires ``record_paths``)."""
        row = self.paths[lane]
        return [int(value) for value in row[row >= 0]]

    def lane_result(self, lane: int, source: int, key: int) -> LookupResult:
        """One lane as the object router's result for the lane's query
        ``(source, key)`` (requires ``record_paths``)."""
        destination = int(self.destinations[lane])
        return LookupResult(
            key=int(key),
            source=int(source),
            destination=destination if destination >= 0 else None,
            hops=int(self.hops[lane]),
            succeeded=bool(self.succeeded[lane]),
            path=self.lane_path(lane),
        )

    def lane_classes(self, lane: int, overlay: str) -> list[str]:
        """Pointer-class labels of one lane's forwards (requires
        ``record_paths``)."""
        names = CHORD_CLASS_NAMES if overlay == "chord" else PASTRY_CLASS_NAMES
        row = self.path_classes[lane]
        return [names[int(code)] for code in row[row >= 0]]


def _as_lane_indices(ids: np.ndarray, node_ids) -> np.ndarray:
    """Map live node ids to their positions in the sorted id array.

    Large batches run the binary searches in query-sorted order — the
    monotone descent path stays cache-resident, which measures ~4x
    faster than random-order probes — and scatter the results back.
    """
    arr = np.asarray(node_ids, dtype=np.int64)
    if arr.size < 1024:
        return np.searchsorted(ids, arr)
    order = np.argsort(arr)
    out = np.empty(arr.size, dtype=np.int64)
    out[order] = np.searchsorted(ids, arr.take(order))
    return out


# ----------------------------------------------------------------------
# Chord
# ----------------------------------------------------------------------


def batch_route_chord(
    snapshot: ColumnarChord,
    sources,
    keys,
    max_hops: int | None = None,
    record_paths: bool = False,
) -> BatchRouteResult:
    """Route a batch of ``(source, key)`` lookups over a frozen ring."""
    ids = snapshot.ids
    offsets = snapshot.table_offsets
    mask = snapshot.mask
    limit = max_hops if max_hops is not None else 4 * snapshot.bits
    # Guarded gather target: lanes masked out still index *something*.
    table_ids = snapshot.table_ids if snapshot.table_ids.size else np.zeros(1, np.int64)
    table_class = (
        snapshot.table_class if snapshot.table_class.size else np.zeros(1, np.int8)
    )

    all_keys = np.asarray(keys, dtype=np.int64)
    lanes_total = all_keys.size

    hops = np.zeros(lanes_total, dtype=np.int64)
    succeeded = np.zeros(lanes_total, dtype=bool)
    destinations = np.full(lanes_total, -1, dtype=np.int64)
    taken: list[np.ndarray] = []  # chosen positions; classes binned once at the end
    paths = path_classes = None

    dense = snapshot.hop_gaps is not None
    if dense:
        width = snapshot.hop_width
        hop_gaps = snapshot.hop_gaps
        top = 1 << (width.bit_length() - 1)  # largest power of two <= width
        # Gap arithmetic runs in the table's own dtype (uint32 when the
        # id space fits): subtraction wraps mod 2**32 and the mask then
        # yields gap(owner, key) mod 2**bits exactly as int64 would,
        # while halving gather bandwidth and skipping per-step casts.
        ids_gap = snapshot.ids.astype(hop_gaps.dtype, copy=False)
        gap_mask = hop_gaps.dtype.type(mask)
        # When the id space fills the dtype (bits == 32), wrap-around
        # subtraction alone already reduces mod 2**bits.
        needs_mask = int(gap_mask) != np.iinfo(hop_gaps.dtype).max

    # The frontier is kept *compacted*: ``lane`` maps each slot back to
    # the caller's lane, and finishing lanes are filtered out instead of
    # masked, so every step touches only in-flight lookups. Slots sit in
    # key order — the keyed fast path funnels every hop through one
    # global searchsorted, and clustered probe keys roughly triple its
    # throughput (cache-friendly binary-search descent).
    # Unstable introsort: lanes with equal keys route identically, so
    # their relative order cannot affect any per-lane output, and the
    # default sort runs several times faster than a stable one.
    lane = np.argsort(all_keys)
    key = all_keys[lane]
    cur = _as_lane_indices(ids, sources)[lane]
    resp = snapshot.responsible(key)
    if dense:
        key_gap = key.astype(hop_gaps.dtype, copy=False)
    if record_paths:
        paths = np.full((lanes_total, limit + 2), -1, dtype=np.int64)
        paths[lane, 0] = ids[cur]
        path_classes = np.full((lanes_total, limit + 1), -1, dtype=np.int8)

    # Every in-flight slot advances exactly once per step, so a lane
    # finishing at step ``s`` made ``s - 1`` hops — no per-lane counter.
    step = 0
    while lane.size:
        step += 1
        if step > limit + 1:
            # Hop budget exhausted (the object router's loop-top check):
            # survivors keep their accumulated ``limit + 1`` hops and fail.
            hops[lane] = limit + 1
            break
        if dense:
            # Dense fast path: a fixed ceil(log2(hop_width))-step
            # branchless binary search advances, per lane, a running
            # index ``pos`` past the row entries whose gap stays at or
            # below gap(owner, key); the entry before ``pos`` is the
            # next hop and ``pos == base`` means termination (see
            # ColumnarChord). Probes gather from each lane's own row, so
            # they stay cache-resident instead of walking a global
            # array, and they compare in the table's own dtype (one
            # lane-sized cast per step instead of upcasting every
            # gathered probe). The opening probe folds the
            # non-power-of-two remainder (width - top) so the plain
            # halving schedule covers any row width.
            threshold = key_gap - ids_gap[cur]
            if needs_mask:
                threshold &= gap_mask
            base = cur * np.int64(width)
            if top < width:
                pos = base + (hop_gaps[base + (top - 1)] <= threshold) * np.int64(
                    width - top
                )
            else:
                pos = base.copy()
            half = top >> 1
            while half:
                pos += half * (hop_gaps[pos + (half - 1)] <= threshold)
                half >>= 1
            valid = pos > base
            # pos == base means "no valid entry"; the subtraction to the
            # chosen entry's slot happens after compaction so finished
            # lanes never cost a pass and never get dereferenced.
            position = pos
        else:
            # Fallback: per-row vectorized bisect_right over each lane's
            # table slice (single-node ring or bits too wide for the
            # dense pad value).
            owner = ids[cur]
            gap_to_key = (key - owner) & mask
            row_start = offsets[cur]
            row_end = offsets[cur + 1]
            lo = row_start.copy()
            hi = row_end.copy()
            open_ = lo < hi
            while open_.any():
                mid = (lo + hi) >> 1
                vals = table_ids[np.where(open_, mid, 0)]
                go_right = open_ & (vals <= key)
                lo = np.where(go_right, mid + 1, lo)
                hi = np.where(open_ & ~go_right, mid, hi)
                open_ = lo < hi
            index = lo - 1
            empty = row_end == row_start
            index = np.where(index < row_start, row_end - 1, index)  # the [-1] wrap
            position = np.where(empty, 0, index)
            candidate = table_ids[position]
            gap_to_candidate = (candidate - owner) & mask
            valid = ~empty & (gap_to_candidate > 0) & (gap_to_candidate <= gap_to_key)

        if not valid.all():
            # Terminating lanes: the owner believes it is the key's
            # predecessor; it wins iff that matches the ring ground
            # truth. Integer take/compaction beats boolean masks here:
            # one nonzero scan feeds every gather instead of each mask
            # op re-counting the selection.
            keep = np.flatnonzero(valid)
            done = np.flatnonzero(~valid)
            lane_done = lane.take(done)
            owner_done = ids[cur.take(done)] if dense else owner.take(done)
            won = owner_done == resp.take(done)
            succeeded[lane_done] = won
            destinations[lane_done] = np.where(won, owner_done, -1)
            hops[lane_done] = step - 1
            lane = lane.take(keep)
            if dense:
                key_gap = key_gap.take(keep)
            else:
                key = key.take(keep)
            resp = resp.take(keep)
            position = position.take(keep)
            if not lane.size:
                break
        if dense:
            position = position - 1
            cur = snapshot.hop_pos[position]
        else:
            cur = np.searchsorted(ids, table_ids[position])
        taken.append(position)
        if record_paths:
            paths[lane, step] = ids[cur]
            class_source = snapshot.hop_class if dense else table_class
            path_classes[lane, step - 1] = class_source[position]

    if taken:
        class_source = snapshot.hop_class if dense else table_class
        class_counts = np.bincount(
            class_source[np.concatenate(taken)], minlength=4
        )
    else:
        class_counts = np.zeros(4, dtype=np.int64)

    return BatchRouteResult(
        hops=hops,
        succeeded=succeeded,
        destinations=destinations,
        hops_by_class={
            name: int(count)
            for name, count in zip(CHORD_CLASS_NAMES, class_counts)
            if count
        },
        paths=paths,
        path_classes=path_classes,
    )


# ----------------------------------------------------------------------
# Pastry
# ----------------------------------------------------------------------

_LEAF_CODE = 1
_FALLBACK_CODE = 3


def batch_route_pastry(
    snapshot: ColumnarPastry,
    sources,
    keys,
    mode: str = "proximity",
    max_hops: int | None = None,
    record_paths: bool = False,
) -> BatchRouteResult:
    """Route a batch of ``(source, key)`` lookups over a frozen network."""
    if mode not in ("greedy", "proximity"):
        raise ValueError(f"unknown routing mode {mode!r}")
    ids = snapshot.ids
    bits = snapshot.bits
    mask = snapshot.mask
    size = snapshot.size
    limit = max_hops if max_hops is not None else 4 * bits
    nbr_ids = snapshot.nbr_ids if snapshot.nbr_ids.size else np.zeros(1, np.int64)
    nbr_class = snapshot.nbr_class if snapshot.nbr_class.size else np.zeros(1, np.int8)
    nbr_lat = snapshot.nbr_lat if snapshot.nbr_lat.size else np.zeros(1, np.float64)

    keys = np.asarray(keys, dtype=np.int64)
    cur = _as_lane_indices(ids, sources)
    lanes_total = cur.size
    responsible = snapshot.responsible(keys)

    hops = np.zeros(lanes_total, dtype=np.int64)
    succeeded = np.zeros(lanes_total, dtype=bool)
    destinations = np.full(lanes_total, -1, dtype=np.int64)
    class_counts = np.zeros(4, dtype=np.int64)
    paths = path_classes = None
    if record_paths:
        paths = np.full((lanes_total, limit + 2), -1, dtype=np.int64)
        paths[:, 0] = ids[cur]
        path_classes = np.full((lanes_total, limit + 1), -1, dtype=np.int8)

    def circ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        gap = (b - a) & mask
        return np.minimum(gap, size - gap)

    def finish(lanes: np.ndarray) -> None:
        owner_done = ids[cur[lanes]]
        won = owner_done == responsible[lanes]
        succeeded[lanes] = won
        destinations[lanes] = np.where(won, owner_done, -1)

    def forward(lanes: np.ndarray, targets: np.ndarray, codes: np.ndarray) -> None:
        nonlocal class_counts
        class_counts = class_counts + np.bincount(codes, minlength=4)
        hops[lanes] += 1
        cur[lanes] = np.searchsorted(ids, targets)
        if record_paths:
            paths[lanes, hops[lanes]] = targets
            path_classes[lanes, hops[lanes] - 1] = codes

    active = np.arange(lanes_total, dtype=np.int64)
    while active.size:
        overrun = hops[active] > limit
        if overrun.any():
            active = active[~overrun]
            if not active.size:
                break
        advanced: list[np.ndarray] = []

        # --- Stage 1: leaf-set delivery -------------------------------
        cur_a = cur[active]
        key_a = keys[active]
        own = ids[cur_a]
        isolated = snapshot.no_leaves[cur_a]
        if isolated.any():
            finish(active[isolated])  # deliver locally, as the object router
        considered = active[~isolated]
        if considered.size:
            cur_c = cur[considered]
            key_c = keys[considered]
            arc_gap = (key_c - snapshot.arc_start[cur_c]) & mask
            covered = snapshot.covers_all[cur_c] | (arc_gap <= snapshot.span[cur_c])
            deliver = considered[covered]
            if deliver.size:
                rows = snapshot.leaf_mat[cur[deliver]]
                key_d = keys[deliver][:, None]
                distance = circ(rows, key_d)
                closest = distance.min(axis=1)
                # Lexicographic (circ, id) min: among the closest columns
                # take the smallest id; padding columns repeat the owner.
                tied = np.where(distance == closest[:, None], rows, size)
                target = tied.min(axis=1)
                own_d = ids[cur[deliver]]
                at_self = target == own_d
                if at_self.any():
                    finish(deliver[at_self])
                moving = deliver[~at_self]
                if moving.size:
                    forward(
                        moving,
                        target[~at_self],
                        np.full(moving.size, _LEAF_CODE, dtype=np.int8),
                    )
                    advanced.append(moving)
            remaining = considered[~covered]
        else:
            remaining = considered

        # --- Stage 2: routing-cell candidates -------------------------
        if remaining.size:
            cur_r = cur[remaining]
            key_r = keys[remaining]
            own_r = ids[cur_r]
            # key != own here: an uncovered lane cannot sit on its key
            # (the arc always contains the node itself), so the xor is
            # nonzero and the prefix row well-defined.
            xor = own_r ^ key_r
            bit_length = np.frexp(xor.astype(np.float64))[1]
            row = np.int64(bits) - bit_length
            starts = snapshot.row_ptr[cur_r, row]
            ends = snapshot.row_ptr[cur_r, row + 1]
            lens = ends - starts
            with_candidates = lens > 0
            chooser = remaining[with_candidates]
            if chooser.size:
                starts_c = starts[with_candidates]
                lens_c = lens[with_candidates]
                key_c2 = key_r[with_candidates]
                best_rank = np.full(chooser.size, np.iinfo(np.int64).max, np.int64)
                best_metric = np.full(chooser.size, np.inf, np.float64)
                best_id = np.full(chooser.size, size, np.int64)
                best_entry = np.zeros(chooser.size, np.int64)
                radius = snapshot.radius_max[cur[chooser]]
                for offset in range(int(lens_c.max())):
                    has = offset < lens_c
                    entry = np.where(has, starts_c + offset, 0)
                    cand = nbr_ids[entry]
                    numeric = circ(cand, key_c2)
                    if mode == "greedy":
                        cand_xor = cand ^ key_c2
                        cand_lcp = np.int64(bits) - np.where(
                            cand_xor == 0,
                            np.int64(0),
                            np.frexp(cand_xor.astype(np.float64))[1].astype(np.int64),
                        )
                        rank = -cand_lcp
                        metric = numeric.astype(np.float64)
                    else:
                        inside = numeric <= radius
                        rank = np.where(inside, np.int64(0), np.int64(1))
                        metric = np.where(
                            inside, numeric.astype(np.float64), nbr_lat[entry]
                        )
                    better = has & (
                        (rank < best_rank)
                        | (
                            (rank == best_rank)
                            & ((metric < best_metric) | ((metric == best_metric) & (cand < best_id)))
                        )
                    )
                    best_rank = np.where(better, rank, best_rank)
                    best_metric = np.where(better, metric, best_metric)
                    best_id = np.where(better, cand, best_id)
                    best_entry = np.where(better, entry, best_entry)
                forward(chooser, best_id, nbr_class[best_entry])
                advanced.append(chooser)
            remaining = remaining[~with_candidates]

        # --- Stage 3: numerically-closer fallback ---------------------
        if remaining.size:
            cur_f = cur[remaining]
            key_f = keys[remaining]
            own_f = ids[cur_f]
            starts = snapshot.row_ptr[cur_f, 0]
            ends = snapshot.row_ptr[cur_f, bits]
            lens = ends - starts
            best_distance = circ(own_f, key_f)
            best_id = np.full(remaining.size, -1, np.int64)
            max_len = int(lens.max()) if lens.size else 0
            for offset in range(max_len):
                has = offset < lens
                entry = np.where(has, starts + offset, 0)
                cand = nbr_ids[entry]
                distance = circ(cand, key_f)
                update = has & (
                    (distance < best_distance)
                    | ((distance == best_distance) & (best_id >= 0) & (cand < best_id))
                )
                best_distance = np.where(update, distance, best_distance)
                best_id = np.where(update, cand, best_id)
            stuck = best_id < 0
            if stuck.any():
                finish(remaining[stuck])
            moving = remaining[~stuck]
            if moving.size:
                forward(
                    moving,
                    best_id[~stuck],
                    np.full(moving.size, _FALLBACK_CODE, dtype=np.int8),
                )
                advanced.append(moving)

        active = (
            np.sort(np.concatenate(advanced)) if advanced else np.empty(0, np.int64)
        )

    return BatchRouteResult(
        hops=hops,
        succeeded=succeeded,
        destinations=destinations,
        hops_by_class={
            name: int(count)
            for name, count in zip(PASTRY_CLASS_NAMES, class_counts)
            if count
        },
        paths=paths,
        path_classes=path_classes,
    )
