"""Access-frequency tracking for observed destination peers.

Section III of the paper notes that each node can maintain per-peer access
frequencies "based on past history of accesses within a time window", and
that when the number of accessed nodes is large, a node may instead keep
the top-``n`` most frequent peers using standard streaming algorithms
(reference [3]).

This module provides three interchangeable trackers:

* :class:`ExactFrequencyTable` — a plain counter, optionally bounded by a
  sliding window of the most recent observations.
* :class:`SpaceSavingSketch` — the Space-Saving algorithm (Metwally,
  Agrawal, El Abbadi 2005): ``n`` counters, deterministic over-estimates
  with error at most ``N / n``.
* :class:`LossyCountingSketch` — Manku & Motwani's Lossy Counting with
  bucket-based pruning.

All trackers expose the same small interface (:class:`FrequencyTracker`):
``observe(peer, weight)`` and ``snapshot(limit)`` returning a
``{peer: estimated_frequency}`` mapping suitable for building a
:class:`repro.core.types.SelectionProblem`. A truncated snapshot keeps
the ``limit`` largest estimates, ties broken by the lower peer id;
:func:`snapshot_order` gives that order for a whole distribution.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterable, Mapping, Protocol

from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive_int

__all__ = [
    "FrequencyTracker",
    "ExactFrequencyTable",
    "SpaceSavingSketch",
    "LossyCountingSketch",
    "snapshot_order",
]

_INF = float("inf")


class FrequencyTracker(Protocol):
    """Protocol implemented by all frequency trackers."""

    def observe(self, peer: int, weight: float = 1.0) -> None:
        """Record that a query was answered by ``peer``."""
        ...

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        """Return the current ``{peer: frequency}`` estimates.

        ``limit`` keeps only the ``limit`` most frequent peers (ties broken
        by peer id for determinism).
        """
        ...


def _weight_error(weight: float) -> ConfigurationError:
    return ConfigurationError(f"weight must be a finite non-negative number, got {weight!r}")


def _rank(estimates: Mapping[int, float]) -> list[int]:
    """The peers of ``estimates`` by descending estimate, ties by ascending
    id: the order of ``heapq.nlargest`` with key ``(estimate, -peer)``,
    from two C sorts (the second is stable, so equal estimates keep the
    first's ascending ids)."""
    order = sorted(estimates)
    order.sort(key=estimates.__getitem__, reverse=True)
    return order


def _top_items(estimates: Mapping[int, float], limit: int | None) -> dict[int, float]:
    """Keep the ``limit`` highest-frequency entries (deterministic tie-break)."""
    if limit is None or len(estimates) <= limit:
        return dict(estimates)
    return {peer: estimates[peer] for peer in _rank(estimates)[: max(limit, 0)]}


def snapshot_order(weights: Mapping[int, float]) -> list[int]:
    """The peers of ``weights`` in the order an :class:`ExactFrequencyTable`
    holding them ranks its snapshot: descending ``float(weight)`` (so
    counts above 2**53 tie as their snapshot values do), ties by
    ascending id. Ranking a distribution shared by many nodes once lets
    each node's :meth:`ExactFrequencyTable.seeded` table inherit it."""
    return _rank({peer: float(weight) for peer, weight in weights.items()})


class ExactFrequencyTable:
    """Exact per-peer counts, optionally over a sliding observation window.

    Parameters
    ----------
    window:
        When given, only the most recent ``window`` observations contribute;
        older ones are evicted FIFO. ``None`` keeps everything. A window
        models the paper's "past history of accesses within a time window".
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None:
            require_positive_int(window, "window")
        self.window = window
        self._counts: Counter[int] = Counter()
        self._history: deque[tuple[int, float]] = deque()
        self._total = 0.0
        #: The peers in snapshot order (:func:`snapshot_order`), ranked at
        #: the first truncated snapshot and kept until the next
        #: :meth:`observe` or :meth:`forget`.
        self._order: list[int] | None = None

    @classmethod
    def seeded(
        cls, weights: Mapping[int, float], owner: int, order: list[int] | None = None
    ) -> "ExactFrequencyTable":
        """A table pre-loaded with a destination distribution: each peer
        other than ``owner`` with positive weight, observed at that weight
        (stable-mode experiments hand every node its long-run
        distribution directly instead of learning it). A NaN or infinite
        weight raises :class:`ConfigurationError`.

        ``order``, when given, is ``snapshot_order(weights)``: the table
        keeps the part of it that it holds instead of ranking its peers
        again, so many nodes seeded from one distribution rank it once.
        """
        values = weights.values()
        if not -_INF < sum(values) < _INF:
            # A NaN or infinite weight, or finite ones whose sum overflows.
            for weight in values:
                if not -_INF < weight < _INF:
                    raise _weight_error(weight)
        counts = {peer: weight for peer, weight in weights.items() if peer != owner and weight > 0}
        total = 0.0
        for weight in counts.values():  # observe's left-to-right sum, not sum()
            total += weight
        table = cls()
        table._counts = Counter(counts)
        table._total = total
        if order is not None:
            kept = [peer for peer in order if peer in counts]
            if len(kept) != len(counts):
                raise ConfigurationError("order must rank every peer of weights")
            table._order = kept
        return table

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if not 0 <= weight < _INF:
            raise _weight_error(weight)
        self._order = None
        self._counts[peer] += weight
        self._total += weight
        if self.window is not None:
            self._history.append((peer, weight))
            while len(self._history) > self.window:
                old_peer, old_weight = self._history.popleft()
                self._counts[old_peer] -= old_weight
                self._total -= old_weight
                if self._counts[old_peer] <= 0:
                    del self._counts[old_peer]

    def observe_many(self, peers: Iterable[int]) -> None:
        """Record a unit observation for each peer in ``peers``."""
        for peer in peers:
            self.observe(peer)

    def forget(self, peer: int) -> None:
        """Drop all state for ``peer`` (e.g. after it leaves the overlay)."""
        self._order = None
        removed = self._counts.pop(peer, 0.0)
        self._total -= removed
        if self.window is not None and removed:
            self._history = deque(entry for entry in self._history if entry[0] != peer)

    @property
    def total(self) -> float:
        """Total observed weight currently inside the window."""
        return self._total

    def frequency(self, peer: int) -> float:
        """Current count for ``peer`` (0.0 when unseen)."""
        return float(self._counts.get(peer, 0.0))

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        counts = self._counts
        if limit is None or len(counts) <= limit:
            return {peer: float(count) for peer, count in counts.items()}
        if self._order is None:
            self._order = snapshot_order(counts)
        return {peer: float(counts[peer]) for peer in self._order[: max(limit, 0)]}

    def __len__(self) -> int:
        return len(self._counts)


class SpaceSavingSketch:
    """Space-Saving top-``n`` frequency estimation.

    Maintains at most ``capacity`` monitored peers. When a new peer arrives
    at full capacity, the peer with the minimum counter is replaced and the
    newcomer inherits that minimum as its error bound. Estimated counts
    over-estimate true counts by at most ``total / capacity``.
    """

    def __init__(self, capacity: int) -> None:
        require_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}
        self._total = 0.0

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if not 0 <= weight < _INF:
            raise _weight_error(weight)
        self._total += weight
        if peer in self._counts:
            self._counts[peer] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[peer] = weight
            self._errors[peer] = 0.0
            return
        victim = min(self._counts, key=lambda p: (self._counts[p], p))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[peer] = floor + weight
        self._errors[peer] = floor

    def forget(self, peer: int) -> None:
        """Stop monitoring ``peer`` entirely."""
        self._counts.pop(peer, None)
        self._errors.pop(peer, None)

    @property
    def total(self) -> float:
        """Total observed weight (including weight attributed to evicted peers)."""
        return self._total

    def frequency(self, peer: int) -> float:
        """Estimated (over-)count for ``peer``; 0.0 when unmonitored."""
        return self._counts.get(peer, 0.0)

    def error_bound(self, peer: int) -> float:
        """Maximum over-estimation for ``peer`` (its inherited floor)."""
        return self._errors.get(peer, 0.0)

    def guaranteed_top(self) -> list[int]:
        """Peers whose estimated count minus error exceeds some other estimate,
        i.e. peers guaranteed to be among the true top items."""
        if not self._counts:
            return []
        ordered = sorted(self._counts, key=lambda p: (-self._counts[p], p))
        result = []
        for index, peer in enumerate(ordered[:-1]):
            next_estimate = self._counts[ordered[index + 1]]
            if self._counts[peer] - self._errors[peer] >= next_estimate:
                result.append(peer)
            else:
                break
        return result

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        return _top_items(self._counts, limit)

    def __len__(self) -> int:
        return len(self._counts)


class LossyCountingSketch:
    """Lossy Counting (Manku & Motwani 2002) over unit-weight observations.

    Splits the stream into buckets of width ``ceil(1 / epsilon)``; at each
    bucket boundary, entries whose count plus bucket slack falls below the
    current bucket id are pruned. Estimates under-count by at most
    ``epsilon * N``.
    """

    def __init__(self, epsilon: float = 0.001) -> None:
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon!r}")
        self.epsilon = epsilon
        self.bucket_width = max(1, int(1.0 / epsilon))
        self._counts: dict[int, float] = {}
        self._deltas: dict[int, int] = {}
        self._seen = 0
        self._bucket = 1

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if not 0 <= weight < _INF:
            raise _weight_error(weight)
        self._seen += 1
        if peer in self._counts:
            self._counts[peer] += weight
        else:
            self._counts[peer] = weight
            self._deltas[peer] = self._bucket - 1
        if self._seen % self.bucket_width == 0:
            self._prune()
            self._bucket += 1

    def _prune(self) -> None:
        doomed = [peer for peer, count in self._counts.items() if count + self._deltas[peer] <= self._bucket]
        for peer in doomed:
            del self._counts[peer]
            del self._deltas[peer]

    def forget(self, peer: int) -> None:
        """Drop state for ``peer``."""
        self._counts.pop(peer, None)
        self._deltas.pop(peer, None)

    @property
    def total(self) -> int:
        """Number of observations consumed so far."""
        return self._seen

    def frequency(self, peer: int) -> float:
        """Estimated count for ``peer`` (an under-estimate; 0.0 when pruned)."""
        return self._counts.get(peer, 0.0)

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        return _top_items(self._counts, limit)

    def __len__(self) -> int:
        return len(self._counts)
