"""Unit tests for the frequency trackers (exact, Space-Saving, Lossy Counting)."""

import heapq
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.frequency import (
    ExactFrequencyTable,
    LossyCountingSketch,
    SpaceSavingSketch,
    snapshot_order,
)
from repro.util.errors import ConfigurationError


class TestExactFrequencyTable:
    def test_counts_observations(self):
        table = ExactFrequencyTable()
        table.observe(1)
        table.observe(1)
        table.observe(2, weight=3.0)
        assert table.frequency(1) == 2.0
        assert table.frequency(2) == 3.0
        assert table.frequency(99) == 0.0
        assert table.total == 5.0
        assert len(table) == 2

    def test_observe_many(self):
        table = ExactFrequencyTable()
        table.observe_many([5, 5, 7])
        assert table.frequency(5) == 2.0
        assert table.frequency(7) == 1.0

    def test_sliding_window_evicts(self):
        table = ExactFrequencyTable(window=3)
        for peer in [1, 2, 3, 4]:
            table.observe(peer)
        assert table.frequency(1) == 0.0  # fell out of the window
        assert table.frequency(4) == 1.0
        assert table.total == 3.0

    def test_window_keeps_repeats(self):
        table = ExactFrequencyTable(window=3)
        for peer in [1, 1, 1, 1]:
            table.observe(peer)
        assert table.frequency(1) == 3.0

    def test_forget(self):
        table = ExactFrequencyTable(window=10)
        table.observe_many([1, 2, 1])
        table.forget(1)
        assert table.frequency(1) == 0.0
        assert table.total == 1.0

    def test_snapshot_limit_prefers_heavy_hitters(self):
        table = ExactFrequencyTable()
        table.observe(1, weight=10)
        table.observe(2, weight=5)
        table.observe(3, weight=1)
        assert set(table.snapshot(limit=2)) == {1, 2}
        assert table.snapshot() == {1: 10.0, 2: 5.0, 3: 1.0}

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            ExactFrequencyTable().observe(1, weight=-1.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            ExactFrequencyTable(window=0)


class TestSpaceSaving:
    def test_tracks_within_capacity_exactly(self):
        sketch = SpaceSavingSketch(capacity=4)
        for peer in [1, 1, 2, 3]:
            sketch.observe(peer)
        assert sketch.frequency(1) == 2.0
        assert sketch.error_bound(1) == 0.0

    def test_eviction_inherits_floor(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.observe(1)
        sketch.observe(2)
        sketch.observe(3)  # evicts the minimum (deterministically peer 1)
        assert len(sketch) == 2
        assert sketch.frequency(3) == 2.0  # floor 1 + its own observation
        assert sketch.error_bound(3) == 1.0

    def test_overestimate_invariant(self):
        """Space-Saving never under-counts and over-counts by <= total/capacity."""
        rng = random.Random(0)
        stream = [rng.randint(0, 30) for _ in range(2000)]
        truth = {}
        for peer in stream:
            truth[peer] = truth.get(peer, 0) + 1
        sketch = SpaceSavingSketch(capacity=10)
        for peer in stream:
            sketch.observe(peer)
        for peer, estimate in sketch.snapshot().items():
            assert estimate >= truth.get(peer, 0)
            assert estimate - truth.get(peer, 0) <= len(stream) / 10

    def test_heavy_hitter_survives(self):
        """A peer holding >1/capacity of the stream is always monitored."""
        sketch = SpaceSavingSketch(capacity=5)
        rng = random.Random(1)
        for _ in range(1000):
            sketch.observe(777 if rng.random() < 0.5 else rng.randint(0, 100))
        assert sketch.frequency(777) > 0

    def test_guaranteed_top_orders_by_estimate(self):
        sketch = SpaceSavingSketch(capacity=4)
        for __ in range(50):
            sketch.observe(1)
        for __ in range(10):
            sketch.observe(2)
        sketch.observe(3)
        assert sketch.guaranteed_top()[0] == 1

    def test_forget(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.observe(1)
        sketch.forget(1)
        assert sketch.frequency(1) == 0.0


class TestLossyCounting:
    def test_exact_until_first_prune(self):
        sketch = LossyCountingSketch(epsilon=0.1)  # bucket width 10
        for peer in [1, 1, 2]:
            sketch.observe(peer)
        assert sketch.frequency(1) == 2.0
        assert sketch.frequency(2) == 1.0

    def test_prunes_rare_items(self):
        sketch = LossyCountingSketch(epsilon=0.25)  # bucket width 4
        for peer in [1, 2, 3, 4, 5, 6, 7, 8]:
            sketch.observe(peer)
        # Singletons from the first bucket are pruned at its boundary.
        assert sketch.frequency(1) == 0.0

    def test_undercount_bounded(self):
        rng = random.Random(2)
        stream = [rng.randint(0, 20) for _ in range(3000)]
        truth = {}
        for peer in stream:
            truth[peer] = truth.get(peer, 0) + 1
        epsilon = 0.01
        sketch = LossyCountingSketch(epsilon=epsilon)
        for peer in stream:
            sketch.observe(peer)
        for peer, count in truth.items():
            estimate = sketch.frequency(peer)
            assert estimate <= count
            assert count - estimate <= epsilon * len(stream)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ConfigurationError):
            LossyCountingSketch(epsilon=bad)


@given(st.lists(st.integers(0, 15), min_size=1, max_size=300))
def test_trackers_agree_on_small_streams(stream):
    """With ample capacity all three trackers report the exact counts."""
    exact = ExactFrequencyTable()
    saving = SpaceSavingSketch(capacity=16)
    lossy = LossyCountingSketch(epsilon=0.001)
    for peer in stream:
        exact.observe(peer)
        saving.observe(peer)
        lossy.observe(peer)
    assert exact.snapshot() == saving.snapshot() == lossy.snapshot()


# ----------------------------------------------------------------------
# Non-finite weights and the kept rank order
# ----------------------------------------------------------------------
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _nlargest_snapshot(estimates: dict, limit) -> dict:
    """The ``heapq.nlargest`` ranking snapshots used before the kept
    order: the test oracle."""
    if limit is None or len(estimates) <= limit:
        return dict(estimates)
    return dict(heapq.nlargest(limit, estimates.items(), key=lambda kv: (kv[1], -kv[0])))


@pytest.mark.parametrize("weight", NON_FINITE)
@pytest.mark.parametrize(
    "make", [ExactFrequencyTable, lambda: SpaceSavingSketch(4), LossyCountingSketch]
)
def test_trackers_reject_non_finite_weights(make, weight):
    tracker = make()
    with pytest.raises(ConfigurationError, match="finite non-negative"):
        tracker.observe(1, weight)
    assert tracker.snapshot() == {}


@pytest.mark.parametrize("weight", NON_FINITE)
def test_seeded_rejects_non_finite_weights(weight):
    with pytest.raises(ConfigurationError, match="finite non-negative"):
        ExactFrequencyTable.seeded({1: 2.0, 2: weight, 3: 1.0}, owner=9)


def test_seeded_skips_owner_and_non_positive_weights():
    table = ExactFrequencyTable.seeded({4: 1.5, 9: 7.0, 5: 0.0, 6: -2.0, 7: 3}, owner=9)
    assert list(table.snapshot().items()) == [(4, 1.5), (7, 3.0)]
    assert table.total == 4.5


def test_seeded_total_is_observe_order_sum():
    weights = {peer: 0.1 * (peer % 7 + 1) for peer in range(60)}
    expected = ExactFrequencyTable()
    for peer, weight in weights.items():
        expected.observe(peer, weight)
    assert ExactFrequencyTable.seeded(weights, owner=-1).total == expected.total


def test_seeded_rejects_an_order_missing_peers():
    with pytest.raises(ConfigurationError, match="order"):
        ExactFrequencyTable.seeded({1: 1.0, 2: 2.0}, owner=0, order=[2])


# Counts with many ties, as ints and floats; 2**53 and 2**53 + 1 are
# equal as floats, so a snapshot must tie them (ranked by float(count)).
_COUNTS = st.sampled_from([1, 2, 3, 1.0, 2.5, 3.0, 0.5, 2**53, 2**53 + 1])
_COUNT_DICTS = st.dictionaries(st.integers(0, 60), _COUNTS, max_size=24)
_LIMITS = st.one_of(st.none(), st.integers(0, 26))


def test_snapshot_ranks_counts_as_floats():
    """2**53 + 1 and 2**53 snapshot as the same float, so they tie and
    the lower id ranks first, as in the float-keyed nlargest oracle."""
    table = ExactFrequencyTable()
    table.observe(1, 2**53)
    table.observe(2, 2**53 + 1)
    table.observe(3, 1)
    assert table.snapshot(1) == {1: float(2**53)}
    seeded = ExactFrequencyTable.seeded({1: 2**53, 2: 2**53 + 1, 3: 1}, owner=0)
    assert seeded.snapshot(1) == {1: float(2**53)}


@given(_COUNT_DICTS, _LIMITS)
def test_exact_snapshot_matches_nlargest(counts, limit):
    table = ExactFrequencyTable()
    for peer, count in counts.items():
        table.observe(peer, count)
    floats = {peer: float(count) for peer, count in counts.items()}
    expected = _nlargest_snapshot(floats, limit)
    assert list(table.snapshot(limit).items()) == list(expected.items())
    # A second snapshot reads the kept order.
    assert list(table.snapshot(limit).items()) == list(expected.items())


@given(_COUNT_DICTS, _LIMITS)
def test_sketch_snapshots_match_nlargest(counts, limit):
    saving = SpaceSavingSketch(capacity=64)
    lossy = LossyCountingSketch(epsilon=0.001)
    for peer, count in counts.items():
        saving.observe(peer, count)
        lossy.observe(peer, count)
    expected = list(_nlargest_snapshot(counts, limit).items())
    assert list(saving.snapshot(limit).items()) == expected
    assert list(lossy.snapshot(limit).items()) == expected


@given(
    st.dictionaries(st.integers(0, 60), _COUNTS | st.sampled_from([0, 0.0, -1.0]), max_size=24),
    st.integers(0, 60),
    st.lists(_LIMITS, max_size=4),
)
def test_seeded_with_order_equals_seeded_without(weights, owner, limits):
    plain = ExactFrequencyTable.seeded(weights, owner)
    ranked = ExactFrequencyTable.seeded(weights, owner, snapshot_order(weights))
    assert (ranked.total, len(ranked)) == (plain.total, len(plain))
    for limit in limits + [None, 0, 1, 5]:
        assert list(ranked.snapshot(limit).items()) == list(plain.snapshot(limit).items())


@pytest.mark.parametrize("seeded", [False, True])
def test_snapshot_order_dropped_by_observe(seeded):
    weights = {peer: float(peer) for peer in range(1, 11)}
    if seeded:
        table = ExactFrequencyTable.seeded(weights, owner=0, order=snapshot_order(weights))
    else:
        table = ExactFrequencyTable()
        for peer, weight in weights.items():
            table.observe(peer, weight)
    assert list(table.snapshot(3)) == [10, 9, 8]
    table.observe(20, 50.0)  # a new heaviest peer
    table.observe(1, 8.5)  # an old peer overtakes 8 (1 + 8.5)
    assert list(table.snapshot(3).items()) == [(20, 50.0), (10, 10.0), (1, 9.5)]


@pytest.mark.parametrize("seeded", [False, True])
def test_snapshot_order_dropped_by_forget(seeded):
    weights = {peer: float(peer) for peer in range(1, 11)}
    if seeded:
        table = ExactFrequencyTable.seeded(weights, owner=0, order=snapshot_order(weights))
    else:
        table = ExactFrequencyTable()
        for peer, weight in weights.items():
            table.observe(peer, weight)
    assert list(table.snapshot(3)) == [10, 9, 8]
    table.forget(9)
    assert list(table.snapshot(3).items()) == [(10, 10.0), (8, 8.0), (7, 7.0)]


@given(
    st.lists(st.tuples(st.booleans(), st.integers(0, 12), _COUNTS), max_size=40),
    st.integers(1, 6),
    st.one_of(st.none(), st.integers(1, 8)),
)
def test_snapshots_follow_observe_and_forget(operations, limit, window):
    """After every observe or forget, the truncated snapshot equals the
    oracle over the table's full (unranked, insertion-order) snapshot."""
    table = ExactFrequencyTable(window=window)
    for observe, peer, weight in operations:
        if observe:
            table.observe(peer, weight)
        else:
            table.forget(peer)
        expected = _nlargest_snapshot(table.snapshot(), limit)
        assert list(table.snapshot(limit).items()) == list(expected.items())
