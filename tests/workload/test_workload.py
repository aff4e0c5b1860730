"""Unit tests for the zipf / items / queries workload layer."""

import random
from collections import Counter

import pytest

from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.workload.items import ItemCatalog, PopularityModel
from repro.workload.spec import WorkloadContext, WorkloadSpec
from repro.workload.zipf import ZipfDistribution


class TestZipf:
    def test_weights_normalized_and_decreasing(self):
        dist = ZipfDistribution(alpha=1.2, size=50)
        weights = dist.weights()
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_weight_matches_power_law(self):
        dist = ZipfDistribution(alpha=1.0, size=10)
        assert dist.weight(1) / dist.weight(2) == pytest.approx(2.0)
        assert dist.weight(1) / dist.weight(4) == pytest.approx(4.0)

    def test_sampling_matches_distribution(self):
        dist = ZipfDistribution(alpha=1.2, size=20)
        rng = random.Random(0)
        draws = Counter(dist.sample_rank(rng) for __ in range(20_000))
        assert draws[1] / 20_000 == pytest.approx(dist.weight(1), rel=0.1)
        assert all(1 <= rank <= 20 for rank in draws)

    def test_higher_alpha_is_more_skewed(self):
        mild = ZipfDistribution(alpha=0.91, size=100)
        steep = ZipfDistribution(alpha=1.2, size=100)
        assert steep.weight(1) > mild.weight(1)
        assert steep.head_mass(10) > mild.head_mass(10)

    def test_head_mass_bounds(self):
        dist = ZipfDistribution(alpha=1.2, size=10)
        assert dist.head_mass(0) == 0.0
        assert dist.head_mass(10) == pytest.approx(1.0)
        assert dist.head_mass(99) == pytest.approx(1.0)

    def test_rank_validation(self):
        dist = ZipfDistribution(alpha=1.2, size=5)
        with pytest.raises(ConfigurationError):
            dist.weight(0)
        with pytest.raises(ConfigurationError):
            dist.weight(6)

    @pytest.mark.parametrize("alpha,size", [(-1.0, 5), (0.0, 5), (1.2, 0)])
    def test_construction_validation(self, alpha, size):
        with pytest.raises(ConfigurationError):
            ZipfDistribution(alpha=alpha, size=size)


class TestItemCatalog:
    def test_distinct_ids(self):
        catalog = ItemCatalog(IdSpace(16), num_items=500, seed=1)
        assert len(catalog) == 500
        assert len(set(catalog.item_ids)) == 500

    def test_deterministic(self):
        a = ItemCatalog(IdSpace(16), num_items=50, seed=2)
        b = ItemCatalog(IdSpace(16), num_items=50, seed=2)
        assert a.item_ids == b.item_ids

    def test_overfull_space_rejected(self):
        with pytest.raises(ConfigurationError):
            ItemCatalog(IdSpace(4), num_items=17)


class TestPopularityModel:
    def test_single_ranking_is_identity(self):
        catalog = ItemCatalog(IdSpace(16), num_items=30, seed=3)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=1, seed=4)
        assert model.rankings[0] == catalog.item_ids

    def test_multiple_rankings_differ(self):
        catalog = ItemCatalog(IdSpace(16), num_items=30, seed=5)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=5, seed=6)
        assert model.num_rankings == 5
        assert any(model.rankings[i] != model.rankings[0] for i in range(1, 5))
        for ranking in model.rankings:
            assert sorted(ranking) == sorted(catalog.item_ids)

    def test_item_weights_sum_to_one(self):
        catalog = ItemCatalog(IdSpace(16), num_items=30, seed=7)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=2, seed=8)
        for index in range(2):
            assert sum(model.item_weights(index).values()) == pytest.approx(1.0)

    def test_node_frequencies_aggregate_by_destination(self):
        catalog = ItemCatalog(IdSpace(8), num_items=20, seed=9)
        model = PopularityModel(catalog, alpha=1.2, seed=10)
        # Two "nodes" split the space in half.
        responsible = lambda item: 0 if item < 128 else 128
        frequencies = model.node_frequencies(0, responsible)
        assert set(frequencies) <= {0, 128}
        assert sum(frequencies.values()) == pytest.approx(1.0)

    def test_node_frequencies_exclude_self(self):
        catalog = ItemCatalog(IdSpace(8), num_items=20, seed=11)
        model = PopularityModel(catalog, alpha=1.2, seed=12)
        responsible = lambda item: 0 if item < 128 else 128
        frequencies = model.node_frequencies(0, responsible, exclude=0)
        assert 0 not in frequencies

    def test_assign_rankings_covers_all_nodes(self):
        catalog = ItemCatalog(IdSpace(16), num_items=10, seed=13)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=5, seed=14)
        assignment = model.assign_rankings(range(100))
        assert set(assignment) == set(range(100))
        assert set(assignment.values()) <= set(range(5))

    def test_sample_item_follows_ranking(self):
        catalog = ItemCatalog(IdSpace(16), num_items=10, seed=15)
        model = PopularityModel(catalog, alpha=2.0, num_rankings=2, seed=16)
        rng = random.Random(0)
        draws = Counter(model.sample_item(1, rng) for __ in range(5000))
        top_item = model.rankings[1][0]
        assert draws.most_common(1)[0][0] == top_item


def static_zipf(model, assignment, seed=19):
    """The paper's query stream over ``model`` and ``assignment``."""
    return WorkloadSpec("static-zipf").build(
        WorkloadContext(
            popularity=model,
            assignment=assignment,
            rng=random.Random(seed),
            scenario_rng=random.Random(seed + 1),
            alpha=1.2,
            horizon=100.0,
        )
    )


class TestQueryGenerator:
    """Query generation by the static-zipf stream."""

    def make(self):
        catalog = ItemCatalog(IdSpace(16), num_items=40, seed=17)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=2, seed=18)
        return static_zipf(model, {1: 0, 2: 1})

    def test_query_from_assigned_ranking(self):
        stream = self.make()
        query = stream.next_query([1])
        assert query.source == 1
        assert query.item in stream.context.popularity.catalog.item_ids

    def test_unassigned_source_rejected(self):
        stream = self.make()
        with pytest.raises(ConfigurationError):
            stream.next_query([99])

    def test_stream_respects_live_population(self):
        stream = self.make()
        queries = list(stream.stream(50, lambda: [1, 2]))
        assert len(queries) == 50
        assert {q.source for q in queries} <= {1, 2}

    def test_empty_assignment_rejected(self):
        catalog = ItemCatalog(IdSpace(16), num_items=5, seed=20)
        model = PopularityModel(catalog, alpha=1.2, seed=21)
        with pytest.raises(ConfigurationError):
            static_zipf(model, {})

    def test_bad_ranking_index_rejected(self):
        catalog = ItemCatalog(IdSpace(16), num_items=5, seed=22)
        model = PopularityModel(catalog, alpha=1.2, num_rankings=1, seed=23)
        with pytest.raises(ConfigurationError):
            static_zipf(model, {1: 4})
