"""Property suite for the workload plane (DESIGN.md §13).

Every scenario in the :data:`~repro.workload.spec.WORKLOADS` registry is
held to the determinism contract: all queries stay inside the catalog
and the live population, drifting weights remain a normalized
distribution, hotspot rotation stays a permutation, traces round-trip
byte-exactly, and two streams built from equal contexts emit identical
queries. Hypothesis drives the seeds and advance schedules so the
properties hold over the input space, not just one lucky seed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.workload.items import ItemCatalog, PopularityModel
from repro.workload.queries import Query
from repro.workload.spec import (
    DEFAULT_RATE,
    WORKLOADS,
    WorkloadContext,
    WorkloadSpec,
    record_trace,
)
from repro.workload.trace import QueryTrace

#: Every synthetic scenario, with an explicit parameter where one exists.
SCENARIOS = (
    "static-zipf",
    "drifting-zipf:20",
    "flash-crowd:2",
    "diurnal:50",
    "hotspot-rotation:25",
)


def make_context(seed=0, num_items=40, num_nodes=12, alpha=1.2, horizon=100.0):
    """A self-contained WorkloadContext (no overlay needed)."""
    space = IdSpace(16)
    catalog = ItemCatalog(space, num_items, seed=seed)
    popularity = PopularityModel(catalog, alpha, num_rankings=2, seed=seed + 1)
    nodes = sorted(random.Random(seed + 2).sample(range(space.size), num_nodes))
    return WorkloadContext(
        popularity=popularity,
        assignment=popularity.assign_rankings(nodes),
        rng=random.Random(seed + 3),
        scenario_rng=random.Random(seed + 4),
        alpha=alpha,
        horizon=horizon,
    )


def emit(spec_text, seed, count=60):
    context = make_context(seed)
    live = sorted(context.assignment)
    stream = WorkloadSpec.parse(spec_text).build(context)
    return context, list(stream.stream(count, lambda: live))


class TestParse:
    def test_round_trip_label(self):
        assert WorkloadSpec.parse("static-zipf").label == "static-zipf"
        assert WorkloadSpec.parse("drifting-zipf:45").label == "drifting-zipf:45"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            WorkloadSpec.parse("pareto-storm")

    def test_empty_and_non_string_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec.parse("")
        with pytest.raises(ConfigurationError):
            WorkloadSpec.parse(None)

    def test_trace_param_keeps_colons(self):
        spec = WorkloadSpec.parse("trace:/data/run:3/q.jsonl")
        assert spec.name == "trace"
        assert spec.param == "/data/run:3/q.jsonl"

    def test_static_rejects_parameter(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            WorkloadSpec.parse("static-zipf:1.5").build(make_context())

    def test_non_numeric_parameters_rejected(self):
        for text in ("drifting-zipf:fast", "flash-crowd:many", "diurnal:x"):
            with pytest.raises(ConfigurationError):
                WorkloadSpec.parse(text).build(make_context())

    def test_out_of_range_parameters_rejected(self):
        for text in ("drifting-zipf:0", "flash-crowd:0", "hotspot-rotation:-5"):
            with pytest.raises(ConfigurationError):
                WorkloadSpec.parse(text).build(make_context())

    def test_trace_requires_path(self):
        with pytest.raises(ConfigurationError, match="path"):
            WorkloadSpec.parse("trace").build(make_context())

    def test_drift_interval_at_least_one_query_gap(self):
        # A smaller interval used to spin in DynamicPopularity.advance,
        # one drift step at a time.
        minimum = 1.0 / DEFAULT_RATE
        WorkloadSpec.parse(f"drifting-zipf:{minimum}").build(make_context())
        for text in (f"drifting-zipf:{minimum / 2}", "drifting-zipf:1e-9"):
            with pytest.raises(ConfigurationError, match="'drifting-zipf' .* at least 0.25 s"):
                WorkloadSpec.parse(text).build(make_context())

    def test_flash_crowds_at_most_the_cold_tail(self):
        # 40 items: victims come from the 20-item cold tail.
        WorkloadSpec.parse("flash-crowd:20").build(make_context())
        for text in ("flash-crowd:21", "flash-crowd:1000000"):
            with pytest.raises(ConfigurationError, match="'flash-crowd' takes at most 20 crowds"):
                WorkloadSpec.parse(text).build(make_context())

    @pytest.mark.parametrize(
        "text", ["diurnal:nan", "hotspot-rotation:inf", "drifting-zipf:-inf", "diurnal:1e999"]
    )
    def test_non_finite_parameters_rejected(self, text):
        with pytest.raises(ConfigurationError, match="positive finite number"):
            WorkloadSpec.parse(text).build(make_context())

    @pytest.mark.parametrize("text", ["drifting-zipf:", "diurnal:", "trace:", "static-zipf:"])
    def test_empty_parameter_rejected(self, text):
        # Previously "drifting-zipf:" ran the default interval under the
        # label "drifting-zipf:".
        with pytest.raises(ConfigurationError, match="empty parameter"):
            WorkloadSpec.parse(text)

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.one_of(
            st.sampled_from(sorted(WORKLOADS)),
            st.text(st.characters(exclude_characters=":"), max_size=6),
        ),
        param=st.one_of(
            st.none(),
            # Free text stays short; any flash-crowd count above the
            # 20-item cold tail, however long, is rejected before a
            # crowd is built.
            st.text(max_size=5),
            st.integers(-3, 10_000).map(str),
            st.floats().map(repr),
            st.sampled_from(["nan", "inf", "-inf", "", " 2", "1e-3"]),
        ),
    )
    def test_any_selector_builds_or_names_the_workload(self, name, param):
        text = name if param is None else f"{name}:{param}"
        try:
            WorkloadSpec.parse(text).build(make_context())
        except ConfigurationError as error:
            assert name in str(error) or repr(name) in str(error)

    def test_is_static_only_for_default(self):
        assert WorkloadSpec.parse("static-zipf").is_static
        assert not WorkloadSpec.parse("drifting-zipf:9").is_static

    def test_every_registered_scenario_has_a_description(self):
        for name in WORKLOADS:
            spec = WorkloadSpec(name, "1" if name != "static-zipf" else None)
            assert spec.describe()


class TestStreamProperties:
    @pytest.mark.parametrize("spec_text", SCENARIOS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_queries_stay_in_catalog_and_live_set(self, spec_text, seed):
        context, queries = emit(spec_text, seed)
        items = set(context.catalog.item_ids)
        live = set(context.assignment)
        assert len(queries) == 60
        assert all(query.item in items for query in queries)
        assert all(query.source in live for query in queries)

    @pytest.mark.parametrize("spec_text", SCENARIOS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equal_contexts_emit_identical_streams(self, spec_text, seed):
        __, first = emit(spec_text, seed)
        __, second = emit(spec_text, seed)
        assert first == second

    @pytest.mark.parametrize("spec_text", SCENARIOS)
    def test_stream_respects_count(self, spec_text):
        __, queries = emit(spec_text, seed=7, count=13)
        assert len(queries) == 13

    @pytest.mark.parametrize("spec_text", SCENARIOS)
    def test_empty_live_population_rejected(self, spec_text):
        stream = WorkloadSpec.parse(spec_text).build(make_context(seed=3))
        with pytest.raises(ConfigurationError, match="no live sources"):
            stream.next_query([])

    def test_different_seeds_differ(self):
        # Sanity: the substreams actually depend on the context RNGs.
        __, a = emit("drifting-zipf:20", seed=1, count=80)
        __, b = emit("drifting-zipf:20", seed=2, count=80)
        assert a != b


class TestDriftingInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        times=st.lists(
            st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    def test_weights_stay_normalized_under_arbitrary_advances(self, seed, times):
        stream = WorkloadSpec.parse("drifting-zipf:10").build(make_context(seed))
        for now in sorted(times):
            stream.advance(now)
        weights = stream.dynamics.item_weights()
        assert sum(weights.values()) == pytest.approx(1.0)
        assert sorted(weights) == sorted(stream.context.catalog.item_ids)
        assert all(weight > 0 for weight in weights.values())

    def test_ranking_actually_drifts(self):
        context = make_context(seed=11)
        stream = WorkloadSpec.parse("drifting-zipf:5").build(context)
        before = stream.dynamics.ranking()
        stream.advance(500.0)
        assert stream.dynamics.ranking() != before
        assert sorted(stream.dynamics.ranking()) == sorted(before)


class TestHotspotInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        now=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
    )
    def test_ranking_is_always_a_permutation(self, seed, now):
        context = make_context(seed)
        stream = WorkloadSpec.parse("hotspot-rotation:25").build(context)
        stream.advance(now)
        assert sorted(stream.ranking()) == sorted(context.catalog.item_ids)

    def test_rotation_changes_the_hot_set_each_period(self):
        stream = WorkloadSpec.parse("hotspot-rotation:10").build(make_context(seed=5))
        epoch0 = stream.ranking()
        stream.advance(10.0)
        epoch1 = stream.ranking()
        assert epoch1 != epoch0
        assert epoch1[0] == epoch0[stream.stride]

    def test_advance_is_monotone_and_idempotent(self):
        stream = WorkloadSpec.parse("hotspot-rotation:10").build(make_context(seed=5))
        stream.advance(35.0)
        after = stream.ranking()
        stream.advance(35.0)  # idempotent at equal time
        assert stream.ranking() == after
        stream.advance(5.0)  # stale clock reading never rewinds the epoch
        assert stream.ranking() == after


class TestDiurnalInvariants:
    @settings(max_examples=15, deadline=None)
    @given(now=st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False))
    def test_intensity_bounded(self, now):
        stream = WorkloadSpec.parse("diurnal:50").build(make_context(seed=6))
        assert 0.0 <= stream.intensity(now) <= 1.0

    def test_active_population_shrinks_toward_the_trough(self):
        context = make_context(seed=8, num_nodes=30)
        stream = WorkloadSpec.parse("diurnal:100").build(context)
        live = sorted(context.assignment)
        stream.advance(25.0)  # sin peak -> intensity 1.0
        peak = stream.active_sources(live)
        assert peak == live
        stream.advance(75.0)  # sin trough -> intensity 0.0
        trough = [s for s in live if stream._thresholds[s] <= stream.intensity(75.0)]
        assert len(trough) < len(peak)

    def test_trough_falls_back_to_whole_population(self):
        context = make_context(seed=8)
        stream = WorkloadSpec.parse("diurnal:100").build(context)
        live = sorted(context.assignment)
        stream.advance(75.0)
        # Nobody clears the bar at the trough, so arrivals fall back to
        # the whole live population instead of stalling the stream.
        assert stream.active_sources(live) == live
        assert stream.next_query(live) is not None


class TestTraceStream:
    def _trace_spec(self, tmp_path, entries, metadata=None):
        trace = QueryTrace(metadata=metadata or {})
        for time, source, item in entries:
            trace.record(time, source, item)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        return WorkloadSpec.parse(f"trace:{path}")

    def test_replays_in_order_and_cycles(self, tmp_path):
        spec = self._trace_spec(tmp_path, [(0.0, 1, 10), (1.0, 2, 20)])
        stream = spec.build(make_context())
        queries = [stream.next_query([1, 2]) for __ in range(4)]
        assert queries == [Query(1, 10), Query(2, 20), Query(1, 10), Query(2, 20)]

    def test_skips_dead_sources(self, tmp_path):
        spec = self._trace_spec(tmp_path, [(0.0, 1, 10), (1.0, 2, 20), (2.0, 3, 30)])
        stream = spec.build(make_context())
        assert stream.next_query([2]) == Query(2, 20)

    def test_exhausts_when_no_source_is_live(self, tmp_path):
        spec = self._trace_spec(tmp_path, [(0.0, 1, 10), (1.0, 2, 20)])
        stream = spec.build(make_context())
        assert stream.next_query([99]) is None

    def test_empty_trace_rejected(self, tmp_path):
        spec = self._trace_spec(tmp_path, [])
        with pytest.raises(ConfigurationError, match="empty"):
            spec.build(make_context())


class TestRecordTrace:
    @pytest.mark.parametrize("spec_text", SCENARIOS)
    def test_round_trip_is_byte_exact(self, tmp_path, spec_text):
        context = make_context(seed=4)
        live = sorted(context.assignment)
        stream = WorkloadSpec.parse(spec_text).build(context)
        trace = record_trace(stream, 50, lambda: live, metadata={"workload": spec_text})
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        trace.save(first)
        QueryTrace.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_timestamps_follow_the_nominal_rate(self):
        context = make_context(seed=4)
        live = sorted(context.assignment)
        stream = WorkloadSpec.parse("static-zipf").build(context)
        trace = record_trace(stream, 8, lambda: live)
        assert [entry.time for entry in trace] == [i / DEFAULT_RATE for i in range(8)]

    def test_recorded_trace_replays_the_same_queries(self, tmp_path):
        context = make_context(seed=9)
        live = sorted(context.assignment)
        recorded = record_trace(
            WorkloadSpec.parse("flash-crowd:2").build(context), 40, lambda: live
        )
        path = tmp_path / "crowd.jsonl"
        recorded.save(path)
        replay = WorkloadSpec.parse(f"trace:{path}").build(make_context(seed=9))
        replayed = list(replay.stream(40, lambda: live))
        assert replayed == [entry.query() for entry in recorded]
