"""The counted query batch of an unobserved stable cell.

A stable cell with no per-lookup observer, no fault plane and no dead
node routes each distinct ``(source, key)`` pair of its stream once and
folds the outcome with the pair's count. Its statistics must equal the
per-query loop's as dataclasses, float sums included; an ``on_lookup``
no-op forces that loop. The columnar engine routes the same counted
batch as lanes, so a columnar cell must equal the per-query object loop.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord.ring import ChordRing
from repro.faults.schedule import FaultSchedule
from repro.kademlia.network import KademliaNetwork
from repro.obs.recorder import LookupTracer
from repro.pastry.network import PastryNetwork
from repro.routing import LookupResult
from repro.sim.metrics import HopStatistics
from repro.sim.runner import (
    POLICIES,
    ExperimentConfig,
    _Bench,
    run_stable,
    stable_cell,
    stable_universe,
)
from repro.telemetry.runtime import RoundTelemetry
from repro.util.rng import SeedSequenceRegistry
from repro.workload.spec import DEFAULT_RATE, WORKLOADS, record_trace
from repro.workload.trace import QueryTrace

OVERLAYS = ("chord", "pastry", "kademlia")
#: One selector per registered scenario; ``trace`` replays a recorded
#: flash-crowd stream of the same universe.
SCENARIOS = (
    "static-zipf",
    "drifting-zipf:20",
    "flash-crowd:2",
    "diurnal:40",
    "hotspot-rotation:25",
    "trace",
)
CLASSES = {"chord": ChordRing, "pastry": PastryNetwork, "kademlia": KademliaNetwork}


def _noop(index: int) -> None:
    pass


@pytest.fixture(scope="module")
def workload_for(tmp_path_factory):
    """``workload_for(overlay, scenario)``: the selector, with ``trace``
    written once per overlay from that overlay's universe."""
    paths = {}

    def selector(overlay: str, scenario: str) -> str:
        if scenario != "trace":
            return scenario
        if overlay not in paths:
            config = _config(overlay, "flash-crowd:2")
            bench = _Bench(config, SeedSequenceRegistry(config.seed))
            live = bench.overlay.alive_ids()
            stream = bench.workload_stream("queries", horizon=config.queries / DEFAULT_RATE)
            path = tmp_path_factory.mktemp("traces") / f"{overlay}.jsonl"
            record_trace(stream, config.queries, lambda: live).save(path)
            paths[overlay] = f"trace:{path}"
        return paths[overlay]

    return selector


def _config(overlay: str, workload: str, **overrides) -> ExperimentConfig:
    values = dict(
        overlay=overlay,
        n=24,
        bits=16,
        queries=300,
        seed=5,
        workload=workload,
        warmup_queries=400,
        engine="objects",
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def _per_query(config: ExperimentConfig, policy: str) -> HopStatistics:
    return stable_cell(replace(config, engine="objects"), policy, on_lookup=_noop).stats


def test_every_registered_scenario_is_covered():
    assert {scenario.split(":")[0] for scenario in SCENARIOS} == set(WORKLOADS)


@pytest.mark.parametrize("learned", [False, True], ids=["seeded", "learned"])
@pytest.mark.parametrize("budget", ["uniform", "allocated"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_object_batch_equals_per_query_loop(workload_for, overlay, scenario, budget, learned):
    config = _config(
        overlay,
        workload_for(overlay, scenario),
        budget_mode=budget,
        learned_frequencies=learned,
    )
    for policy in POLICIES:
        assert stable_cell(config, policy).stats == _per_query(config, policy)


@pytest.mark.parametrize("learned", [False, True], ids=["seeded", "learned"])
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("overlay", ["chord", "pastry"])
def test_columnar_batch_equals_per_query_loop(workload_for, overlay, scenario, learned):
    config = _config(
        overlay,
        workload_for(overlay, scenario),
        engine="columnar",
        learned_frequencies=learned,
    )
    for policy in POLICIES:
        assert stable_cell(config, policy).stats == _per_query(config, policy)


@pytest.mark.parametrize("engine", ["objects", "columnar"])
def test_stream_with_no_live_source_routes_nothing(tmp_path, engine):
    universe = _config("chord", "static-zipf")
    live = set(_Bench(universe, SeedSequenceRegistry(universe.seed)).overlay.alive_ids())
    trace = QueryTrace()
    trace.record(0.0, next(node for node in range(2**universe.bits) if node not in live), 7)
    path = tmp_path / "dead.jsonl"
    trace.save(path)
    config = replace(universe, workload=f"trace:{path}", engine=engine)
    for policy in POLICIES:
        stats = stable_cell(config, policy).stats
        assert stats.lookups == 0
        assert stats == _per_query(config, policy)


def test_query_batch_is_drawn_once_per_live_set():
    config = _config("chord", "static-zipf")
    bench = stable_universe(config)
    batch = bench.query_batch(config.queries)
    assert sum(batch.values()) == config.queries
    assert bench.query_batch(config.queries) is batch
    victim = next(iter(batch))[0]
    bench.overlay.crash(victim)
    redrawn = bench.query_batch(config.queries)
    assert sum(redrawn.values()) == config.queries
    assert victim not in {source for source, __ in redrawn}


@pytest.mark.parametrize("overlay", OVERLAYS)
def test_unobserved_cell_leaves_the_frequencies_alone(overlay):
    config = _config(overlay, "static-zipf")
    bench = stable_universe(config)
    network = bench.overlay

    def frequencies():
        return {node: network.node(node).tracker.snapshot() for node in network.alive_ids()}

    before = frequencies()
    stable_cell(config, "optimal", bench=bench)
    assert frequencies() == before


def _distinct_pairs(config: ExperimentConfig) -> int:
    """The stream's distinct ``(source, key)`` pairs, drawn here."""
    bench = _Bench(config, SeedSequenceRegistry(config.seed))
    live = bench.overlay.alive_ids()
    stream = bench.workload_stream("queries", horizon=config.queries / DEFAULT_RATE)
    queries = stream.stream(config.queries, lambda: live)
    return len({(query.source, query.item) for query in queries})


@pytest.fixture
def lookups(monkeypatch):
    """Counts every ``overlay.lookup`` call on all three overlays."""
    calls = []
    for cls in CLASSES.values():
        original = cls.__dict__["lookup"]

        def counted(self, *args, _original=original, **kwargs):
            calls.append(args[:2])
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "lookup", counted)
    return calls


class TestLookupCalls:
    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_unobserved_cell_routes_each_distinct_pair_once(self, lookups, overlay):
        config = _config(overlay, "static-zipf")
        distinct = _distinct_pairs(config)
        assert distinct < config.queries  # the stream repeats pairs
        stable_cell(config, "optimal")
        assert len(lookups) == len(set(lookups)) == distinct

    def test_both_policies_share_one_draw(self, lookups, monkeypatch):
        config = _config("chord", "static-zipf")
        draws = []
        workload_stream = _Bench.workload_stream

        def counted(self, name, *args, **kwargs):
            draws.append(name)
            return workload_stream(self, name, *args, **kwargs)

        monkeypatch.setattr(_Bench, "workload_stream", counted)
        run_stable(config)
        assert draws == ["queries"]
        assert len(lookups) == 2 * _distinct_pairs(config)

    @pytest.mark.parametrize(
        "observer",
        [
            {"trace": LookupTracer()},
            {"telemetry": RoundTelemetry(rounds=4)},
            {"record_access": True},
            {"on_lookup": _noop},
        ],
        ids=["trace", "telemetry", "record_access", "on_lookup"],
    )
    def test_observed_cell_routes_every_query(self, lookups, observer):
        config = _config("chord", "static-zipf")
        stable_cell(config, "optimal", **observer)
        assert len(lookups) == config.queries

    def test_faulted_cell_routes_every_query(self, lookups):
        config = _config("chord", "static-zipf", faults=FaultSchedule(loss_rate=0.05))
        stable_cell(config, "optimal")
        assert len(lookups) == config.queries

    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_cell_with_a_dead_node_routes_every_query(self, lookups, overlay):
        config = _config(overlay, "static-zipf")
        bench = stable_universe(config)
        bench.overlay.crash(bench.overlay.alive_ids()[0])
        stable_cell(config, "optimal", bench=bench)
        assert len(lookups) == config.queries


_outcomes = st.tuples(st.integers(0, 128), st.integers(0, 16), st.booleans())


def _result(outcome) -> LookupResult:
    hops, timeouts, succeeded = outcome
    return LookupResult(
        key=0,
        source=0,
        destination=0 if succeeded else None,
        hops=hops,
        timeouts=timeouts,
        succeeded=succeeded,
    )


@settings(max_examples=200, deadline=None)
@given(
    prior=st.lists(_outcomes, max_size=6),
    outcome=_outcomes,
    count=st.integers(1, 400),
    keep_samples=st.booleans(),
)
def test_record_with_count_equals_repeated_records(prior, outcome, count, keep_samples):
    folded = HopStatistics(keep_samples=keep_samples)
    repeated = HopStatistics(keep_samples=keep_samples)
    for earlier in prior:
        folded.record(_result(earlier))
        repeated.record(_result(earlier))
    result = _result(outcome)
    folded.record(result, count)
    for _ in range(count):
        repeated.record(result)
    assert folded == repeated
