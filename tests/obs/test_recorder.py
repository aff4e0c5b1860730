"""Unit tests for the trace recorder primitives."""

import pytest

from repro.obs.recorder import (
    POINTER_CLASSES,
    CounterSet,
    HopEvent,
    LookupTrace,
    LookupTracer,
    NullRecorder,
    TraceRecorder,
)
from repro.util.errors import ConfigurationError


def event(target, pointer_class="core", delivered=True, attempts=1, verdicts=()):
    timeouts = attempts - 1 if delivered else attempts
    return HopEvent(
        forwarder=0,
        target=target,
        pointer_class=pointer_class,
        delivered=delivered,
        attempts=attempts,
        timeouts=timeouts,
        penalty=float(sum(range(timeouts))),
        verdicts=tuple(verdicts),
    )


class FakeResult:
    def __init__(self, key=1, source=0, destination=9, succeeded=True, hops=1,
                 timeouts=0, penalty=0.0):
        self.key = key
        self.source = source
        self.destination = destination
        self.succeeded = succeeded
        self.hops = hops
        self.timeouts = timeouts
        self.penalty = penalty


class TestProtocol:
    def test_null_recorder_is_disabled(self):
        null = NullRecorder()
        assert null.enabled is False
        assert null.record_lookup(FakeResult(), []) is None

    def test_recorders_satisfy_the_protocol(self):
        assert isinstance(NullRecorder(), TraceRecorder)
        assert isinstance(LookupTracer(), TraceRecorder)
        assert isinstance(CounterSet(), TraceRecorder)


class TestLookupTrace:
    def test_path_includes_delivered_hops_only(self):
        trace = LookupTrace(
            key=5, source=10, destination=30, succeeded=True, hops=2, timeouts=1,
            penalty=0.0,
            events=(event(20), event(99, delivered=False, verdicts=["dead"]), event(30)),
        )
        assert trace.path == [10, 20, 30]

    def test_to_dict_round_trips_events(self):
        trace = LookupTrace(
            key=5, source=10, destination=None, succeeded=False, hops=0, timeouts=1,
            penalty=0.5, events=(event(7, delivered=False, verdicts=["dropped"]),),
        )
        document = trace.to_dict()
        assert document["succeeded"] is False
        assert document["events"][0]["verdicts"] == ["dropped"]


class TestCounterSet:
    def make(self):
        counters = CounterSet()
        counters.record_lookup(
            FakeResult(),
            [event(3, "auxiliary"), event(4, "successor", attempts=2, verdicts=["dropped"])],
        )
        counters.record_lookup(
            FakeResult(succeeded=False),
            [event(5, "core", delivered=False, attempts=2, verdicts=["dead", "dead"])],
        )
        return counters

    def test_aggregates(self):
        counters = self.make()
        assert counters.lookups == 2
        assert counters.succeeded == 1
        assert counters.failed == 1
        assert counters.hops_by_class == {"auxiliary": 1, "successor": 1}
        assert counters.timeouts_by_verdict == {"dropped": 1, "dead": 2}
        assert counters.retried_targets == 2
        assert counters.evictions == 1
        assert counters.total_hops == 2
        assert counters.total_timeouts == 3

    def test_to_dict_sorts_breakdowns(self):
        document = self.make().to_dict()
        assert list(document["hops_by_class"]) == sorted(document["hops_by_class"])
        assert list(document["timeouts_by_verdict"]) == sorted(document["timeouts_by_verdict"])


class TestLookupTracer:
    def test_rejects_non_positive_sample(self):
        with pytest.raises(ConfigurationError):
            LookupTracer(sample=0)

    def test_keeps_everything_without_sampling(self):
        tracer = LookupTracer()
        for key in range(10):
            tracer.record_lookup(FakeResult(key=key), [event(key)])
        assert tracer.seen == 10
        assert [trace.key for trace in tracer.traces] == list(range(10))

    def test_reservoir_bounds_kept_traces(self):
        tracer = LookupTracer(sample=8, seed=42)
        for key in range(300):
            tracer.record_lookup(FakeResult(key=key), [event(key)])
        assert tracer.seen == 300
        assert len(tracer.traces) == 8
        # The counters still saw every lookup — sampling only bounds storage.
        assert tracer.counters.lookups == 300
        assert tracer.counters.total_hops == 300

    def test_reservoir_is_deterministic_in_the_seed(self):
        def kept(seed):
            tracer = LookupTracer(sample=5, seed=seed)
            for key in range(100):
                tracer.record_lookup(FakeResult(key=key), [event(key)])
            return [trace.key for trace in tracer.traces]

        assert kept(7) == kept(7)
        assert kept(7) != kept(8)

    def test_pointer_classes_cover_the_vocabulary(self):
        # The attribution helpers in both routers only ever emit these.
        assert set(POINTER_CLASSES) == {
            "core", "successor", "leaf", "auxiliary", "fallback", "unknown"
        }
