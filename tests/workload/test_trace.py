"""Tests for query-trace recording, persistence and replay."""

import pytest

from repro.util.errors import ConfigurationError
from repro.workload.queries import Query
from repro.workload.trace import QueryTrace


class TestRecording:
    def test_record_and_iterate(self):
        trace = QueryTrace()
        trace.record(0.0, 1, 100)
        trace.record(1.5, 2, 200)
        assert len(trace) == 2
        assert [entry.item for entry in trace] == [100, 200]
        assert trace.sources() == {1, 2}

    def test_times_must_not_decrease(self):
        trace = QueryTrace()
        trace.record(5.0, 1, 100)
        with pytest.raises(ConfigurationError):
            trace.record(4.0, 1, 101)

    def test_between(self):
        trace = QueryTrace()
        for t in range(5):
            trace.record(float(t), 1, t)
        assert [entry.item for entry in trace.between(1.0, 3.0)] == [1, 2]

    def test_from_queries_spacing(self):
        trace = QueryTrace.from_queries([Query(1, 10), Query(2, 20)], rate=2.0)
        assert [entry.time for entry in trace] == [0.0, 0.5]
        with pytest.raises(ConfigurationError):
            QueryTrace.from_queries([], rate=0.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trace = QueryTrace(metadata={"alpha": 1.2})
        trace.record(0.0, 3, 300)
        trace.record(2.5, 4, 400)
        path = tmp_path / "queries.jsonl"
        trace.save(path)
        loaded = QueryTrace.load(path)
        assert loaded.metadata == {"alpha": 1.2}
        assert loaded.entries == trace.entries

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ConfigurationError):
            QueryTrace.load(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            QueryTrace.load(path)

    def test_rejects_malformed_entry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-query-trace-v1", "metadata": {}, "count": 1}\n'
            '{"t": 0.0, "src": 1}\n'
        )
        with pytest.raises(ConfigurationError, match="malformed"):
            QueryTrace.load(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text(
            '{"format": "repro-query-trace-v1", "metadata": {}, "count": 2}\n'
            '{"t": 0.0, "src": 1, "item": 5}\n'
        )
        with pytest.raises(ConfigurationError, match="promises"):
            QueryTrace.load(path)

    def test_rejects_headerless_file_with_line_number(self, tmp_path):
        # A file that starts straight with entries has no header object;
        # the error must be ConfigurationError (never a raw KeyError) and
        # must point at line 1.
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"t": 0.0, "src": 1, "item": 5}\n')
        with pytest.raises(ConfigurationError, match=r"headerless\.jsonl:1: not a"):
            QueryTrace.load(path)

    def test_rejects_unparseable_header_with_line_number(self, tmp_path):
        # Garbage on line 1 must surface as ConfigurationError, not leak
        # json.JSONDecodeError to the caller.
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ConfigurationError, match=r"garbage\.jsonl:1: malformed trace header"):
            QueryTrace.load(path)

    def test_rejects_non_object_header(self, tmp_path):
        path = tmp_path / "listheader.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigurationError, match="must be a JSON object, got list"):
            QueryTrace.load(path)

    def test_wrong_format_version_names_the_expected_format(self, tmp_path):
        path = tmp_path / "v0.jsonl"
        path.write_text('{"format": "repro-query-trace-v0", "metadata": {}, "count": 0}\n')
        with pytest.raises(
            ConfigurationError,
            match=r"not a repro-query-trace-v1 file \(format='repro-query-trace-v0'\)",
        ):
            QueryTrace.load(path)

    def test_malformed_entry_cites_its_line_number(self, tmp_path):
        path = tmp_path / "badline.jsonl"
        path.write_text(
            '{"format": "repro-query-trace-v1", "metadata": {}, "count": 2}\n'
            '{"t": 0.0, "src": 1, "item": 5}\n'
            "not json either\n"
        )
        with pytest.raises(ConfigurationError, match=r"badline\.jsonl:3: malformed trace entry"):
            QueryTrace.load(path)

    def test_non_numeric_entry_payload_is_configuration_error(self, tmp_path):
        # A schema-valid line with a broken payload (entry is a list, so
        # indexing by key raises TypeError internally) is still reported
        # as ConfigurationError with its line number.
        path = tmp_path / "weird.jsonl"
        path.write_text(
            '{"format": "repro-query-trace-v1", "metadata": {}, "count": 1}\n'
            "[0.0, 1, 5]\n"
        )
        with pytest.raises(ConfigurationError, match=r"weird\.jsonl:2: malformed trace entry"):
            QueryTrace.load(path)


class TestMissingFile:
    def test_missing_trace_is_a_configuration_error_naming_the_path(self, tmp_path):
        missing = tmp_path / "no-such-trace.jsonl"
        with pytest.raises(ConfigurationError, match=r"no-such-trace\.jsonl"):
            QueryTrace.load(missing)


class TestReplay:
    def test_replay_reproducible(self, small_universe):
        ring = small_universe("chord", n=16, bits=14, seed=1)
        ids = ring.alive_ids()
        trace = QueryTrace.from_queries([Query(ids[0], 100), Query(ids[1], 5000)])
        first = [r.hops for r in trace.replay_onto(ring)]
        second = [r.hops for r in trace.replay_onto(ring)]
        assert first == second
        assert all(r.succeeded for r in trace.replay_onto(ring))

    def test_replay_skips_dead_and_unknown_sources(self, small_universe):
        ring = small_universe("chord", n=8, bits=14, seed=2)
        ids = ring.alive_ids()
        stranger = next(i for i in range(2**14) if i not in ring.nodes)
        trace = QueryTrace.from_queries(
            [Query(ids[0], 1), Query(ids[1], 2), Query(stranger, 3)]
        )
        ring.crash(ids[1])
        results = trace.replay_onto(ring)
        assert len(results) == 1
