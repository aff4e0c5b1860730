"""Unit tests for SelectionProblem / SelectionResult validation."""

import pytest

from repro.core.types import SelectionProblem, SelectionResult
from repro.util.errors import ConfigurationError, IdSpaceError
from repro.util.ids import IdSpace


def make(**overrides):
    defaults = dict(
        space=IdSpace(8),
        source=1,
        frequencies={2: 1.0, 3: 2.0},
        core_neighbors=frozenset({4}),
        k=1,
    )
    defaults.update(overrides)
    return SelectionProblem(**defaults)


class TestSelectionProblem:
    def test_valid_construction(self):
        problem = make()
        assert problem.candidates == {2, 3}

    def test_candidates_exclude_core(self):
        problem = make(frequencies={2: 1.0, 4: 5.0})
        assert problem.candidates == {2}

    def test_rejects_source_in_frequencies(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={1: 1.0})

    def test_rejects_source_as_core(self):
        with pytest.raises(ConfigurationError):
            make(core_neighbors=frozenset({1}))

    def test_rejects_source_in_delay_bounds(self):
        # A bound on the source would make the source its own pointer.
        with pytest.raises(ConfigurationError, match="source"):
            make(delay_bounds={1: 1})

    def test_rejects_negative_k(self):
        with pytest.raises(ConfigurationError):
            make(k=-1)

    def test_rejects_out_of_space_ids(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={999: 1.0})
        with pytest.raises(ConfigurationError):
            make(core_neighbors=frozenset({999}))
        with pytest.raises(ConfigurationError):
            make(source=999)

    def test_bad_frequency_id_messages(self):
        # The range check runs once over all ids; a bad one still gets
        # the per-id error, naming the first bad id in mapping order.
        with pytest.raises(IdSpaceError, match=r"^peer id -1 outside \[0, 2\*\*8\)$"):
            make(frequencies={2: 1.0, -1: 1.0})
        with pytest.raises(IdSpaceError, match=r"^peer id 256 outside \[0, 2\*\*8\)$"):
            make(frequencies={2: 1.0, 256: 1.0, -3: 2.0})

    def test_chunk_is_not_part_of_the_problem(self):
        problem = make()
        assert make(chunk=object()) == problem
        assert "chunk" not in repr(problem)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ConfigurationError):
            make(frequencies={2: -1.0})

    def test_rejects_bad_delay_bound(self):
        with pytest.raises(ConfigurationError):
            make(delay_bounds={2: 0})
        with pytest.raises(ConfigurationError):
            make(delay_bounds={2: 1.5})

    def test_with_k_copies(self):
        problem = make()
        bigger = problem.with_k(5)
        assert bigger.k == 5
        assert bigger.frequencies == problem.frequencies
        assert problem.k == 1  # original untouched


class TestSelectionResult:
    def test_valid(self):
        result = SelectionResult(frozenset({1, 2}), 10.0, "test")
        assert result.auxiliary == {1, 2}

    def test_rejects_negative_cost(self):
        with pytest.raises(ConfigurationError):
            SelectionResult(frozenset(), -1.0, "test")

    def test_rejects_nan_cost(self):
        with pytest.raises(ConfigurationError):
            SelectionResult(frozenset(), float("nan"), "test")
