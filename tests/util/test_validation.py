"""Unit tests for the argument-validation helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.validation import (
    require,
    require_frequencies,
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_probability,
    require_unique,
)


class TestRequire:
    def test_passes_silently(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestIntValidators:
    def test_positive_int_accepts(self):
        assert require_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True, "3"])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            require_positive_int(bad, "x")

    def test_non_negative_accepts_zero(self):
        assert require_non_negative_int(0, "x") == 0

    @pytest.mark.parametrize("bad", [-1, 1.5, False])
    def test_non_negative_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            require_non_negative_int(bad, "x")


class TestFloatValidators:
    def test_positive_accepts(self):
        assert require_positive(0.5, "x") == 0.5

    @pytest.mark.parametrize("bad", [0, -0.1, float("inf"), float("nan"), "1"])
    def test_positive_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            require_positive(bad, "x")

    def test_probability_bounds(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0
        with pytest.raises(ConfigurationError):
            require_probability(1.01, "p")
        with pytest.raises(ConfigurationError):
            require_probability(-0.01, "p")


class TestCollections:
    def test_unique_accepts(self):
        assert require_unique([1, 2, 3], "xs") == [1, 2, 3]

    def test_unique_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            require_unique([1, 2, 2], "xs")

    def test_frequencies_accepts(self):
        require_frequencies({1: 0.0, 2: 3.5})

    @pytest.mark.parametrize(
        "bad",
        [
            {1.5: 1.0},
            {True: 1.0},
            {1: -0.1},
            {1: float("inf")},
            {1: float("nan")},
            {1: "a"},
            {1: None},
            {1: 1j},
            {1: 2.0, 2: float("nan"), 3: 1.0},
            {1: 2.0, 2: -0.5, 3: 1.0},
            {1: 2.0, 2: float("inf")},
        ],
    )
    def test_frequencies_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="frequencies"):
            require_frequencies(bad)

    @given(
        st.dictionaries(
            st.one_of(st.integers(-3, 40), st.booleans(), st.sampled_from([1.5, "7"])),
            st.one_of(
                st.floats(),
                st.integers(-2, 9),
                st.sampled_from([None, "1.5", 1j, True, 1e308, 2**60]),
            ),
            max_size=8,
        )
    )
    def test_frequencies_bulk_check_equals_per_entry_loop(self, frequencies):
        """The bulk check accepts exactly what the per-entry loop accepts
        and raises the first offender's message."""
        expected = None
        for peer, weight in frequencies.items():
            if not isinstance(peer, int) or isinstance(peer, bool):
                expected = f"frequencies key {peer!r} is not an integer id"
                break
            try:
                ok = weight >= 0 and weight != float("inf")
            except TypeError:
                ok = False
            if not ok:
                expected = f"frequencies[{peer}] must be a finite non-negative number, got {weight!r}"
                break
        if expected is None:
            require_frequencies(frequencies)
        else:
            with pytest.raises(ConfigurationError) as raised:
                require_frequencies(frequencies)
            assert str(raised.value) == expected
