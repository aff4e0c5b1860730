"""Small argument-validation helpers used across the library.

These keep the public constructors short and make error messages uniform.
All helpers raise :class:`repro.util.errors.ConfigurationError`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.util.errors import ConfigurationError

__all__ = [
    "require",
    "require_positive_int",
    "require_non_negative_int",
    "require_positive",
    "require_probability",
    "require_unique",
    "require_frequencies",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` greater than zero."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is an ``int`` greater than or equal to zero."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number greater than zero."""
    try:
        ok = value > 0 and value == value and value != float("inf")
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    try:
        ok = 0.0 <= value <= 1.0
    except TypeError:
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def require_unique(values: Iterable[int], name: str) -> list[int]:
    """Validate that ``values`` contains no duplicates; return it as a list."""
    items = list(values)
    if len(set(items)) != len(items):
        raise ConfigurationError(f"{name} contains duplicate entries")
    return items


_INF = float("inf")
_INT = frozenset({int})
_FLOAT = frozenset({float})


def require_frequencies(frequencies: Mapping[int, float], name: str = "frequencies") -> None:
    """Validate a peer-frequency mapping: integer ids, finite non-negative
    weights.

    ``int`` ids with ``float`` weights, the shape of every tracker
    snapshot, are checked in bulk: one pass over the key types, one over
    the value types, then ``min`` and ``sum`` of the values (the sum is
    NaN or infinite when any weight is). Any other mapping, or one that
    fails a bulk check, goes through the per-entry loop, which accepts
    what it accepts and raises the first offender's message.
    """
    values = frequencies.values()
    if (
        _INT.issuperset(map(type, frequencies))
        and _FLOAT.issuperset(map(type, values))
        and (not values or (0.0 <= min(values) and sum(values) < _INF))
    ):
        return
    for peer, weight in frequencies.items():
        if not isinstance(peer, int) or isinstance(peer, bool):
            raise ConfigurationError(f"{name} key {peer!r} is not an integer id")
        try:
            ok = weight >= 0 and weight != _INF
        except TypeError:
            ok = False
        if not ok:
            raise ConfigurationError(f"{name}[{peer}] must be a finite non-negative number, got {weight!r}")
