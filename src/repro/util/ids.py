"""Identifier-space arithmetic shared by the Chord and Pastry substrates.

Both overlays place peers on a circular identifier space of ``2**bits``
points. This module centralizes the arithmetic the rest of the library
needs:

* clockwise ring gaps and interval membership (Chord),
* longest-common-prefix lengths and digit extraction (Pastry),
* stable hashing of arbitrary item names into the id space.

Identifiers are plain Python ``int`` values in ``[0, 2**bits)``. An
:class:`IdSpace` instance carries the ``bits`` parameter so callers never
pass it around separately.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from repro.util.errors import IdSpaceError

__all__ = ["IdSpace", "DEFAULT_BITS"]

#: The paper's experiments use 32-bit binary identifiers (Section VI-A).
DEFAULT_BITS = 32


@dataclass(frozen=True)
class IdSpace:
    """A circular identifier space of ``2**bits`` points.

    Parameters
    ----------
    bits:
        Identifier length ``b`` in bits. The paper's simulations use 32.
    """

    bits: int = DEFAULT_BITS

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < 1:
            raise IdSpaceError(f"bits must be a positive integer, got {self.bits!r}")
        if self.bits > 256:
            raise IdSpaceError(f"bits={self.bits} is unreasonably large (max 256)")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    # ``size``/``mask`` sit on the routing hot path (two reads per
    # forwarded hop); caching them keeps ``gap`` from re-allocating the
    # ``1 << bits`` big int on every call. ``bits`` is frozen, so the
    # cached values can never go stale.
    @cached_property
    def size(self) -> int:
        """Number of points in the id space (``2**bits``)."""
        return 1 << self.bits

    @cached_property
    def mask(self) -> int:
        """Bit mask selecting the low ``bits`` bits."""
        return self.size - 1

    def contains(self, value: int) -> bool:
        """Return ``True`` when ``value`` is a valid identifier."""
        return isinstance(value, int) and 0 <= value < self.size

    def validate(self, value: int, what: str = "identifier") -> int:
        """Return ``value`` unchanged, raising :class:`IdSpaceError` if invalid."""
        if not self.contains(value):
            raise IdSpaceError(f"{what} {value!r} outside [0, 2**{self.bits})")
        return value

    def sample(self, rng: random.Random, count: int) -> list[int]:
        """``count`` distinct random ids drawn from ``rng``.

        ``range`` objects wider than ``ssize_t`` cannot be sampled, so
        spaces over 62 bits rejection-sample instead (collisions are
        redrawn) and return the ids ascending.
        """
        if self.bits <= 62:
            return rng.sample(range(self.size), count)
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(rng.randrange(self.size))
        return sorted(chosen)

    # ------------------------------------------------------------------
    # Ring arithmetic (Chord)
    # ------------------------------------------------------------------
    def gap(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end``: ``(end - start) mod 2**b``."""
        return (end - start) & self.mask

    def add(self, value: int, offset: int) -> int:
        """Return ``(value + offset) mod 2**b`` (offset may be negative)."""
        return (value + offset) & self.mask

    def in_open_interval(self, value: int, start: int, end: int) -> bool:
        """Return ``True`` when ``value`` lies strictly between ``start`` and
        ``end`` walking clockwise (the Chord ``(start, end)`` interval)."""
        if start == end:
            # A zero-length interval wraps the whole ring minus the endpoint.
            return value != start
        return 0 < self.gap(start, value) < self.gap(start, end)

    def in_half_open_interval(self, value: int, start: int, end: int) -> bool:
        """Return ``True`` when ``value`` is in the clockwise ``(start, end]``."""
        if start == end:
            return True
        return 0 < self.gap(start, value) <= self.gap(start, end)

    def chord_distance(self, source: int, target: int) -> int:
        """Hop-count estimate from ``source`` to ``target`` (paper eq. 6).

        ``d_uv = 1 + floor(log2((v - u) mod 2**b))`` — equivalently the
        1-indexed position of the left-most '1' bit in the clockwise gap,
        which Python's ``int.bit_length`` computes directly. ``d_uu = 0``.
        """
        return self.gap(source, target).bit_length()

    # ------------------------------------------------------------------
    # Prefix arithmetic (Pastry)
    # ------------------------------------------------------------------
    def common_prefix_length(self, a: int, b: int) -> int:
        """Length (in bits) of the longest common prefix of two identifiers."""
        self.validate(a, "id a")
        self.validate(b, "id b")
        diff = a ^ b
        if diff == 0:
            return self.bits
        return self.bits - diff.bit_length()

    def pastry_distance(self, a: int, b: int) -> int:
        """Hop-count estimate between Pastry nodes: ``b - lcp(a, b)``.

        Section IV: with binary digits, the number of hops needed to fix the
        remaining bits is at most the number of unshared bits.
        """
        return self.bits - self.common_prefix_length(a, b)

    def bit_at(self, value: int, index: int) -> int:
        """Return the bit of ``value`` at position ``index`` counting from
        the most-significant bit (index 0 = MSB). Pastry routing consumes
        identifiers digit-by-digit from the top."""
        if not 0 <= index < self.bits:
            raise IdSpaceError(f"bit index {index} outside [0, {self.bits})")
        return (value >> (self.bits - 1 - index)) & 1

    def digit_at(self, value: int, index: int, digit_bits: int) -> int:
        """Return the ``index``-th base-``2**digit_bits`` digit from the top.

        The final digit may cover fewer bits when ``bits`` is not a multiple
        of ``digit_bits``; it is right-aligned like the others.
        """
        if digit_bits < 1:
            raise IdSpaceError(f"digit_bits must be >= 1, got {digit_bits}")
        rows = self.num_digits(digit_bits)
        if not 0 <= index < rows:
            raise IdSpaceError(f"digit index {index} outside [0, {rows})")
        high = self.bits - index * digit_bits
        low = max(high - digit_bits, 0)
        return (value >> low) & ((1 << (high - low)) - 1)

    def num_digits(self, digit_bits: int) -> int:
        """Number of base-``2**digit_bits`` digits in an identifier."""
        if digit_bits < 1:
            raise IdSpaceError(f"digit_bits must be >= 1, got {digit_bits}")
        return -(-self.bits // digit_bits)

    def prefix(self, value: int, length: int) -> int:
        """Return the top ``length`` bits of ``value`` (right-aligned)."""
        if not 0 <= length <= self.bits:
            raise IdSpaceError(f"prefix length {length} outside [0, {self.bits}]")
        if length == 0:
            return 0
        return value >> (self.bits - length)

    def to_bits(self, value: int) -> str:
        """Render ``value`` as a fixed-width binary string (debugging aid)."""
        self.validate(value)
        return format(value, f"0{self.bits}b")

    def from_bits(self, text: str) -> int:
        """Parse a binary string produced by :meth:`to_bits`."""
        if len(text) != self.bits or set(text) - {"0", "1"}:
            raise IdSpaceError(f"{text!r} is not a {self.bits}-bit binary string")
        return int(text, 2)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def hash_name(self, name: str, salt: str = "") -> int:
        """Deterministically hash an item name into the id space.

        Uses SHA-1 like the original Chord/Pastry papers, truncated to
        ``bits`` bits. ``salt`` lets callers derive independent mappings.
        """
        digest = hashlib.sha1((salt + name).encode("utf-8")).digest()
        return int.from_bytes(digest, "big") & self.mask
