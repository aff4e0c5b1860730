"""Shared datatypes for the auxiliary-neighbor selection layer.

The selection algorithms (Sections IV and V of the paper) all consume the
same inputs — per-peer access frequencies, a set of core neighbors, a
pointer budget ``k`` — and all produce a :class:`SelectionResult`.
:class:`SelectionProblem` bundles the inputs so overlays, experiments and
tests construct problems uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.validation import require_frequencies, require_non_negative_int

__all__ = ["SelectionProblem", "SelectionResult"]


@dataclass(frozen=True)
class SelectionProblem:
    """Inputs to an auxiliary-neighbor selection (paper Section III).

    Attributes
    ----------
    space:
        The identifier space both ids and distances live in.
    source:
        Identifier of the node ``s`` performing the selection.
    frequencies:
        ``{peer_id: access_frequency}`` for the peers ``V`` that ``s`` has
        observed queries for. Must not contain ``source``.
    core_neighbors:
        Identifiers of the core routing-table neighbors ``N_s``. These are
        "free" pointers: they shape the cost but consume no budget.
    k:
        Number of auxiliary pointers to select.
    delay_bounds:
        Optional QoS constraints: ``{peer_id: max_hops}`` requiring the
        estimated lookup distance ``1 + d(...)`` for that peer to be at most
        ``max_hops`` (Sections IV-D and V-C). Must not contain ``source``.
    chunk:
        The :class:`repro.selection.InstallChunk` this problem was built
        in, if any: an optimal policy with a batch form solves the chunk's
        problems together. Not part of the problem (ignored by ``==``).
    """

    space: IdSpace
    source: int
    frequencies: Mapping[int, float]
    core_neighbors: frozenset[int]
    k: int
    delay_bounds: Mapping[int, int] = field(default_factory=dict)
    chunk: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        space = self.space
        space.validate(self.source, "source id")
        require_non_negative_int(self.k, "k")
        require_frequencies(self.frequencies)
        # The keys are ints (checked above), so one min/max range-checks
        # them all; the per-id loop only runs to raise the first bad id.
        if self.frequencies and not (
            0 <= min(self.frequencies) and max(self.frequencies) < space.size
        ):
            for peer in self.frequencies:
                space.validate(peer, "peer id")
        if self.source in self.frequencies:
            raise ConfigurationError("frequencies must not include the source node itself")
        for neighbor in self.core_neighbors:
            self.space.validate(neighbor, "core neighbor id")
        if self.source in self.core_neighbors:
            raise ConfigurationError("core_neighbors must not include the source node itself")
        for peer, bound in self.delay_bounds.items():
            self.space.validate(peer, "QoS peer id")
            if peer == self.source:
                raise ConfigurationError("delay_bounds must not include the source node itself")
            if not isinstance(bound, int) or bound < 1:
                raise ConfigurationError(f"delay bound for peer {peer} must be an int >= 1, got {bound!r}")

    @property
    def candidates(self) -> set[int]:
        """Peers eligible to become auxiliary neighbors:
        ``(V ∪ bounded peers) - N_s``. A bounded peer that was never
        queried is still eligible: pointing at it may be the only way to
        meet its bound, and the DP solvers do select it."""
        return (set(self.frequencies) | set(self.delay_bounds)) - set(self.core_neighbors)

    def with_k(self, k: int) -> "SelectionProblem":
        """Return a copy of this problem with a different pointer budget."""
        return SelectionProblem(
            space=self.space,
            source=self.source,
            frequencies=self.frequencies,
            core_neighbors=self.core_neighbors,
            k=k,
            delay_bounds=self.delay_bounds,
        )


@dataclass(frozen=True)
class SelectionResult:
    """Output of an auxiliary-neighbor selection.

    Attributes
    ----------
    auxiliary:
        The chosen auxiliary neighbor ids, ``|auxiliary| <= k``.
    cost:
        Value of the paper's objective (eq. 1),
        ``sum_v f_v * (1 + d(v, N_s ∪ A_s))``, for this selection.
    algorithm:
        Short name of the algorithm that produced the result
        (useful when comparing implementations in benchmarks).
    """

    auxiliary: frozenset[int]
    cost: float
    algorithm: str

    def __post_init__(self) -> None:
        if not (self.cost >= 0):
            raise ConfigurationError(f"cost must be non-negative, got {self.cost!r}")
