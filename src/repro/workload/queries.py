"""The query record every workload stream yields.

A query is a ``(source_node, item_id)`` pair: a live node asks the overlay
for an item. The streams of :mod:`repro.workload.spec` draw them; the
paper's static stream picks the source uniformly from the live
population and the item from the source's assigned popularity ranking —
its setup where "the queries are samples from this distribution".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Query"]


@dataclass(frozen=True)
class Query:
    """One lookup request: ``source`` asks for ``item`` (a key in id space)."""

    source: int
    item: int
