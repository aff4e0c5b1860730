"""Columnar struct-of-arrays simulation engine (DESIGN.md §10).

The object-graph overlays (:mod:`repro.chord`, :mod:`repro.pastry`) are
the ground-truth oracle: every routing decision is a Python-level walk
over per-node sets and sorted lists. That caps figure cells at a few
thousand nodes. This package re-expresses a *frozen* overlay as flat
NumPy arrays — one sorted id array plus CSR neighbor matrices — and
routes an entire batch of lookups as a frontier advanced one hop per
vectorized step.

Layout of the package:

* :mod:`repro.engine.columnar` — the snapshot types
  (:class:`ColumnarChord`, :class:`ColumnarPastry`) and the functions
  that freeze a live overlay into them.
* :mod:`repro.engine.router` — the batched frontier routers and the
  :class:`BatchRouteResult` fold into :class:`~repro.sim.metrics.
  HopStatistics`.
* :mod:`repro.engine.dispatch` — engine selection (``auto`` /
  ``objects`` / ``columnar``) and the supportability rules.

The columnar path is *bit-identical* to the object path on the
workloads it supports (stable mode, no faults, no telemetry): the
snapshot copies the exact tables the object router would consult, the
frontier replicates the per-hop decision rules operation for operation,
and the statistics folds are exact integer sums in float64.
"""

from repro.engine.dispatch import (
    COLUMNAR_AUTO_THRESHOLD,
    COLUMNAR_MAX_BITS,
    ENGINES,
    columnar_support,
    resolve_engine,
)

__all__ = [
    "COLUMNAR_AUTO_THRESHOLD",
    "COLUMNAR_MAX_BITS",
    "ENGINES",
    "columnar_support",
    "resolve_engine",
]
