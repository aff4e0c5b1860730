"""Workload generation: zipf popularities, item catalogs, query streams."""

from repro.workload.items import ItemCatalog, PopularityModel
from repro.workload.queries import Query
from repro.workload.zipf import ZipfDistribution

__all__ = [
    "ItemCatalog",
    "PopularityModel",
    "Query",
    "ZipfDistribution",
]

from repro.workload.dynamics import DynamicPopularity, FlashCrowd
from repro.workload.trace import QueryTrace, TimedQuery

__all__ += ["DynamicPopularity", "FlashCrowd", "QueryTrace", "TimedQuery"]

from repro.workload.spec import (
    WORKLOADS,
    WorkloadContext,
    WorkloadSpec,
    WorkloadStream,
    record_trace,
)

__all__ += [
    "WORKLOADS",
    "WorkloadContext",
    "WorkloadSpec",
    "WorkloadStream",
    "record_trace",
]
