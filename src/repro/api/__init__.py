"""The unified declarative query API.

One session, one entry point, every target: build a
:class:`ProvenanceSession` over a live index, a labeled or still-executing
run, or a provenance store, and ``session.run(query)`` any of the
declarative query objects — :class:`PointQuery`, :class:`BatchQuery`,
:class:`DownstreamQuery`, :class:`UpstreamQuery`, :class:`CrossRunQuery`,
:class:`DataDependencyQuery`.  Queries compile once into plans over the
kernel layer (:mod:`repro.engine`) and execute any number of times; the
scheme-specific fast paths (vectorized kernels, interned handle replay,
the store's label and spec-kernel caches) are picked by the planner from
each target's declared capability flags.
"""

from repro.api.plans import HANDLE_PATH_MIN_PAIRS, QueryPlan, compile_plan
from repro.api.workload import (
    decode_pair_workload,
    read_pair_workload,
    write_pair_workload,
)
from repro.api.queries import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunBatchResult,
    CrossRunPointQuery,
    CrossRunPointResult,
    CrossRunQuery,
    CrossRunSweepResult,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    UpstreamQuery,
)
from repro.api.session import ProvenanceSession

__all__ = [
    "ProvenanceSession",
    "PointQuery",
    "BatchQuery",
    "DownstreamQuery",
    "UpstreamQuery",
    "CrossRunQuery",
    "CrossRunBatchQuery",
    "CrossRunPointQuery",
    "DataDependencyQuery",
    "CrossRunSweepResult",
    "CrossRunBatchResult",
    "CrossRunPointResult",
    "QueryPlan",
    "compile_plan",
    "HANDLE_PATH_MIN_PAIRS",
    "write_pair_workload",
    "read_pair_workload",
    "decode_pair_workload",
]
