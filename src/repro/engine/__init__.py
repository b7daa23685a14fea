"""Batched reachability query engine.

The labeling layer answers one ``(source, target)`` query per call, which is
the right interface for correctness proofs but leaves most of the constant
factor on the table when provenance workloads replay millions of queries
against a stored run.  This subsystem provides the batch-oriented path:

* :class:`~repro.engine.query.QueryEngine` — accepts batches of
  ``(source, target)`` pairs over any labeling index (a
  :class:`~repro.labeling.base.ReachabilityIndex` or a
  :class:`~repro.skeleton.skl.SkeletonLabeledRun`), resolves each distinct
  vertex's label once, memoizes hot point-query pairs in an LRU cache and
  dispatches batches to a per-scheme kernel;
* :mod:`repro.engine.kernels` — the compiled per-index batch kernels
  (numpy-vectorized for every scheme with an array kernel, the scheme's
  own ``reaches_many`` loop for the rest);
* :class:`~repro.engine.query.EngineStats` — running counters (queries,
  batches, cache hits) for capacity planning and tests.

The per-scheme batch loops live with their schemes
(``ReachabilityIndex.reaches_many`` and its overrides); the CSR substrate
used by the traversal schemes lives in :mod:`repro.graphs.csr`.
"""

from repro.engine.kernels import SpecKernel, build_kernel, compile_spec_kernel
from repro.engine.online import OnlineKernel, OnlineKernelStats
from repro.engine.parallel import (
    CrossRunExecutor,
    MAX_AUTO_WORKERS,
    PARALLEL_MIN_RUNS,
    PREFETCH_CHUNK_RUNS,
    resolve_workers,
)
from repro.engine.query import DEFAULT_CACHE_SIZE, EngineStats, QueryEngine

__all__ = [
    "QueryEngine",
    "EngineStats",
    "DEFAULT_CACHE_SIZE",
    "build_kernel",
    "SpecKernel",
    "compile_spec_kernel",
    "OnlineKernel",
    "OnlineKernelStats",
    "CrossRunExecutor",
    "resolve_workers",
    "PARALLEL_MIN_RUNS",
    "PREFETCH_CHUNK_RUNS",
    "MAX_AUTO_WORKERS",
]
