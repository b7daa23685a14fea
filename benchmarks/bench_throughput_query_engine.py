"""Batch query engine throughput: queries/s of single vs batched answering.

Benchmarked operation: one full batched workload (uniform random pairs on
the largest run of the sweep) through :class:`repro.engine.QueryEngine`.
Printed series: per-scheme queries/second for the per-pair loop and the
batched engine, with the speedup factor.  The acceptance bar is a >= 3x
speedup on the schemes whose per-pair path pays per-query traversals
(bfs+skl, direct bfs), with the packed-bit direct-tcm kernel close behind.
"""

from __future__ import annotations

import random

from repro.bench.experiments import (
    comparison_specification,
    throughput_handle_path,
    throughput_query_engine,
)
from repro.engine import QueryEngine
from repro.skeleton.skl import SkeletonLabeler
from repro.workflow.execution import generate_run_with_size


def test_throughput_query_engine(benchmark, bench_scale, report_sink):
    spec = comparison_specification()
    labeler = SkeletonLabeler(spec, "bfs")
    run = generate_run_with_size(spec, bench_scale.run_sizes[-1], seed=0).run
    labeled = labeler.label_run(run)
    engine = QueryEngine(labeled)
    rng = random.Random(0)
    vertices = run.vertices()
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(10_000)]

    benchmark(lambda: engine.reaches_batch(pairs))

    result = report_sink(throughput_query_engine(bench_scale))
    by_scheme = {row["scheme"]: row for row in result.rows}

    # The headline claim: batching beats the per-pair loop >= 3x on the
    # schemes whose per-pair path does real per-query work (a spec-graph
    # traversal per fall-through for bfs+skl, a full run-graph traversal
    # per query for direct bfs).
    assert by_scheme["bfs+skl"]["speedup"] >= 3.0
    assert by_scheme["bfs"]["speedup"] >= 3.0
    # direct tcm pays a big-integer shift per query; the packed-bit kernel
    # beats it by ~3x at default scale (kept at 2x for timing headroom).
    # On the tiny smoke runs the shifts are cheap, so only gate the real
    # (>= 100k pair) workloads and require no-regression otherwise.
    if by_scheme["tcm"]["pairs"] >= 100_000:
        assert by_scheme["tcm"]["speedup"] >= 2.0
    else:
        assert by_scheme["tcm"]["speedup"] >= 1.0
    # tcm+skl queries are already a few integer comparisons; the batch
    # path must still not be slower.
    assert by_scheme["tcm+skl"]["speedup"] >= 1.0


def test_throughput_handle_path(benchmark, bench_scale, report_sink):
    spec = comparison_specification()
    labeler = SkeletonLabeler(spec, "tcm")
    run = generate_run_with_size(spec, bench_scale.run_sizes[-1], seed=0).run
    engine = QueryEngine(labeler.label_run(run))
    rng = random.Random(0)
    vertices = run.vertices()
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(10_000)]
    # the one-time boundary conversion, then a pure handle replay
    source_ids, target_ids = engine.intern_pairs(pairs)

    benchmark(lambda: engine.reaches_many_ids(source_ids, target_ids))

    result = report_sink(throughput_handle_path(bench_scale))
    by_scheme = {row["scheme"]: row for row in result.rows}

    # Every row must at least break even: replaying pre-interned handles can
    # never be slower than re-resolving the same pairs per call.
    for row in result.rows:
        assert row["speedup"] is not None and row["speedup"] >= 1.0, row

    # The headline claim of the interned-handle refactor: on kernels that
    # are pure array arithmetic, the object path spent most of its time
    # resolving vertices to ids, so interning once buys >= 3x (measured
    # ~8-16x at smoke and default scales).
    assert by_scheme["tcm+skl"]["speedup"] >= 3.0
    assert by_scheme["tcm"]["speedup"] >= 3.0
    # The schemes that used to run on the generic kernel now compile
    # flattened offset-array kernels.
    assert by_scheme["tree-cover"]["kernel"] == "numpy-tree-cover"
    assert by_scheme["chain"]["kernel"] == "numpy-chain"
    assert by_scheme["2-hop"]["kernel"] == "numpy-2hop"
