"""Parallel cross-run execution vs the sequential PR 3 paths.

Benchmarked operation: one :class:`repro.api.CrossRunBatchQuery` (the
same pairs asked of every stored run of one specification) through a
store-backed session.  Printed series: per-scheme sweep timings of the
sequential PR 3 streaming path vs the parallel executor's worker threads,
the cross-batch streaming path vs the per-run engine
loop PR 3 offered for the same question, and the incremental
``OnlineRun`` kernel vs the per-append engine rebuild it replaces.

Acceptance bars: the cross-run batch must beat the per-run engine loop
>= 2x at default scale (it streams label columns through the shared spec
kernel instead of materializing a full cached engine per run), the
incremental online kernel must beat the per-append rebuild, and — on
hosts with >= 4 real cores — the parallel sweep must beat the sequential
PR 3 sweep >= 2x.  Parallel rows on few-core hosts legitimately dip below
1x (the production executor auto-selects the sequential path on one
core), so no parallel bar applies below 4 cores.
"""

from __future__ import annotations

import os

from repro.api.queries import CrossRunBatchQuery, CrossRunQuery
from repro.api.session import ProvenanceSession
from repro.bench.experiments import (
    comparison_specification,
    throughput_parallel_cross_run,
)
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


def test_throughput_parallel_cross_run(benchmark, bench_scale, report_sink, tmp_path):
    spec = comparison_specification()
    labeler = SkeletonLabeler(spec, "tcm")
    store = ProvenanceStore(tmp_path / "bench.db")
    vertices = None
    for seed in range(4):
        generated = generate_run_with_size(
            spec, bench_scale.run_sizes[0], seed=seed, name=f"bench-run-{seed}"
        )
        if vertices is None:
            vertices = generated.run.vertices()
        store.add_labeled_run(labeler.label_run(generated.run))
    session = ProvenanceSession(store)
    anchor_module = min(
        v for v in spec.graph.vertices() if not spec.graph.predecessors(v)
    )
    pairs = [((anchor_module, 1), (v.module, v.instance)) for v in vertices[:64]]
    query = CrossRunBatchQuery(spec.name, pairs)

    benchmark(lambda: session.run(query))

    # the parallel sweep must agree with the forced-sequential one exactly
    sweep_parallel = session.run(
        CrossRunQuery(spec.name, (anchor_module, 1), workers=2)
    )
    sweep_sequential = session.run(
        CrossRunQuery(spec.name, (anchor_module, 1), workers=1)
    )
    assert sweep_parallel.per_run == sweep_sequential.per_run
    store.close()

    result = report_sink(throughput_parallel_cross_run(bench_scale))
    rows = {
        (row["workload"], row["spec_scheme"], row["mode"]): row
        for row in result.rows
    }

    # Every measured row carries a real ratio; correctness (parallel ==
    # sequential, batch == engine loop, incremental == rebuild) is enforced
    # inside the experiment before any number is reported.
    for row in result.rows:
        assert row["speedup"] is not None and row["speedup"] > 0, row

    default_scale = rows[("sweep", "tcm", "thread")]["vertices_per_run"] >= 3_000
    if default_scale:
        # The headline claims at default scale: streaming the shared spec
        # kernel beats building a full cached engine per run >= 2x on the
        # cross-run batch (measured 2.5-2.9x single-core), and the
        # incremental online kernel beats the per-append rebuild
        # (measured ~2.7x).
        assert rows[("cross-batch", "tree-cover", "auto")]["speedup"] >= 2.0
        assert rows[("cross-batch", "tcm", "auto")]["speedup"] >= 2.0
        assert rows[("online-append", "tcm", "incremental")]["speedup"] >= 1.5
        if (os.cpu_count() or 1) >= 4:
            # With real cores the parallel executor must beat the
            # sequential PR 3 sweep >= 2x (worker threads fetch and
            # evaluate their chunks over private read-only connections).
            for scheme in ("tree-cover", "tcm"):
                speedup = rows[("sweep", scheme, "thread")]["speedup"]
                assert speedup >= 2.0, (scheme, speedup)
    else:
        # Smoke runs are too small to amortize pools; gate only with a wide
        # margin: the structural streaming wins must still show.
        assert rows[("cross-batch", "tree-cover", "auto")]["speedup"] >= 1.2
        assert rows[("online-append", "tcm", "incremental")]["speedup"] >= 1.2
        for row in result.rows:
            if row["workload"] == "sweep":
                assert row["speedup"] >= 0.2, row
