"""Cross-run dependency sweeps: shared spec kernel vs per-run engines.

Benchmarked operation: one :class:`repro.api.CrossRunQuery` sweep (every
stored run of one specification) through a warm store-backed session.
Printed series: per-spec-scheme wall time of the session sweep vs the
per-run ``store.query_engine`` loop, both cold-store, with the speedup.
The acceptance bar is a >= 3x speedup at default scale on the dense
spec-kernel-shared schemes (tree-cover, tcm), whose per-specification
fall-through matrix the session compiles once for the whole sweep while
the loop additionally materializes per-run label objects, interners and
kernel arrays.
"""

from __future__ import annotations

from repro.api.queries import CrossRunQuery
from repro.api.session import ProvenanceSession
from repro.bench.experiments import comparison_specification, throughput_cross_run
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


def test_throughput_cross_run(benchmark, bench_scale, report_sink):
    spec = comparison_specification()
    labeler = SkeletonLabeler(spec, "tcm")
    store = ProvenanceStore()
    for seed in range(3):
        generated = generate_run_with_size(
            spec, bench_scale.run_sizes[0], seed=seed, name=f"bench-run-{seed}"
        )
        store.add_labeled_run(labeler.label_run(generated.run))
    session = ProvenanceSession(store)
    anchor_module = min(
        v for v in spec.graph.vertices() if not spec.graph.predecessors(v)
    )
    query = CrossRunQuery(spec.name, (anchor_module, 1), "downstream")

    benchmark(lambda: session.run(query))

    result = report_sink(throughput_cross_run(bench_scale))
    by_scheme = {row["spec_scheme"]: row for row in result.rows}

    # Streaming label arrays through a shared kernel can never lose to
    # rebuilding a full engine per run.
    for row in result.rows:
        assert row["speedup"] is not None and row["speedup"] >= 1.0, row

    if by_scheme["tcm"]["vertices_per_run"] >= 3_000:
        # The headline claim at default scale and above: compiling the spec
        # kernel once and streaming per-run label columns beats the per-run
        # engine loop >= 3x on the dense spec-kernel-shared schemes
        # (measured ~3.8x tree-cover, ~4.2x tcm at default scale).
        assert by_scheme["tree-cover"]["speedup"] >= 3.0
        assert by_scheme["tcm"]["speedup"] >= 3.0
        assert by_scheme["bfs"]["speedup"] >= 2.0
    else:
        # Smoke runs are too small to amortize anything; just require a
        # real win (measured ~1.8-2.3x).
        for row in result.rows:
            assert row["speedup"] >= 1.2, row
