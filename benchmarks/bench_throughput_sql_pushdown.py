"""Cross-run reachability sweeps: SQL pushdown vs the streamed kernel.

Benchmarked operation: one :class:`repro.api.CrossRunQuery` sweep answered
entirely inside the shard's SQLite (``pushdown="always"``) — the anchored
range predicate compiled to a parameterized ``SELECT`` riding the
schema-v3 covering indexes.  Printed series: per-scheme wall time of the
pushdown leg vs the streamed-kernel leg (``pushdown="never"``), both
cold-store, with the speedup.  The acceptance bar is a >= 2x speedup at
default scale on the range-labeled schemes (interval, tree-cover): the
kernel leg always streams every label row out of SQLite before it can
evaluate anything, while the pushdown leg returns only the matching rows.
"""

from __future__ import annotations

from repro.api.queries import CrossRunQuery
from repro.api.session import ProvenanceSession
from repro.bench.experiments import _pushdown_specification, throughput_sql_pushdown
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


def test_throughput_sql_pushdown(benchmark, bench_scale, report_sink):
    spec = _pushdown_specification()
    labeler = SkeletonLabeler(spec, "interval")
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
    query = CrossRunQuery(spec.name, (anchor_module, 1), "downstream", pushdown="always")

    benchmark(lambda: session.run(query))

    result = report_sink(throughput_sql_pushdown(bench_scale))
    by_scheme = {
        row["spec_scheme"]: row for row in result.rows if row["pushdown"] == "always"
    }

    # Equality of both legs' result sets is verified inside the experiment
    # before any number is reported; here we gate the performance claim.
    for row in by_scheme.values():
        assert row["speedup"] is not None, row

    if by_scheme["interval"]["vertices_per_run"] >= 3_000:
        # The headline claim at default scale and above: answering the sweep
        # as an indexed range scan inside the shard beats streaming the
        # label columns through the vectorized kernel >= 2x (measured ~10x
        # at default scale on all three schemes).
        assert by_scheme["interval"]["speedup"] >= 2.0
        assert by_scheme["tree-cover"]["speedup"] >= 2.0
        assert by_scheme["chain"]["speedup"] >= 2.0
    else:
        # Smoke runs are dominated by fixed per-query costs; just require a
        # real win (measured ~2.4-3.5x).
        for row in by_scheme.values():
            assert row["speedup"] >= 1.2, row
