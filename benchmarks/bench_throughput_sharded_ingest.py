"""Sharded parallel ingest vs the single-file store's write path.

Benchmarked operation: one :meth:`ShardedProvenanceStore.add_labeled_runs`
batch (pre-labeled runs of several specifications, grouped per shard and
committed concurrently, one thread per shard).  Printed series: the
single-file per-run ``add_labeled_run`` loop vs the sharded batched
ingest.

Acceptance bars: on hosts with >= 2 real cores at default scale the
sharded ingest must reach >= 2x the single-file write throughput (shards
commit concurrently *and* batch their transactions); answers over the
sharded store are verified bit-identical to the single-file store inside
the experiment before any number is reported.  Single-core hosts keep only
the batched-transaction win, so smoke runs gate with wide margins only.
"""

from __future__ import annotations

import os

from repro.bench.experiments import throughput_sharded_ingest
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


def test_throughput_sharded_ingest(benchmark, bench_scale, report_sink, tmp_path):
    from repro.bench.experiments import comparison_specification

    spec = comparison_specification()
    labeler = SkeletonLabeler(spec, "tcm")
    labeled = [
        labeler.label_run(
            generate_run_with_size(
                spec, bench_scale.run_sizes[0], seed=seed, name=f"bench-{seed}"
            ).run
        )
        for seed in range(4)
    ]

    counters = {"batch": 0}

    def ingest_batch():
        counters["batch"] += 1
        store = ShardedProvenanceStore(
            tmp_path / f"bench-shards-{counters['batch']}", 4
        )
        try:
            return store.add_labeled_runs(labeled)
        finally:
            store.close()

    run_ids = benchmark(ingest_batch)
    assert len(run_ids) == len(labeled)

    # the sharded store must answer exactly like a single-file store built
    # from the same runs (the experiment re-verifies this per spec)
    single = ProvenanceStore(tmp_path / "bench-single.db")
    sharded = ShardedProvenanceStore(tmp_path / "bench-verify", 4)
    for item in labeled:
        single.add_labeled_run(item)
    sharded.add_labeled_runs(labeled)
    single_runs = single.list_runs(spec.name)
    sharded_runs = sharded.list_runs(spec.name)
    assert len(single_runs) == len(sharded_runs) == len(labeled)
    for single_row, sharded_row in zip(single_runs, sharded_runs):
        assert single_row["name"] == sharded_row["name"]
        single_labels = single.all_labels_of(single_row["run_id"])
        sharded_labels = sharded.all_labels_of(sharded_row["run_id"])
        assert single_labels == sharded_labels
    single.close()
    sharded.close()

    result = report_sink(throughput_sharded_ingest(bench_scale))
    rows = {(row["workload"], row["mode"]): row for row in result.rows}

    # Every measured row carries a real ratio; correctness (sharded sweep ==
    # single-file sweep per specification) is enforced inside the
    # experiment before any number is reported.
    for row in result.rows:
        assert row["speedup"] is not None and row["speedup"] > 0, row

    ingest = rows[("ingest", "thread")]
    default_scale = ingest["vertices_per_run"] >= 1_000
    cores = os.cpu_count() or 1
    if default_scale and cores >= 2:
        # The headline claim: with real cores, batched per-shard commits
        # on concurrent threads must at least double the single-file write
        # throughput.
        assert ingest["speedup"] >= 2.0, ingest
    else:
        # Single-core hosts (and smoke runs) keep only the structural
        # batched-transaction win; gate only against pathological slowdown.
        assert ingest["speedup"] >= 0.7, ingest
