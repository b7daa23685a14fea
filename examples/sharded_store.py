#!/usr/bin/env python3
"""Shard the provenance store and ingest runs through the parallel write path.

A single-file store funnels every labeled run through one SQLite writer.
This example builds a :class:`~repro.storage.ShardedProvenanceStore` — N
WAL-mode shard files, every specification routed to one shard by a stable
hash of its name — and walks the write-to-read life cycle:

1. **ingest** — runs of several specifications, batched through
   ``add_labeled_runs``: the batch is grouped per shard and each shard's
   sub-batch commits as one transaction, the shards concurrently, one
   thread each;
2. **sweep** — a cross-run dependency sweep through the same declarative
   session any store offers; the parallel executor's workers each open a
   read-only connection to exactly the shard file their runs live in;
3. **reuse** — the compiled plan re-executes with its kernels already
   compiled, and ``cache_stats()`` shows the per-shard caches.

Everything the single-file store answers, the sharded store answers
bit-identically — only the write path scales differently.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import CrossRunBatchQuery, CrossRunQuery, PointQuery, SkeletonLabeler
from repro.datasets import SyntheticSpecConfig, generate_specification
from repro.storage import ShardedProvenanceStore
from repro.workflow import generate_run_with_size


def main() -> None:
    # Three small synthetic workflows: distinct names spread them (and all
    # of their runs) across the shard files.
    specs = [
        generate_specification(
            SyntheticSpecConfig(
                n_modules=30,
                n_edges=55,
                hierarchy_size=5,
                hierarchy_depth=3,
                name=f"pipeline-{index}",
                seed=10 + index,
            )
        )
        for index in range(3)
    ]
    labelers = {spec.name: SkeletonLabeler(spec, "tcm") for spec in specs}

    directory = Path(tempfile.mkdtemp()) / "provenance-shards"
    with ShardedProvenanceStore(directory, shards=4) as store:
        print(f"sharded store: {directory} ({store.shard_count} shards)")

        # -- 1. batched parallel ingest --------------------------------
        labeled = []
        for round_index in range(3):
            for spec in specs:
                generated = generate_run_with_size(
                    spec, 200, seed=round_index, name=f"night-{round_index}"
                )
                labeled.append(labelers[spec.name].label_run(generated.run))
        run_ids = store.add_labeled_runs(labeled)
        print(f"ingested {len(run_ids)} runs of {len(specs)} specifications")
        for spec in specs:
            rows = store.list_runs(spec.name)
            shard = store.shard_path_of(rows[0]["run_id"]).name
            print(f"  {spec.name}: {len(rows)} runs in {shard}")

        # -- 2. the same declarative queries as any store ---------------
        session = store.session()
        anchor_module = min(
            v for v in specs[0].graph.vertices()
            if not specs[0].graph.predecessors(v)
        )
        anchor = (anchor_module, 1)
        sweep = session.run(CrossRunQuery(specs[0].name, anchor, "downstream"))
        print(
            f"\nsweep over {specs[0].name!r}: {sweep.run_count} runs, "
            f"{sweep.affected_count} executions downstream of "
            f"{anchor_module}:1"
        )
        first_run = store.get_run(run_ids[0])
        some_vertex = first_run.vertices()[-1]
        answer = session.run(PointQuery(anchor, some_vertex, run_id=run_ids[0]))
        print(
            f"point query on run {run_ids[0]}: {anchor_module}:1 -> "
            f"{some_vertex}: {'reachable' if answer else 'not reachable'}"
        )

        # -- 3. compiled plans re-execute on warm kernels ---------------
        pairs = [(anchor, (v.module, v.instance)) for v in first_run.vertices()[:8]]
        plan = session.compile(CrossRunBatchQuery(specs[0].name, pairs))
        for repetition in range(3):
            matrix = plan.execute().matrix()
        print(
            f"\ncross-run batch re-executed 3x: {len(matrix)} runs x "
            f"{len(pairs)} pairs per execution"
        )
        stats = store.cache_stats()
        print("cache stats:", {
            key: stats[key]
            for key in ("shards", "resident_runs", "spec_kernels_cached")
        })


if __name__ == "__main__":
    main()
