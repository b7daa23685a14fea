#!/usr/bin/env python3
"""Serve a provenance store over TCP and query it through ``repro://``.

The in-process session answers queries where the store file lives; the
network service moves that boundary: an asyncio daemon fronts the store
with a length-prefixed binary protocol, and a blocking client exposes
the same store/session surface over the connection.  This example walks
the whole loop in one process:

1. **serve** — a sharded store behind :class:`~repro.server.ServerThread`
   (the same daemon ``repro-provenance serve`` runs in the foreground);
2. **query** — a :class:`~repro.server.RemoteStore` client runs point,
   batch, sweep and cross-run queries; every answer is bit-identical to
   an in-process session because the real session lives server-side,
   pinned to the connection;
3. **replay** — a handle-native batch ships as one pair-workload blob
   (the same bytes ``pack-workload`` writes), which the server replays
   with zero parsing;
4. **ingest** — a new labeled run travels the other way and is queryable
   the moment the ingest call returns.

Everything is loopback here, but nothing in the client cares: point it
at ``repro://any-host:port/`` and the code below runs unchanged.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import (
    BatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    SkeletonLabeler,
)
from repro.datasets import SyntheticSpecConfig, generate_specification
from repro.server import RemoteStore, ServerThread
from repro.storage import ShardedProvenanceStore
from repro.workflow import generate_run_with_size


def main() -> None:
    spec = generate_specification(
        SyntheticSpecConfig(
            n_modules=30,
            n_edges=55,
            hierarchy_size=5,
            hierarchy_depth=3,
            name="served-pipeline",
            seed=7,
        )
    )
    labeler = SkeletonLabeler(spec, "tcm")
    runs = [
        generate_run_with_size(spec, 200, seed=seed, name=f"night-{seed}").run
        for seed in range(3)
    ]

    directory = Path(tempfile.mkdtemp()) / "served-shards"
    with ShardedProvenanceStore(directory, shards=2) as store:
        run_ids = store.add_labeled_runs([labeler.label_run(run) for run in runs[:2]])

        # -- 1. the daemon on a background thread -----------------------
        with ServerThread(store) as server:
            print(f"serving {store.shard_count}-shard store at {server.url}")

            # -- 2. the client is store-shaped --------------------------
            with RemoteStore(server.url) as client:
                print(
                    f"connected: protocol v{client.server_protocol}, "
                    f"{len(client.list_runs())} runs stored"
                )
                session = client.session()
                vertices = runs[0].vertices()
                anchor = vertices[0]
                answer = session.run(
                    PointQuery(anchor, vertices[-1], run_id=run_ids[0])
                )
                print(
                    f"point query on run {run_ids[0]}: {anchor} -> "
                    f"{vertices[-1]}: {'reachable' if answer else 'not reachable'}"
                )
                downstream = session.run(DownstreamQuery(anchor, run_id=run_ids[0]))
                print(f"sweep: {len(downstream)} executions downstream of {anchor}")

                # -- 3. the zero-parse batch lane -----------------------
                pairs = [(anchor, v) for v in vertices]
                engine = store.query_engine(run_ids[0])
                source_ids, target_ids = engine.intern_pairs(
                    [((u.module, u.instance), (v.module, v.instance)) for u, v in pairs]
                )
                answers = session.run(
                    BatchQuery(
                        source_ids=source_ids,
                        target_ids=target_ids,
                        run_id=run_ids[0],
                    )
                )
                print(
                    f"handle-native batch: {sum(answers)}/{len(answers)} pairs "
                    "reachable (shipped as one pair-workload blob)"
                )

                # -- 4. ingest over the wire ----------------------------
                new_id = client.add_labeled_run(labeler.label_run(runs[2]))
                sweep = session.run(CrossRunQuery(spec.name, anchor, "downstream"))
                print(
                    f"ingested run {new_id} over the wire; cross-run sweep "
                    f"now covers {sweep.run_count} runs, "
                    f"{sweep.affected_count} affected executions"
                )
                stats = client.cache_stats()["server"]
                print(
                    f"server: {stats['connections']} connection(s), "
                    f"ingest buffer threshold {stats['ingest_flush_after']}"
                )
        print("server stopped; buffered ingest was committed before shutdown")


if __name__ == "__main__":
    main()
