#!/usr/bin/env python3
"""Answer provenance query workloads through the declarative session API.

The per-pair API (``labeled.reaches(u, v)``) is the right tool for a
handful of interactive queries, but replaying a large stored workload pays
Python dispatch per pair.  This walkthrough shows the one documented way
in — :class:`repro.api.ProvenanceSession` — and what its planner compiles
each query to:

1. label a run once with the skeleton scheme and open a session over it;
2. answer a whole workload with one :class:`~repro.api.BatchQuery` (the
   planner compiles a vectorized per-scheme kernel) and compare the
   throughput with the per-pair loop;
3. replay the workload handle-natively: intern it **once**, then pass the
   integer arrays back through a ``BatchQuery`` — the object -> id
   resolution disappears from the hot path;
4. open the same session API over a :class:`~repro.storage.ProvenanceStore`
   and answer point, batch and sweep queries from stored labels (a sweep
   or a large batch keeps the run **resident** as packed label columns,
   after which its point queries issue no label SQL; a point query on any
   other run reads its two labels in one statement — see
   ``session.cache_stats()``);
5. sweep **all** runs of the specification at once with a
   :class:`~repro.api.CrossRunQuery` — the spec-side kernel is compiled
   once and every run's label columns stream through it;
6. ask the **same pair workload of every run** with a
   :class:`~repro.api.CrossRunBatchQuery` (a runs x pairs matrix); each
   run contributes only its endpoints' labels, looked up by primary key.
   ``workers=`` fans a ``CrossRunQuery`` sweep's per-run payloads across
   a pool (the executor falls back to the sequential path for small
   sweeps, single-core hosts and in-memory stores); on the batch queries
   it is validated but has no effect.

The CLI mirrors steps 3-6: ``repro-provenance query-batch --format bin``,
``pack-workload``, ``sweep --workers`` and ``cross-batch``.
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path

from repro import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    SkeletonLabeler,
)
from repro.datasets import load_real_workflow
from repro.storage import ProvenanceStore
from repro.workflow import generate_run_with_size


def main() -> None:
    spec = load_real_workflow("QBLAST")
    labeler = SkeletonLabeler(spec, "bfs")  # zero-cost spec labels (Section 7)
    generated = generate_run_with_size(spec, 4_000, seed=7, name="qblast-4k")
    labeled = labeler.label_run(
        generated.run, plan=generated.plan, context=generated.context
    )
    session = ProvenanceSession.for_index(labeled)
    print(f"labeled run: {labeled.run.vertex_count} executions, "
          f"spec scheme {labeled.spec_index.scheme_name!r}")

    # A workload: 50,000 random (source, target) reachability queries.
    rng = random.Random(0)
    vertices = labeled.run.vertices()
    workload = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(50_000)]

    # The classical per-pair loop ...
    started = time.perf_counter()
    single_answers = [labeled.reaches(source, target) for source, target in workload]
    single_seconds = time.perf_counter() - started

    # ... versus one declarative BatchQuery through the session.
    batch_plan = session.compile(BatchQuery(pairs=workload))
    started = time.perf_counter()
    batch_answers = batch_plan.execute()
    batch_seconds = time.perf_counter() - started

    assert list(map(bool, batch_answers)) == single_answers
    print(f"per-pair loop : {len(workload) / single_seconds:>12,.0f} queries/s")
    print(f"session batch : {len(workload) / batch_seconds:>12,.0f} queries/s "
          f"({single_seconds / batch_seconds:.1f}x)")

    # The handle-native replay: intern the workload once at the boundary
    # (the labeled run's public handle API), then the same BatchQuery shape
    # carries pure integer-handle arrays.
    source_ids, target_ids = labeled.intern_pairs(workload)
    started = time.perf_counter()
    handle_answers = session.run(
        BatchQuery(source_ids=source_ids, target_ids=target_ids)
    )
    handle_seconds = time.perf_counter() - started
    assert [bool(a) for a in handle_answers] == single_answers
    print(f"handle replay : {len(workload) / handle_seconds:>12,.0f} queries/s "
          f"({single_seconds / handle_seconds:.1f}x; interned once, replayed free)")

    # The same session API over a provenance store: one declarative surface
    # whether the labels live in memory or in SQLite.
    database = Path(tempfile.mkdtemp()) / "provenance.db"
    with ProvenanceStore(database) as store:
        run_id = store.add_labeled_run(labeled)
        for seed in (1, 2):
            extra = generate_run_with_size(
                spec, 2_000, seed=seed, name=f"qblast-2k-{seed}"
            )
            store.add_labeled_run(labeler.label_run(
                extra.run, plan=extra.plan, context=extra.context
            ))
        stored = store.session()

        sample = workload[:500]
        stored_answers = stored.run(BatchQuery(pairs=sample, run_id=run_id))
        assert list(map(bool, stored_answers)) == single_answers[:500]
        print(f"store batch: {len(sample)} stored-label queries answered, "
              f"{sum(map(bool, stored_answers))} reachable")

        anchor = vertices[1]
        assert stored.run(PointQuery(anchor, anchor, run_id=run_id))
        affected = stored.run(
            DownstreamQuery((anchor.module, anchor.instance), run_id=run_id)
        )
        print(f"downstream of {anchor}: {len(affected)} executions "
              f"(one SQL round trip)")

        # The scaling query: one dependency sweep across EVERY stored run of
        # the specification.  The spec kernel is compiled once; each run
        # streams its raw label columns through it.  The per-run payloads
        # are independent, so `workers=` fans them across a pool — the
        # executor auto-selects the sequential path when a pool cannot pay
        # for itself (few runs, one core, in-memory store), so `None` is
        # always a safe default.
        started = time.perf_counter()
        sweep = stored.run(
            CrossRunQuery(spec.name, (anchor.module, anchor.instance), workers=None)
        )
        sweep_seconds = time.perf_counter() - started
        print(f"cross-run sweep: {sweep.affected_count} affected executions "
              f"across {sweep.run_count} runs in {sweep_seconds * 1e3:.1f} ms")
        assert sorted(sweep.per_run[run_id]) == sorted(
            (v.module, v.instance) for v in affected
        )

        # The generalized form: the SAME pair workload asked of every run,
        # answered as a runs x pairs boolean matrix — without building a
        # per-run engine per run: only the pairs' endpoints are read from
        # each run, by primary key.  Runs missing a queried endpoint are
        # skipped whole, so every matrix row is a complete answer vector.
        monitored = [
            ((anchor.module, anchor.instance), (v.module, v.instance))
            for v in vertices[:32]
        ]
        started = time.perf_counter()
        cross = stored.run(CrossRunBatchQuery(spec.name, monitored))
        cross_seconds = time.perf_counter() - started
        matrix = cross.matrix()
        print(f"cross-run batch: {len(monitored)} pairs x {cross.run_count} "
              f"runs in {cross_seconds * 1e3:.1f} ms "
              f"(matrix rows in run order {cross.run_ids}, "
              f"{len(cross.skipped_runs)} runs skipped)")
        assert list(map(bool, matrix[cross.run_ids.index(run_id)])) == [
            bool(a) for a in stored.run(BatchQuery(pairs=monitored, run_id=run_id))
        ]

        # Residency: a sweep or a large batch keeps the run's label columns
        # in memory, so later point queries on it issue no label SQL; a
        # point query on a run that is not resident reads its two labels.
        for _ in range(10):
            stored.run(PointQuery(anchor, vertices[2], run_id=run_id))
        stats = stored.cache_stats()
        print(f"session cache: {stats['resident_runs']} resident runs, "
              f"{stats['resident_bytes']} of {stats['budget_bytes']} bytes, "
              f"{stats['evictions']} evictions")


if __name__ == "__main__":
    main()
