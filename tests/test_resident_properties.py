"""Property: resident-run answers equal the in-memory oracle under churn.

Two handles share one store (a single file, or a 2-shard directory) whose
byte budget holds at most a couple of runs, so queries keep evicting and
reloading.  Interleaved with the queries, one handle rewires a run and
persists its new labels (``update_run_labels``) or deletes it.  Every
point, batch and sweep answer — sweep order included — must equal the
in-memory labeled run of the run's current state, from either handle;
a deleted run must raise :class:`~repro.exceptions.StorageError`.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.storage.store as store_module
from repro.api import BatchQuery, DownstreamQuery, PointQuery, UpstreamQuery
from repro.api.plans import HANDLE_PATH_MIN_PAIRS
from repro.exceptions import StorageError
from repro.storage.store import ProvenanceStore
from tests.test_resident import open_handles, paper_runs, rewire

RUNS = 3

_executions = st.integers(min_value=0, max_value=14)
_run = st.integers(min_value=0, max_value=RUNS - 1)
_reader = st.sampled_from(("writer", "reader"))
_ops = st.one_of(
    st.tuples(st.just("point"), _run, _reader, _executions, _executions),
    st.tuples(
        st.just("batch"),
        _run,
        _reader,
        st.lists(st.tuples(_executions, _executions), min_size=1, max_size=12),
        st.booleans(),
    ),
    st.tuples(st.just("sweep"), _run, _reader, _executions, st.booleans()),
    st.tuples(st.just("update"), _run),
    st.tuples(st.just("delete"), _run),
)


@pytest.mark.parametrize("layout", ["single", "sharded"])
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    budget_runs=st.sampled_from((0, 1, 2)),
    ops=st.lists(_ops, min_size=1, max_size=24),
)
def test_answers_equal_the_oracle_under_eviction_and_writes(layout, budget_runs, ops):
    labeler, oracles = paper_runs(RUNS)
    handle_order = [labeled.intern for labeled in oracles]  # stored vertex_id order
    with ProvenanceStore(":memory:") as sizing:
        run_bytes = sizing.query_engine(
            sizing.add_labeled_run(oracles[0])
        ).index.nbytes
    with tempfile.TemporaryDirectory() as directory:
        writer, reader = open_handles(layout, Path(directory))
        handles = {"writer": writer, "reader": reader}
        saved = store_module.RESIDENT_BYTES_BUDGET
        try:
            store_module.RESIDENT_BYTES_BUDGET = budget_runs * run_bytes
            run_ids = [writer.add_labeled_run(labeled) for labeled in oracles]
            rewired = [False] * RUNS
            deleted: set[int] = set()
            for op in ops:
                kind, index = op[0], op[1]
                run_id, oracle = run_ids[index], oracles[index]
                vertices = oracle.run.vertices()
                if kind == "update":
                    if index in deleted:
                        continue
                    rewire(oracle.run, back=rewired[index])
                    rewired[index] = not rewired[index]
                    oracles[index] = oracle = labeler.label_run(oracle.run)
                    writer.update_run_labels(run_id, oracle)
                    continue
                if kind == "delete":
                    if index not in deleted:
                        writer.delete_run(run_id)
                        deleted.add(index)
                    continue
                session = handles[op[2]].session()
                if kind == "point":
                    source, target = vertices[op[3] % len(vertices)], vertices[op[4] % len(vertices)]
                    query = PointQuery(source, target, run_id=run_id)
                    expected = oracle.reaches(source, target)
                elif kind == "batch":
                    pairs = [
                        (vertices[s % len(vertices)], vertices[t % len(vertices)])
                        for s, t in op[3]
                    ]
                    if op[4]:  # large enough to make the run resident
                        pairs = pairs * (HANDLE_PATH_MIN_PAIRS // len(pairs) + 1)
                    query = BatchQuery(pairs=pairs, run_id=run_id)
                    expected = [oracle.reaches(s, t) for s, t in pairs]
                else:
                    anchor = vertices[op[3] % len(vertices)]
                    downstream = op[4]
                    query = (DownstreamQuery if downstream else UpstreamQuery)(
                        anchor, run_id=run_id
                    )
                    found = oracle.downstream_of(anchor) if downstream else oracle.upstream_of(anchor)
                    expected = sorted(found, key=handle_order[index])
                if index in deleted:
                    with pytest.raises(StorageError):
                        session.run(query)
                    continue
                assert session.run(query) == expected
                for handle in handles.values():
                    stats = handle.cache_stats()
                    assert stats["resident_bytes"] <= stats["budget_bytes"]
        finally:
            store_module.RESIDENT_BYTES_BUDGET = saved
            writer.close()
            reader.close()
