"""Property-based equivalence of the sharded store with the single-file store.

The contract of the sharded layout is total transparency: a
:class:`~repro.storage.sharded.ShardedProvenanceStore` built from the same
labeled runs as a single-file :class:`~repro.storage.store.ProvenanceStore`
must answer **every** query type bit-identically — point, batch,
downstream/upstream sweeps, cross-run sweeps and cross-run batches, in
sequential and thread-parallel execution alike.  Run ids differ
between the layouts by construction (the sharded store encodes the owning
shard into the id), so answers are compared run-for-run in insertion
order.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.engine.parallel import CrossRunExecutor
from repro.exceptions import DatasetError
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore

FEW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)


@st.composite
def sharded_workload(draw):
    """A random spec set, labeled runs of each, and a shard count."""
    from repro.workflow.execution import generate_run_with_size

    spec_count = draw(st.integers(min_value=1, max_value=3))
    shards = draw(st.integers(min_value=1, max_value=5))
    scheme = draw(st.sampled_from(("tcm", "tree-cover", "bfs")))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    specs = []
    for index in range(spec_count):
        hierarchy_size = draw(st.integers(min_value=1, max_value=4))
        if hierarchy_size == 1:
            depth = 1
        else:
            depth = draw(st.integers(min_value=2, max_value=min(3, hierarchy_size)))
        n_modules = draw(st.integers(min_value=10, max_value=20))
        extra_edges = draw(st.integers(min_value=0, max_value=n_modules // 2))
        config = SyntheticSpecConfig(
            n_modules=n_modules,
            n_edges=n_modules - 1 + extra_edges,
            hierarchy_size=hierarchy_size,
            hierarchy_depth=depth,
            seed=seed + index,
            name=f"sharded-hypo-{seed}-{index}",
        )
        try:
            specs.append(generate_specification(config))
        except DatasetError:
            assume(False)
    runs_per_spec = draw(st.integers(min_value=1, max_value=3))
    labeled = []
    for spec in specs:
        labeler = SkeletonLabeler(spec, scheme)
        for run_index in range(runs_per_spec):
            if spec.hierarchy.size == 1:
                # flat specs (no forks/loops) cannot grow past their size
                target = spec.vertex_count
            else:
                target = draw(
                    st.integers(
                        min_value=spec.vertex_count,
                        max_value=max(40, spec.vertex_count),
                    )
                )
            generated = generate_run_with_size(
                spec, target, seed=seed + run_index, name=f"run-{run_index}"
            )
            labeled.append(labeler.label_run(generated.run))
    return specs, labeled, shards


@given(workload=sharded_workload())
@FEW
def test_every_query_type_is_bit_identical_across_layouts(workload, tmp_path_factory):
    specs, labeled, shards = workload
    base = tmp_path_factory.mktemp("sharded-hypo")
    with ProvenanceStore(base / "single.db") as single, ShardedProvenanceStore(
        base / "sharded", shards
    ) as sharded:
        single_ids = [single.add_labeled_run(item) for item in labeled]
        sharded_ids = sharded.add_labeled_runs(labeled)
        assert len(single_ids) == len(sharded_ids)
        single_session = ProvenanceSession(single)
        sharded_session = ProvenanceSession(sharded)

        # per-run queries: labels, points, batches, anchored sweeps
        for item, run_s, run_h in zip(labeled, single_ids, sharded_ids):
            assert single.all_labels_of(run_s) == sharded.all_labels_of(run_h)
            executions = item.run.vertices()[:6]
            pairs = [(u, v) for u in executions for v in executions]
            assert single_session.run(
                BatchQuery(pairs=pairs, run_id=run_s)
            ) == sharded_session.run(BatchQuery(pairs=pairs, run_id=run_h))
            u, v = executions[0], executions[-1]
            assert single_session.run(
                PointQuery(u, v, run_id=run_s)
            ) == sharded_session.run(PointQuery(u, v, run_id=run_h))
            anchor = executions[0]
            assert single_session.run(
                DownstreamQuery(anchor, run_id=run_s)
            ) == sharded_session.run(DownstreamQuery(anchor, run_id=run_h))
            assert single_session.run(
                UpstreamQuery(anchor, run_id=run_s)
            ) == sharded_session.run(UpstreamQuery(anchor, run_id=run_h))

        # cross-run queries, sequential vs pooled, single-file vs sharded
        for spec in specs:
            spec_runs = [
                item for item in labeled if item.run.specification.name == spec.name
            ]
            anchor_vertex = spec_runs[0].run.vertices()[0]
            anchor = (anchor_vertex.module, anchor_vertex.instance)
            baseline = CrossRunExecutor(single, workers=1).sweep(spec.name, anchor)
            for store in (single, sharded):
                per_run, skipped = CrossRunExecutor(store, workers=2).sweep(
                    spec.name, anchor
                )
                base_per_run, base_skipped = baseline
                assert list(per_run.values()) == list(base_per_run.values())
                assert len(skipped) == len(base_skipped)
            query_pairs = [(anchor, anchor)]
            executions = spec_runs[0].run.vertices()
            if len(executions) > 1:
                other = executions[-1]
                query_pairs.append((anchor, (other.module, other.instance)))
            single_batch = single_session.run(
                CrossRunBatchQuery(spec.name, query_pairs, workers=2)
            )
            sharded_batch = sharded_session.run(
                CrossRunBatchQuery(spec.name, query_pairs, workers=2)
            )
            assert list(single_batch.per_run.values()) == list(
                sharded_batch.per_run.values()
            )
            assert len(single_batch.skipped_runs) == len(sharded_batch.skipped_runs)
            single_sweep = single_session.run(
                CrossRunQuery(spec.name, anchor, workers=1)
            )
            sharded_sweep = sharded_session.run(
                CrossRunQuery(spec.name, anchor, workers=2)
            )
            assert list(single_sweep.per_run.values()) == list(
                sharded_sweep.per_run.values()
            )
