"""Property-based equivalence of the sharded store with the single-file store.

The contract of the sharded layout is total transparency: a
:class:`~repro.storage.sharded.ShardedProvenanceStore` built from the same
labeled runs as a single-file :class:`~repro.storage.store.ProvenanceStore`
must answer **every** query type bit-identically — point, batch,
downstream/upstream sweeps, cross-run sweeps and cross-run batches, in
sequential and thread-parallel execution alike — and keep doing so through
any interleaving of late ingest and run deletion.  Run ids differ
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
from repro.workflow.execution import generate_run_with_size

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
                CrossRunBatchQuery(spec.name, query_pairs)
            )
            sharded_batch = sharded_session.run(
                CrossRunBatchQuery(spec.name, query_pairs)
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


OP_SHARDS = 3
OP_SPEC_NAMES = ("sharded-ops-a", "sharded-ops-b")


def _op_specs():
    return {
        name: generate_specification(
            SyntheticSpecConfig(
                n_modules=10,
                n_edges=11,
                hierarchy_size=2,
                hierarchy_depth=2,
                name=name,
                seed=30 + index,
            )
        )
        for index, name in enumerate(OP_SPEC_NAMES)
    }


@st.composite
def data_ops(draw):
    """A random sequence of late ingests and run deletions over two specs."""
    count = draw(st.integers(min_value=1, max_value=6))
    ops = []
    for _ in range(count):
        kind = draw(st.sampled_from(("ingest", "delete")))
        spec = draw(st.sampled_from(OP_SPEC_NAMES))
        seed = draw(st.integers(0, 500)) if kind == "ingest" else None
        ops.append((kind, spec, seed))
    return ops


@given(ops=data_ops())
@FEW
def test_op_sequences_stay_bit_identical_to_the_single_file_store(
    ops, tmp_path_factory
):
    base = tmp_path_factory.mktemp("sharded-ops")
    specs = _op_specs()
    labelers = {name: SkeletonLabeler(spec, "tcm") for name, spec in specs.items()}

    def label(name, seed, run_name):
        return labelers[name].label_run(
            generate_run_with_size(specs[name], 20, seed=seed, name=run_name).run
        )

    initial = [
        label(name, index, f"base-{index}")
        for index, name in enumerate(OP_SPEC_NAMES * 2)
    ]
    anchors = {}
    pairs = {}
    for item in initial:
        name = item.run.specification.name
        if name not in anchors:
            vertex = item.run.vertices()[0]
            anchors[name] = (vertex.module, vertex.instance)
            ends = [(v.module, v.instance) for v in item.run.vertices()[:3]]
            pairs[name] = [(u, v) for u in ends for v in ends]

    with ProvenanceStore(base / "single.db") as single, ShardedProvenanceStore(
        base / "sharded", OP_SHARDS
    ) as sharded:
        single_ids = [single.add_labeled_run(item) for item in initial]
        sharded_ids = sharded.add_labeled_runs(initial)
        id_pairs = list(zip(single_ids, sharded_ids))
        extra = 0

        def check():
            for name in OP_SPEC_NAMES:
                want = CrossRunExecutor(single, workers=1).sweep(
                    name, anchors[name]
                )
                got = CrossRunExecutor(sharded, workers=2).sweep(
                    name, anchors[name]
                )
                assert list(got[0].values()) == list(want[0].values())
                assert len(got[1]) == len(want[1])
                want = CrossRunExecutor(single, workers=1).batch(name, pairs[name])
                got = CrossRunExecutor(sharded, workers=2).batch(
                    name, pairs[name]
                )
                assert list(got[0].values()) == list(want[0].values())
                assert len(got[1]) == len(want[1])
            for run_s, run_h in id_pairs:
                assert single.all_labels_of(run_s) == sharded.all_labels_of(run_h)

        check()
        for kind, spec, seed in ops:
            if kind == "ingest":
                extra += 1
                item = label(spec, 1_000 + seed, f"late-{extra}")
                id_pairs.append(
                    (single.add_labeled_run(item), sharded.add_labeled_run(item))
                )
            else:
                victims = [
                    pair
                    for pair in id_pairs
                    if any(
                        row["run_id"] == pair[1]
                        for row in sharded.list_runs(spec)
                    )
                ]
                if len(victims) < 2:
                    continue  # keep at least one run of the spec sweepable
                run_s, run_h = victims[-1]
                single.delete_run(run_s)
                sharded.delete_run(run_h)
                id_pairs.remove((run_s, run_h))
            check()
