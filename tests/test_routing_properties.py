"""Property-based equivalence of routed stores with the single-file store.

The routing catalog's contract extends the sharded store's transparency
guarantee: after **any** interleaving of maintenance operations —
``rebalance`` to arbitrary shards, ``replicate``, ingest of late runs,
run deletion — a sharded store must keep answering cross-run sweeps,
cross-run batches and per-run label reads bit-identically to a
single-file store that saw the same data operations (which has no
maintenance to do).  Sweeps run on worker threads, so relocated rows
and replica snapshots are read over the executor's task-private
connections as well as the store's own.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.engine.parallel import CrossRunExecutor
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
    ],
)

SHARDS = 3
SPEC_NAMES = ("routed-hypo-a", "routed-hypo-b")


def _specs():
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
        for index, name in enumerate(SPEC_NAMES)
    }


@st.composite
def maintenance_ops(draw):
    """A random op sequence over the two specs: moves, replicas, data ops."""
    count = draw(st.integers(min_value=1, max_value=6))
    ops = []
    for _ in range(count):
        kind = draw(
            st.sampled_from(("rebalance", "split", "replicate", "ingest", "delete"))
        )
        spec = draw(st.sampled_from(SPEC_NAMES))
        if kind == "rebalance":
            ops.append((kind, spec, draw(st.integers(0, SHARDS - 1))))
        elif kind == "replicate":
            ops.append((kind, spec, draw(st.integers(1, 2))))
        elif kind == "ingest":
            ops.append((kind, spec, draw(st.integers(0, 500))))
        else:
            ops.append((kind, spec, None))
    return ops


@given(ops=maintenance_ops())
@FEW
def test_op_sequences_stay_bit_identical_to_the_single_file_store(
    ops, tmp_path_factory
):
    base = tmp_path_factory.mktemp("routing-hypo")
    specs = _specs()
    labelers = {name: SkeletonLabeler(spec, "tcm") for name, spec in specs.items()}

    def label(name, seed, run_name):
        return labelers[name].label_run(
            generate_run_with_size(specs[name], 20, seed=seed, name=run_name).run
        )

    initial = [
        label(name, index, f"base-{index}")
        for index, name in enumerate(SPEC_NAMES * 2)
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
        base / "sharded", SHARDS
    ) as sharded:
        single_ids = [single.add_labeled_run(item) for item in initial]
        sharded_ids = sharded.add_labeled_runs(initial)
        id_pairs = list(zip(single_ids, sharded_ids))
        extra = 0

        def check():
            for name in SPEC_NAMES:
                want = CrossRunExecutor(single, workers=1).sweep(
                    name, anchors[name]
                )
                got = CrossRunExecutor(sharded, workers=2).sweep(
                    name, anchors[name]
                )
                assert list(got[0].values()) == list(want[0].values())
                assert len(got[1]) == len(want[1])
                # batches read each shard connection a spec spans (split)
                want = CrossRunExecutor(single, workers=1).batch(name, pairs[name])
                got = CrossRunExecutor(sharded, workers=2).batch(
                    name, pairs[name]
                )
                assert list(got[0].values()) == list(want[0].values())
                assert len(got[1]) == len(want[1])
            for run_s, run_h in id_pairs:
                assert single.all_labels_of(run_s) == sharded.all_labels_of(run_h)

        check()
        for kind, spec, operand in ops:
            if kind == "rebalance":
                sharded.rebalance(spec, operand)
            elif kind == "split":
                sharded.split(spec)
            elif kind == "replicate":
                sharded.replicate(spec, operand)
            elif kind == "ingest":
                extra += 1
                item = label(spec, 1_000 + operand, f"late-{extra}")
                id_pairs.append(
                    (single.add_labeled_run(item), sharded.add_labeled_run(item))
                )
            elif kind == "delete":
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
