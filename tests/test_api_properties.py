"""Property-based equivalence of the session API with the object paths.

For every specification scheme, a :class:`~repro.api.ProvenanceSession`
over a labeled run must agree with the object-path API and with the
``transitive_closure`` oracle on random specifications and runs; a
store-backed session must agree run-for-run, including
:class:`~repro.api.CrossRunQuery` sweeps over several stored runs; and a
session over an :class:`~repro.skeleton.online.OnlineRun` must keep
agreeing with the per-pair path across appends (the plan-invalidation
path).
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    BatchQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import DatasetError
from repro.graphs.transitive_closure import transitive_closure
from repro.skeleton.online import OnlineRun
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

FEW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: specification schemes exercised under the skeleton labeler (a stable
#: matrix-backed one, a traversal one, and the flattened-kernel families)
SPEC_SCHEMES = ("tcm", "bfs", "tree-cover", "chain", "2-hop")


@st.composite
def specification_and_run(draw):
    """Random well-nested specification plus a generated conforming run."""
    hierarchy_size = draw(st.integers(min_value=1, max_value=5))
    if hierarchy_size == 1:
        depth = 1
    else:
        depth = draw(st.integers(min_value=2, max_value=min(3, hierarchy_size)))
    n_modules = draw(st.integers(min_value=10, max_value=25))
    extra_edges = draw(st.integers(min_value=0, max_value=n_modules // 2))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    config = SyntheticSpecConfig(
        n_modules=n_modules,
        n_edges=n_modules - 1 + extra_edges,
        hierarchy_size=hierarchy_size,
        hierarchy_depth=depth,
        seed=seed,
        name=f"api-hypo-{seed}",
    )
    try:
        spec = generate_specification(config)
    except DatasetError:
        assume(False)
    if spec.hierarchy.size == 1:
        target = spec.vertex_count
    else:
        target = draw(
            st.integers(min_value=spec.vertex_count, max_value=3 * spec.vertex_count)
        )
    run_seed = draw(st.integers(min_value=0, max_value=10_000))
    return spec, generate_run_with_size(spec, target, seed=run_seed)


@given(specification_and_run(), st.sampled_from(SPEC_SCHEMES))
@SLOW
def test_index_session_matches_object_path_and_oracle(spec_and_run, scheme):
    spec, generated = spec_and_run
    labeled = SkeletonLabeler(spec, scheme).label_run(generated.run)
    session = ProvenanceSession.for_index(labeled)
    closure = transitive_closure(generated.run.graph)
    vertices = generated.run.vertices()[:12]
    pairs = [(u, v) for u in vertices for v in vertices]
    batch = session.run(BatchQuery(pairs=pairs))
    fused = session.run_many([PointQuery(u, v) for u, v in pairs])
    for (u, v), from_batch, from_fused in zip(pairs, batch, fused):
        expected = closure.reaches(u, v)
        assert bool(from_batch) == expected
        assert from_fused == expected
        assert labeled.reaches(u, v) == expected
    anchor = vertices[0]
    down = session.run(DownstreamQuery(anchor))
    up = session.run(UpstreamQuery(anchor))
    all_vertices = generated.run.vertices()
    assert sorted(down) == sorted(
        v for v in all_vertices if v != anchor and closure.reaches(anchor, v)
    )
    assert sorted(up) == sorted(
        v for v in all_vertices if v != anchor and closure.reaches(v, anchor)
    )


@given(specification_and_run(), st.sampled_from(("tcm", "tree-cover", "bfs")))
@FEW
def test_store_session_and_cross_run_match_oracle(spec_and_run, scheme):
    spec, generated = spec_and_run
    labeler = SkeletonLabeler(spec, scheme)
    with ProvenanceStore() as store:
        runs = {}
        run_ids = []
        for seed in range(3):
            extra = generate_run_with_size(
                spec, generated.run.vertex_count, seed=seed, name=f"hypo-run-{seed}"
            ).run
            run_id = store.add_labeled_run(labeler.label_run(extra))
            runs[run_id] = extra
            run_ids.append(run_id)
        session = store.session()

        # batch answers against the oracle, per stored run
        for run_id, run in runs.items():
            closure = transitive_closure(run.graph)
            vertices = run.vertices()[:8]
            pairs = [(u, v) for u in vertices for v in vertices]
            batch = session.run(BatchQuery(pairs=pairs, run_id=run_id))
            for (u, v), answer in zip(pairs, batch):
                assert bool(answer) == closure.reaches(u, v)

        # the cross-run sweep equals one oracle sweep per run
        anchor_vertex = runs[run_ids[0]].vertices()[0]
        anchor = (anchor_vertex.module, anchor_vertex.instance)
        result = session.run(CrossRunQuery(spec.name, anchor, "downstream"))
        assert set(result.per_run) | set(result.skipped_runs) == set(run_ids)
        for run_id, affected in result.per_run.items():
            closure = transitive_closure(runs[run_id].graph)
            expected = [
                (v.module, v.instance)
                for v in runs[run_id].vertices()
                if v != anchor_vertex and closure.reaches(anchor_vertex, v)
            ]
            assert sorted(affected) == sorted(expected)
        for run_id in result.skipped_runs:
            assert anchor_vertex not in runs[run_id].vertices()


def _paper_specification():
    from repro.workflow.specification import WorkflowSpecification

    return WorkflowSpecification.from_edges(
        edges=[
            ("a", "b"), ("b", "c"), ("c", "h"),
            ("a", "d"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "h"),
        ],
        forks=[("F1", {"b", "c"}), ("F2", {"f"})],
        loops=[("L1", {"e", "f", "g"}), ("L2", {"b", "c"})],
        name="paper-example",
    )


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
@SLOW
def test_online_session_stays_correct_across_appends(
    fork_copies, loop_iterations, l1_iterations
):
    """Queries interleaved with appends agree with the per-pair path.

    Each batch of events (new executions, new fork/loop copies) moves the
    online run's version token, so the session must re-compile its engine
    before the next query — answered through stale handles, the grown run
    would raise or mis-answer.  After every append burst the session's
    batch answers are compared against the per-pair path, and at the end
    against an independent labeled snapshot.
    """
    online = OnlineRun(
        SkeletonLabeler(_paper_specification(), "tcm"), name="hypo-online"
    )
    session = ProvenanceSession.for_online(online)
    recorded = []

    def check():
        vertices = recorded[-10:]
        pairs = [(u, v) for u in vertices for v in vertices]
        batch = session.run(BatchQuery(pairs=pairs))
        for (u, v), answer in zip(pairs, batch):
            assert bool(answer) == online.reaches(u, v)

    root = online.root_scope
    recorded.append(root.execute("a"))
    recorded.append(root.execute("d"))
    check()

    fork = root.begin_execution("F1")
    for _ in range(fork_copies):
        copy = fork.new_copy()
        loop = copy.begin_execution("L2")
        for _ in range(loop_iterations):
            iteration = loop.new_copy()
            recorded.append(iteration.execute("b"))
            recorded.append(iteration.execute("c"))
        check()  # the plan grew: the session must have re-interned

    l1 = root.begin_execution("L1")
    for _ in range(l1_iterations):
        iteration = l1.new_copy()
        recorded.append(iteration.execute("e"))
        inner_fork = iteration.begin_execution("F2")
        recorded.append(inner_fork.new_copy().execute("f"))
        recorded.append(iteration.execute("g"))
        check()

    recorded.append(root.execute("h"))
    check()

    # final agreement with an independent labeled snapshot over every pair
    snapshot = online.snapshot()
    pairs = [(u, v) for u in recorded for v in recorded]
    batch = session.run(BatchQuery(pairs=pairs))
    for (u, v), answer in zip(pairs, batch):
        assert bool(answer) == snapshot.reaches(u, v)


@given(
    specification_and_run(),
    st.sampled_from(("tcm", "tree-cover", "bfs")),
)
@FEW
def test_parallel_cross_run_is_bit_identical_to_sequential(spec_and_run, scheme):
    """Parallel execution must answer exactly what the sequential path does.

    Worker threads evaluate the same compiled-kernel formula over the same
    streamed label arrays, so on random specifications, runs and schemes
    the parallel sweep and batch must be **bit-identical** to the retained
    sequential path (which in turn is oracle-checked above).
    """
    import tempfile
    from pathlib import Path

    from repro.engine.parallel import CrossRunExecutor

    spec, generated = spec_and_run
    labeler = SkeletonLabeler(spec, scheme)
    database = Path(tempfile.mkdtemp(prefix="repro-hypo-parallel-")) / "prov.db"
    with ProvenanceStore(database) as store:
        runs = {}
        for seed in range(4):
            extra = generate_run_with_size(
                spec, generated.run.vertex_count, seed=seed, name=f"par-{seed}"
            ).run
            runs[store.add_labeled_run(labeler.label_run(extra))] = extra

        first = next(iter(runs.values()))
        anchor_vertex = first.vertices()[0]
        anchor = (anchor_vertex.module, anchor_vertex.instance)
        vertices = first.vertices()[:6]
        pairs = [
            ((u.module, u.instance), (v.module, v.instance))
            for u in vertices
            for v in vertices
        ]

        sequential = CrossRunExecutor(store, workers=1)
        parallel = CrossRunExecutor(store, workers=3)
        for direction in ("downstream", "upstream"):
            assert parallel.sweep(spec.name, anchor, direction) == sequential.sweep(
                spec.name, anchor, direction
            )
        assert parallel.batch(spec.name, pairs) == sequential.batch(
            spec.name, pairs
        )
