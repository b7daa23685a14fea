"""Property-based equivalence of the handle APIs with the object APIs.

For every labeling scheme, the handle-native query surface
(``intern_pairs`` + ``reaches_many_ids`` / ``reaches_ids``, directly and
through the engine) must agree with the object API and with the
``transitive_closure`` oracle on random DAGs; the provenance store's cached
engine must agree with the in-memory labeled run on random specifications
and runs; and the error paths (unknown vertices, out-of-range handles,
stale traversal interners) must raise rather than mis-answer.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import BatchQuery
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.engine import QueryEngine
from repro.exceptions import DatasetError, LabelingError
from repro.graphs.digraph import DiGraph
from repro.graphs.transitive_closure import transitive_closure
from repro.labeling.registry import available_schemes, build_index
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

#: every scheme that accepts arbitrary DAGs (interval is forest-only)
DAG_SCHEMES = tuple(sorted(set(available_schemes()) - {"interval"}))

#: specification schemes exercised under the skeleton labeler
SPEC_SCHEMES = ("tcm", "bfs", "tree-cover", "chain", "2-hop")


@st.composite
def random_dags(draw) -> DiGraph:
    """Random DAGs built edge-wise along a topological vertex order."""
    size = draw(st.integers(min_value=1, max_value=10))
    vertices = [f"v{i}" for i in range(size)]
    graph = DiGraph(vertices=vertices)
    for j in range(1, size):
        parent_count = draw(st.integers(min_value=0, max_value=min(3, j)))
        parents = draw(
            st.lists(
                st.integers(min_value=0, max_value=j - 1),
                min_size=parent_count,
                max_size=parent_count,
                unique=True,
            )
        )
        for i in parents:
            graph.add_edge(vertices[i], vertices[j])
    return graph


@st.composite
def random_forests(draw) -> DiGraph:
    """Random forests with edges directed from parents to children."""
    size = draw(st.integers(min_value=1, max_value=12))
    vertices = [f"v{i}" for i in range(size)]
    graph = DiGraph(vertices=vertices)
    for j in range(1, size):
        parent = draw(st.integers(min_value=-1, max_value=j - 1))
        if parent >= 0:
            graph.add_edge(vertices[parent], vertices[j])
    return graph


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
        name=f"handles-hypo-{seed}",
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


# ----------------------------------------------------------------------
# direct schemes: handle API == object API == oracle
# ----------------------------------------------------------------------
@given(random_dags())
@SLOW
def test_handle_answers_match_oracle_on_every_dag_scheme(graph: DiGraph):
    closure = transitive_closure(graph)
    vertices = graph.vertices()
    pairs = [(u, v) for u in vertices for v in vertices]
    oracle = [closure.reaches(u, v) for u, v in pairs]
    for scheme in DAG_SCHEMES:
        index = build_index(scheme, graph)
        sources, targets = index.intern_pairs(pairs)
        assert [bool(a) for a in index.reaches_many_ids(sources, targets)] == oracle, scheme
        point = [
            index.reaches_ids(index.intern(u), index.intern(v)) for u, v in pairs
        ]
        assert [bool(a) for a in point] == oracle, scheme
        engine = QueryEngine(index)
        engine_sources, engine_targets = engine.intern_pairs(pairs)
        assert [
            bool(a) for a in engine.reaches_many_ids(engine_sources, engine_targets)
        ] == oracle, scheme


@given(random_forests())
@SLOW
def test_interval_handle_answers_match_oracle_on_forests(forest: DiGraph):
    closure = transitive_closure(forest)
    vertices = forest.vertices()
    pairs = [(u, v) for u in vertices for v in vertices]
    oracle = [closure.reaches(u, v) for u, v in pairs]
    index = build_index("interval", forest)
    sources, targets = index.intern_pairs(pairs)
    assert [bool(a) for a in index.reaches_many_ids(sources, targets)] == oracle
    engine = QueryEngine(index)
    assert [bool(a) for a in engine.reaches_many_ids(sources, targets)] == oracle


@given(random_dags())
@SLOW
def test_unknown_vertices_and_handles_raise(graph: DiGraph):
    for scheme in DAG_SCHEMES:
        index = build_index(scheme, graph)
        size = len(index.interner)
        try:
            index.intern_pairs([(graph.vertices()[0], "not-a-vertex")])
        except LabelingError:
            pass
        else:
            raise AssertionError(f"{scheme} interned an unknown vertex")
        try:
            index.reaches_many_ids([0], [size])
        except LabelingError:
            pass
        else:
            raise AssertionError(f"{scheme} accepted an out-of-range handle")


@given(random_dags(), st.sampled_from(["bfs", "dfs"]))
@SLOW
def test_traversal_interners_stale_after_vertex_addition(graph: DiGraph, scheme: str):
    index = build_index(scheme, graph)
    vertices = graph.vertices()
    first = index.intern(vertices[0])
    assert index.reaches_ids(first, first) is True
    graph.add_vertex("appended-later")
    try:
        index.reaches_ids(first, first)
    except LabelingError:
        pass
    else:
        raise AssertionError("stale traversal interner did not raise")


# ----------------------------------------------------------------------
# the skeleton scheme and the store-cached engine
# ----------------------------------------------------------------------
@given(specification_and_run(), st.integers(min_value=0, max_value=10_000))
@FEW
def test_skeleton_handle_answers_match_oracle_across_spec_schemes(
    spec_and_run, query_seed
):
    spec, generated = spec_and_run
    run = generated.run
    closure = transitive_closure(run.graph)
    vertices = run.vertices()
    rng = random.Random(query_seed)
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(100)]
    oracle = [closure.reaches(u, v) for u, v in pairs]
    for scheme in SPEC_SCHEMES:
        labeled = SkeletonLabeler(spec, scheme).label_run(
            run, plan=generated.plan, context=generated.context
        )
        sources, targets = labeled.intern_pairs(pairs)
        assert [
            bool(a) for a in labeled.reaches_many_ids(sources, targets)
        ] == oracle, scheme
        engine = QueryEngine(labeled)
        assert [
            bool(a) for a in engine.reaches_many_ids(sources, targets)
        ] == oracle, scheme


@given(specification_and_run(), st.integers(min_value=0, max_value=10_000))
@FEW
def test_store_cached_engine_matches_oracle_and_object_api(spec_and_run, query_seed):
    spec, generated = spec_and_run
    run = generated.run
    labeled = SkeletonLabeler(spec, "tcm").label_run(
        run, plan=generated.plan, context=generated.context
    )
    closure = transitive_closure(run.graph)
    vertices = run.vertices()
    rng = random.Random(query_seed)
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(100)]
    oracle = [closure.reaches(u, v) for u, v in pairs]
    with ProvenanceStore(":memory:") as store:
        run_id = store.add_labeled_run(labeled)
        # cold partial-cache path, then the cached-kernel path: both exact
        query = BatchQuery(pairs=pairs, run_id=run_id)
        assert store.session().run(query) == oracle
        engine = store.query_engine(run_id)
        sources, targets = engine.intern_pairs(pairs)
        assert [bool(a) for a in engine.reaches_many_ids(sources, targets)] == oracle
        assert store.session().run(query) == oracle
        # the persisted interner hands back the ids the run assigned
        for vertex in vertices:
            assert engine.interner.id_of(vertex) == labeled.intern(vertex)
