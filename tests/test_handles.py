"""The interned vertex-handle core: identity layer, handle APIs, store engine."""

from __future__ import annotations

import contextlib
import gc
import sqlite3
import weakref

import pytest

import repro.storage.database as database_module
import repro.storage.store as store_module
from repro.api import BatchQuery
from repro.engine import QueryEngine
from repro.engine.kernels import _GenericKernel, build_kernel
from repro.exceptions import LabelingError, StorageError, VertexNotFoundError
from repro.graphs.digraph import DiGraph
from repro.graphs.handles import VertexInterner, resolve_pair_ids
from repro.labeling.registry import available_schemes, build_index
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import (
    LABEL_FETCH_CHUNK,
    SQLITE_MAX_VARIABLE_NUMBER,
    ProvenanceStore,
    row_value_chunk,
)
from repro.workflow.run import RunVertex


@contextlib.contextmanager
def cycle_collector_off():
    """Run the body with the cyclic garbage collector disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def small_dag() -> DiGraph:
    return DiGraph(
        edges=[
            ("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"),
            ("d", "e"), ("c", "f"), ("x", "y"),
        ]
    )


def all_pairs(graph: DiGraph):
    vertices = graph.vertices()
    return [(u, v) for u in vertices for v in vertices]


# ----------------------------------------------------------------------
# the identity layer (repro.graphs.handles)
# ----------------------------------------------------------------------
class TestVertexInterner:
    def test_moved_module_and_back_compat_import(self):
        from repro.graphs.csr import VertexInterner as FromCSR

        assert FromCSR is VertexInterner

    def test_id_map_and_vertices_are_consistent(self):
        interner = VertexInterner(["a", "b", "c"])
        assert interner.id_map == {"a": 0, "b": 1, "c": 2}
        assert interner.vertices() == ["a", "b", "c"]
        assert interner.intern_many(["c", "d"]) == [2, 3]
        assert len(interner) == 4

    def test_resolve_pair_ids_round_trip(self):
        interner = VertexInterner(["a", "b", "c"])
        sources, targets = resolve_pair_ids(
            interner.id_map, [("a", "c"), ("c", "b"), ("b", "b")]
        )
        assert list(sources) == [0, 2, 1]
        assert list(targets) == [2, 1, 1]

    def test_resolve_pair_ids_unknown_vertex(self):
        interner = VertexInterner(["a"])
        with pytest.raises(VertexNotFoundError):
            resolve_pair_ids(interner.id_map, [("a", "ghost")])

    def test_resolve_pair_ids_empty(self):
        sources, targets = resolve_pair_ids({}, [])
        assert list(sources) == [] and list(targets) == []


class TestDiGraphIdentity:
    def test_vertex_version_tracks_vertex_set_only(self):
        graph = DiGraph()
        version = graph.vertex_version
        graph.add_vertex("a")
        graph.add_vertex("a")  # no-op re-insert
        assert graph.vertex_version == version + 1
        graph.add_edge("a", "b")  # adds vertex b
        after_edge_with_new_vertex = graph.vertex_version
        assert after_edge_with_new_vertex == version + 2
        graph.add_edge("b", "a")  # pure edge mutation: identity preserved
        graph.remove_edge("b", "a")
        assert graph.vertex_version == after_edge_with_new_vertex
        graph.remove_vertex("b")
        assert graph.vertex_version == after_edge_with_new_vertex + 1

    def test_intern_vertices_snapshot_matches_csr(self):
        graph = small_dag()
        interner = graph.intern_vertices()
        csr = graph.to_csr()
        assert interner.vertices() == graph.vertices()
        for vertex in graph.vertices():
            assert interner.id_of(vertex) == csr.id_of(vertex)


# ----------------------------------------------------------------------
# the handle API on labeling indexes
# ----------------------------------------------------------------------
class TestIndexHandleAPI:
    @pytest.mark.parametrize("scheme", sorted(set(available_schemes()) - {"interval"}))
    def test_handle_answers_match_object_answers(self, scheme):
        graph = small_dag()
        index = build_index(scheme, graph)
        pairs = all_pairs(graph)
        expected = [index.reaches(u, v) for u, v in pairs]
        sources, targets = index.intern_pairs(pairs)
        assert [bool(a) for a in index.reaches_many_ids(sources, targets)] == expected
        for (u, v), answer in zip(pairs, expected):
            assert index.reaches_ids(index.intern(u), index.intern(v)) == answer

    def test_intern_unknown_vertex_raises_labeling_error(self):
        index = build_index("tcm", small_dag())
        with pytest.raises(LabelingError):
            index.intern("ghost")
        with pytest.raises(LabelingError):
            index.intern_pairs([("a", "ghost")])

    def test_out_of_range_handles_raise(self):
        index = build_index("tcm", small_dag())
        size = len(index.interner)
        with pytest.raises(LabelingError):
            index.reaches_ids(0, size)
        with pytest.raises(LabelingError):
            index.reaches_ids(-1, 0)
        with pytest.raises(LabelingError):
            index.reaches_many_ids([0, size], [0, 0])
        with pytest.raises(LabelingError):
            index.reaches_many_ids([0], [-3])

    def test_mismatched_handle_sequences_raise(self):
        index = build_index("tcm", small_dag())
        with pytest.raises(LabelingError):
            index.reaches_many_ids([0, 1], [0])

    def test_traversal_handles_survive_edge_mutations(self):
        graph = DiGraph(edges=[("a", "b"), ("c", "d")])
        index = build_index("bfs", graph)
        b, c = index.intern("b"), index.intern("c")
        assert index.reaches_ids(b, c) is False
        graph.add_edge("b", "c")  # edge surgery keeps handles valid
        assert index.reaches_ids(b, c) is True
        assert list(index.reaches_many_ids([b], [c])) == [True]

    def test_traversal_handles_go_stale_on_vertex_changes(self):
        graph = DiGraph(edges=[("a", "b")])
        index = build_index("bfs", graph)
        index.intern("a")  # builds the interner
        graph.add_vertex("late")
        with pytest.raises(LabelingError, match="stale"):
            index.reaches_ids(0, 1)
        with pytest.raises(LabelingError, match="stale"):
            index.intern("a")

    def test_tcm_handles_follow_closure_order(self):
        graph = small_dag()
        index = build_index("tcm", graph)
        for position, vertex in enumerate(index.closure.order):
            assert index.intern(vertex) == position


class TestSkeletonRunHandleAPI:
    def test_handle_answers_match_object_answers(self, paper_labeled_run):
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        expected = [paper_labeled_run.reaches(u, v) for u, v in pairs]
        sources, targets = paper_labeled_run.intern_pairs(pairs)
        answers = paper_labeled_run.reaches_many_ids(sources, targets)
        assert [bool(a) for a in answers] == expected

    def test_intern_vertex_at_round_trip(self, paper_labeled_run):
        for vertex in paper_labeled_run.run.vertices():
            assert paper_labeled_run.vertex_at(paper_labeled_run.intern(vertex)) == vertex
        with pytest.raises(LabelingError):
            paper_labeled_run.vertex_at(10_000)
        with pytest.raises(LabelingError):
            paper_labeled_run.intern(RunVertex("ghost", 1))

    def test_frozen_run_labels_cache_their_handle_table(self):
        # Even over a traversal-backed (unstable) spec index the run labels
        # are frozen, so the handle label table must be built exactly once,
        # not rebuilt per point query.
        from conftest import make_paper_run, make_paper_specification

        spec = make_paper_specification()
        labeled = SkeletonLabeler(spec, "bfs").label_run(make_paper_run(spec))
        assert labeled.stable_labels is False
        a = labeled.intern(RunVertex("a", 1))
        h = labeled.intern(RunVertex("h", 1))
        assert labeled.reaches_ids(a, h) is True
        table = labeled._handle_label_table
        assert table is not None
        labeled.reaches_ids(h, a)
        assert labeled._handle_label_table is table  # reused, not rebuilt

    def test_handles_stay_valid_over_unstable_spec_index(self):
        from conftest import make_paper_run, make_paper_specification

        spec = make_paper_specification()
        run = make_paper_run(spec)
        labeled = SkeletonLabeler(spec, "bfs").label_run(run)
        assert labeled.stable_labels is False
        a = labeled.intern(RunVertex("a", 1))
        h = labeled.intern(RunVertex("h", 1))
        assert labeled.reaches_ids(a, h) is True
        # run handles are frozen at labeling time: mutating the *spec* graph
        # must not invalidate them (the fall-through stays live)
        spec.graph.add_edge("c", "d")
        assert labeled.reaches_ids(a, h) is True


# ----------------------------------------------------------------------
# the engine's handle surface
# ----------------------------------------------------------------------
class TestEngineHandleAPI:
    def test_intern_pairs_and_reaches_many_ids_match_batch(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        expected = engine.reaches_batch(pairs)
        sources, targets = engine.intern_pairs(pairs)
        assert [bool(a) for a in engine.reaches_many_ids(sources, targets)] == expected

    @pytest.mark.parametrize("scheme", sorted(set(available_schemes()) - {"interval"}))
    def test_every_kernel_answers_handles(self, scheme):
        graph = small_dag()
        index = build_index(scheme, graph)
        engine = QueryEngine(index)
        pairs = all_pairs(graph)
        expected = [index.reaches(u, v) for u, v in pairs]
        sources, targets = engine.intern_pairs(pairs)
        assert [bool(a) for a in engine.reaches_many_ids(sources, targets)] == expected

    def test_generic_kernel_handle_path_matches(self, paper_labeled_run):
        kernel = _GenericKernel(paper_labeled_run)
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        sources, targets = paper_labeled_run.intern_pairs(pairs)
        assert [bool(a) for a in kernel.batch_ids(sources, targets)] == [
            bool(a) for a in kernel.batch(pairs)
        ]

    def test_generic_kernel_without_handles_raises(self):
        class FakeIndex:
            def label_of(self, vertex):
                return vertex

            def reaches_labels(self, a, b):
                return a <= b

            def reaches(self, a, b):
                return self.reaches_labels(a, b)

        kernel = build_kernel(FakeIndex())
        assert kernel.name == "python-generic"
        with pytest.raises(LabelingError):
            kernel.batch_ids([0], [1])
        engine = QueryEngine(FakeIndex())
        with pytest.raises(LabelingError):
            engine.interner
        with pytest.raises(LabelingError):
            engine.reaches_ids(0, 1)

    def test_engine_handle_errors(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        size = len(engine.interner)
        with pytest.raises(LabelingError):
            engine.reaches_many_ids([0], [size])
        with pytest.raises(LabelingError):
            engine.reaches_many_ids([-1], [0])
        with pytest.raises(LabelingError):
            engine.intern(RunVertex("ghost", 1))
        with pytest.raises(LabelingError):
            engine.intern_pairs([(RunVertex("a", 1), RunVertex("ghost", 1))])

    def test_stats_count_handle_batches(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        sources, targets = engine.intern_pairs(
            [(RunVertex("a", 1), RunVertex("h", 1))] * 3
        )
        engine.reaches_many_ids(sources, targets)
        assert engine.stats.queries == 3
        assert engine.stats.batches == 1


class TestEngineHandleCache:
    def test_point_cache_is_keyed_on_handle_pairs(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        assert engine.reaches(a, h) is True
        a_id, h_id = engine.intern(a), engine.intern(h)
        # the raw cache keys are interned handle pairs ...
        assert (a_id, h_id) in set(engine._pair_cache.keys())
        # ... and a handle-keyed point query hits the same entry without
        # resolving any vertex object
        engine.stats.reset()
        assert engine.reaches_ids(a_id, h_id) is True
        assert engine.stats.cache_hits == 1

    def test_object_queries_share_the_handle_cache(self, paper_labeled_run):
        engine = QueryEngine(paper_labeled_run)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        assert engine.reaches_ids(engine.intern(a), engine.intern(h)) is True
        assert engine.reaches(a, h) is True
        assert engine.stats.cache_hits == 1

    def test_engine_is_freed_without_the_cycle_collector(self, paper_labeled_run):
        # the pair cache must not point back at its engine: an engine in a
        # reference cycle outlives its last reference until a full
        # collection, with its compiled kernel and cached labels
        engine = QueryEngine(paper_labeled_run)
        a, h = RunVertex("a", 1), RunVertex("h", 1)
        engine.reaches(a, h)
        assert (engine.intern(a), engine.intern(h)) in engine._pair_cache
        freed = weakref.ref(engine)
        with cycle_collector_off():
            del engine
            assert freed() is None

    def test_reaches_ids_bypasses_cache_for_unstable_indexes(self):
        graph = DiGraph(edges=[("a", "b"), ("c", "d")])
        index = build_index("bfs", graph)
        engine = QueryEngine(index)
        b, c = index.intern("b"), index.intern("c")
        assert engine.reaches_ids(b, c) is False
        graph.add_edge("b", "c")
        assert engine.reaches_ids(b, c) is True  # never memoized


# ----------------------------------------------------------------------
# the store: chunk guard, persisted interner, cached engine
# ----------------------------------------------------------------------
class TestRowValueChunkGuard:
    def test_default_chunk_respects_parameter_limit(self):
        chunk = row_value_chunk(columns_per_row=2, reserved=1)
        assert chunk == LABEL_FETCH_CHUNK  # 2 * 400 + 1 = 801 <= 999
        assert chunk * 2 + 1 <= SQLITE_MAX_VARIABLE_NUMBER

    def test_oversized_configured_chunk_is_capped(self, monkeypatch):
        # the chunk logic lives in storage.database (shared with the SQL
        # pushdown's IN lists); store re-exports it unchanged
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 10_000)
        chunk = store_module.row_value_chunk(columns_per_row=2, reserved=1)
        assert chunk == (SQLITE_MAX_VARIABLE_NUMBER - 1) // 2  # 499
        assert chunk * 2 + 1 <= SQLITE_MAX_VARIABLE_NUMBER

    def test_wider_rows_shrink_the_chunk(self):
        # a future column addition must tighten the cap, not overflow SQLite
        assert row_value_chunk(columns_per_row=3, reserved=1) == (
            SQLITE_MAX_VARIABLE_NUMBER - 1
        ) // 3
        for columns in (2, 3, 5, 8):
            chunk = row_value_chunk(columns_per_row=columns, reserved=1)
            assert chunk * columns + 1 <= SQLITE_MAX_VARIABLE_NUMBER

    def test_impossible_row_width_raises(self):
        with pytest.raises(ValueError):
            row_value_chunk(columns_per_row=SQLITE_MAX_VARIABLE_NUMBER + 1)
        with pytest.raises(ValueError):
            row_value_chunk(columns_per_row=0)

    def test_oversized_chunk_would_overflow_sqlite_without_the_guard(
        self, monkeypatch, synthetic_spec, synthetic_run
    ):
        # With LABEL_FETCH_CHUNK forced past the limit, only the guard keeps
        # the label SELECT under 999 bound parameters.
        labeled = SkeletonLabeler(synthetic_spec, "tcm").label_run(
            synthetic_run.run, plan=synthetic_run.plan, context=synthetic_run.context
        )
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 600)
        with ProvenanceStore(":memory:") as store:
            run_id = store.add_labeled_run(labeled)
            executions = [
                (v.module, v.instance) for v in synthetic_run.run.vertices()
            ]
            assert len(executions) > 499  # forces multiple capped chunks
            labels = store.labels_of_many(run_id, executions)
            assert len(labels) == len(executions)


class TestStoredEngine:
    @pytest.fixture()
    def store(self) -> ProvenanceStore:
        with ProvenanceStore(":memory:") as opened:
            yield opened

    def test_query_engine_is_cached_and_correct(self, store, paper_labeled_run):
        run_id = store.add_labeled_run(paper_labeled_run)
        engine = store.query_engine(run_id)
        assert store.query_engine(run_id) is engine
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        sources, targets = engine.intern_pairs(pairs)
        answers = engine.reaches_many_ids(sources, targets)
        assert [bool(a) for a in answers] == [
            paper_labeled_run.reaches(u, v) for u, v in pairs
        ]

    def test_persisted_interner_reassigns_original_handles(
        self, store, paper_labeled_run
    ):
        run_id = store.add_labeled_run(paper_labeled_run)
        stored_interner = store.query_engine(run_id).interner
        for vertex in paper_labeled_run.run.vertices():
            assert (
                stored_interner.id_of((vertex.module, vertex.instance))
                == paper_labeled_run.intern(vertex)
            )

    def test_replayed_batches_are_sql_free(self, store, paper_labeled_run):
        run_id = store.add_labeled_run(paper_labeled_run)
        pairs = [(("a", 1), ("h", 1)), (("h", 1), ("a", 1))]
        store.query_engine(run_id)  # loads all labels, compiles the kernel
        statements: list[str] = []
        store._connection.set_trace_callback(statements.append)
        try:
            assert store._reaches_batch(run_id, pairs) == [True, False]
            assert store._reaches_batch(run_id, pairs) == [True, False]
            store._dependency_sweep(run_id, ("a", 1), downstream=True)
        finally:
            store._connection.set_trace_callback(None)
        assert not any("SELECT" in s for s in statements)

    def test_legacy_rows_without_vertex_ids_still_answer(
        self, store, paper_labeled_run
    ):
        run_id = store.add_labeled_run(paper_labeled_run)
        with store._connection:
            store._connection.execute(
                "UPDATE run_labels SET vertex_id = NULL WHERE run_id = ?", (run_id,)
            )
        engine = store.query_engine(run_id)
        vertices = paper_labeled_run.run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        sources, targets = engine.intern_pairs(pairs)
        assert [bool(a) for a in engine.reaches_many_ids(sources, targets)] == [
            paper_labeled_run.reaches(u, v) for u, v in pairs
        ]

    def test_delete_run_evicts_cached_engine(self, store, paper_labeled_run):
        run_id = store.add_labeled_run(paper_labeled_run)
        store.query_engine(run_id)
        assert store.has_compiled_engine(run_id)
        store.delete_run(run_id)
        assert not store.has_compiled_engine(run_id)
        assert store.cache_stats()["resident_runs"] == 0
        with pytest.raises(StorageError):
            store.query_engine(run_id)

    def test_unknown_execution_still_raises_storage_error(
        self, store, paper_labeled_run
    ):
        run_id = store.add_labeled_run(paper_labeled_run)
        query = BatchQuery(pairs=[(("a", 1), ("ghost", 9))], run_id=run_id)
        with pytest.raises(StorageError):
            store.session().run(query)
        store.query_engine(run_id)  # full mode changes nothing about errors
        with pytest.raises(StorageError):
            store.session().run(query)

    def test_schema_migration_adds_vertex_id_column(self, tmp_path):
        # A database written by schema version 1 (no vertex_id column) must
        # be migrated in place when reopened.
        path = tmp_path / "legacy.db"
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "CREATE TABLE run_labels ("
                "run_id INTEGER NOT NULL, module TEXT NOT NULL, "
                "instance INTEGER NOT NULL, q1 INTEGER NOT NULL, "
                "q2 INTEGER NOT NULL, q3 INTEGER NOT NULL, "
                "skeleton TEXT NOT NULL, "
                "PRIMARY KEY (run_id, module, instance))"
            )
        connection.close()
        with ProvenanceStore(path) as store:
            columns = {
                row[1]
                for row in store._connection.execute("PRAGMA table_info(run_labels)")
            }
            assert "vertex_id" in columns
