"""Resident stored runs: label columns held in memory, bounded by bytes.

A stored run becomes resident when a sweep, a large batch or
``query_engine`` loads its label columns; point lookups and small batches
on other runs read only their endpoints' labels.  These tests pin the SQL
each path issues, the byte-bounded LRU, invalidation by another handle's
writes (``PRAGMA data_version``), the error contract, and the row order
of the label loader the resident form is built from.
"""

from __future__ import annotations

import contextlib
import gc
import random
import sqlite3
import tracemalloc
import weakref

import pytest

import repro.storage.store as store_module
from repro.api import BatchQuery, DownstreamQuery, PointQuery, UpstreamQuery
from repro.api.plans import HANDLE_PATH_MIN_PAIRS
from repro.exceptions import StorageError
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore, load_label_arrays
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex as V
from tests.conftest import make_paper_run, make_paper_specification


@contextlib.contextmanager
def label_statements(connection):
    """Collect the ``run_labels`` statements issued on *connection*."""
    statements: list[str] = []
    connection.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        connection.set_trace_callback(None)
        statements[:] = [s for s in statements if "run_labels" in s]


def rewire(run, *, back: bool = False):
    """Swap the two F1 branches of the paper run: b1's chain now ends at h.

    With *back*, swap them back.
    """
    graph = run.graph
    old, new = [(V("c", 1), V("b", 2)), (V("c", 3), V("h", 1))], [
        (V("c", 3), V("b", 2)),
        (V("c", 1), V("h", 1)),
    ]
    if back:
        old, new = new, old
    for edge in old:
        graph.remove_edge(*edge)
    for edge in new:
        graph.add_edge(*edge)


def paper_runs(count: int):
    """*count* differently named labeled copies of the paper run."""
    spec = make_paper_specification()
    labeler = SkeletonLabeler(spec, "tcm")
    runs = []
    for index in range(count):
        run = make_paper_run(spec)
        run.name = f"paper-{index}"
        runs.append(labeler.label_run(run))
    return labeler, runs


def open_handles(layout: str, path):
    """Two handles on one store: a single file, or a 2-shard directory."""
    if layout == "single":
        return ProvenanceStore(path / "store.db"), ProvenanceStore(path / "store.db")
    return (
        ShardedProvenanceStore(path / "shards", 2),
        ShardedProvenanceStore(path / "shards"),
    )


def shard_store(store, run_id):
    """The ProvenanceStore that holds *run_id* (the store itself if single)."""
    return store._store_of_run(run_id) if hasattr(store, "_store_of_run") else store


@pytest.fixture()
def store():
    with ProvenanceStore(":memory:") as opened:
        yield opened


class TestPointLookupSQL:
    def test_cold_point_reads_two_labels_in_one_statement(self, store):
        _, (labeled,) = paper_runs(1)
        run_id = store.add_labeled_run(labeled)
        session = store.session()
        with label_statements(store._connection) as statements:
            assert session.run(PointQuery(("a", 1), ("h", 1), run_id=run_id)) is True
        assert len(statements) == 1
        assert not store.has_compiled_engine(run_id)

    def test_resident_point_issues_no_label_sql(self, store):
        _, (labeled,) = paper_runs(1)
        run_id = store.add_labeled_run(labeled)
        session = store.session()
        session.run(DownstreamQuery(("a", 1), run_id=run_id))
        assert store.has_compiled_engine(run_id)
        with label_statements(store._connection) as statements:
            for source in labeled.run.vertices():
                for target in labeled.run.vertices():
                    assert session.run(
                        PointQuery(source, target, run_id=run_id)
                    ) == labeled.reaches(source, target)
        assert statements == []

    def test_small_batch_on_a_cold_run_loads_nothing(self, store):
        _, (labeled,) = paper_runs(1)
        run_id = store.add_labeled_run(labeled)
        pairs = [(("a", 1), ("h", 1)), (("h", 1), ("a", 1))] * 10
        with label_statements(store._connection) as statements:
            assert store.session().run(BatchQuery(pairs=pairs, run_id=run_id)) == [
                True,
                False,
            ] * 10
        assert len(statements) == 1
        assert not store.has_compiled_engine(run_id)

    def test_sweeps_and_large_batches_make_the_run_resident(self, store):
        _, (first, second) = paper_runs(2)
        swept = store.add_labeled_run(first)
        batched = store.add_labeled_run(second)
        session = store.session()
        session.run(UpstreamQuery(("h", 1), run_id=swept))
        pairs = [(("a", 1), ("h", 1))] * HANDLE_PATH_MIN_PAIRS
        assert all(session.run(BatchQuery(pairs=pairs, run_id=batched)))
        assert store.has_compiled_engine(swept)
        assert store.has_compiled_engine(batched)
        assert store.cache_stats()["resident_runs"] == 2


class TestByteBudget:
    @pytest.fixture()
    def three_runs(self, store, monkeypatch):
        labeler, runs = paper_runs(3)
        run_ids = [store.add_labeled_run(labeled) for labeled in runs]
        run_bytes = store.query_engine(run_ids[0]).index.nbytes
        store._resident.clear()
        monkeypatch.setattr(store_module, "RESIDENT_BYTES_BUDGET", 2 * run_bytes)
        return labeler, runs, run_ids

    def test_a_third_run_evicts_the_least_recently_used(self, store, three_runs):
        _, _, (first, second, third) = three_runs
        session = store.session()
        for run_id in (first, second, first, third):
            session.run(DownstreamQuery(("a", 1), run_id=run_id))
            stats = store.cache_stats()
            assert stats["resident_bytes"] <= stats["budget_bytes"]
        assert list(store._resident) == [first, third]
        assert store.cache_stats()["evictions"] == 1

    def test_an_evicted_run_answers_bit_identically_after_reloading(
        self, store, three_runs
    ):
        _, runs, run_ids = three_runs
        session = store.session()
        vertices = runs[0].run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        queries = [BatchQuery(pairs=pairs, run_id=run_ids[0])] + [
            DownstreamQuery(v, run_id=run_ids[0]) for v in vertices
        ]
        before = [session.run(query) for query in queries]
        for run_id in run_ids[1:]:
            store.query_engine(run_id)
        assert not store.has_compiled_engine(run_ids[0])
        assert [session.run(query) for query in queries] == before
        assert before[0] == [runs[0].reaches(u, v) for u, v in pairs]

    def test_delete_and_update_drop_the_entry(self, store, three_runs):
        labeler, runs, run_ids = three_runs
        for run_id in run_ids[:2]:
            store.query_engine(run_id)
        store.delete_run(run_ids[0])
        assert not store.has_compiled_engine(run_ids[0])
        with pytest.raises(StorageError):
            store.session().run(PointQuery(("a", 1), ("h", 1), run_id=run_ids[0]))
        assert store._reaches(run_ids[1], ("b", 1), ("b", 2)) is True
        rewire(runs[1].run)
        store.update_run_labels(run_ids[1], labeler.label_run(runs[1].run))
        assert not store.has_compiled_engine(run_ids[1])
        assert store._reaches(run_ids[1], ("b", 1), ("b", 2)) is False

    def test_an_evicted_entry_is_freed_at_once(self, store, three_runs):
        _, _, run_ids = three_runs
        engine = store.query_engine(run_ids[0])
        assert engine.reaches(("a", 1), ("h", 1)) is True
        freed = [weakref.ref(engine), weakref.ref(engine.index)]
        del engine
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            store.query_engine(run_ids[1])
            store.query_engine(run_ids[2])  # evicts the first run
            assert not store.has_compiled_engine(run_ids[0])
            assert [ref() for ref in freed] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_a_run_over_the_budget_answers_without_staying(
        self, store, monkeypatch
    ):
        _, (labeled,) = paper_runs(1)
        run_id = store.add_labeled_run(labeled)
        monkeypatch.setattr(store_module, "RESIDENT_BYTES_BUDGET", 0)
        answers = store.session().run(DownstreamQuery(("a", 1), run_id=run_id))
        assert answers == sorted(labeled.downstream_of(V("a", 1)), key=labeled.intern)
        assert store.cache_stats()["resident_runs"] == 0


class TestUnknownExecutions:
    @pytest.mark.parametrize("resident", [False, True])
    @pytest.mark.parametrize("ghost", [("ghost", 1), ("a", 99)])
    def test_every_path_raises_storage_error_with_the_run(
        self, store, resident, ghost
    ):
        _, (labeled,) = paper_runs(1)
        run_id = store.add_labeled_run(labeled)
        if resident:
            store.query_engine(run_id)
        session = store.session()
        queries = [
            PointQuery(ghost, ("h", 1), run_id=run_id),
            PointQuery(("a", 1), ghost, run_id=run_id),
            BatchQuery(pairs=[(("a", 1), ghost)], run_id=run_id),
            BatchQuery(pairs=[(ghost, ("a", 1))] * HANDLE_PATH_MIN_PAIRS, run_id=run_id),
            DownstreamQuery(ghost, run_id=run_id),
        ]
        for query in queries:
            with pytest.raises(StorageError, match=f"run {run_id}"):
                session.run(query)


@pytest.mark.parametrize("layout", ["single", "sharded"])
class TestAnotherHandlesWrites:
    def test_a_delete_on_one_handle_reaches_the_other(self, tmp_path, layout):
        _, (labeled,) = paper_runs(1)
        writer, reader = open_handles(layout, tmp_path)
        try:
            run_id = writer.add_labeled_run(labeled)
            pairs = [(("a", 1), ("h", 1))] * 900
            session = reader.session()
            assert all(session.run(BatchQuery(pairs=pairs, run_id=run_id)))
            assert reader.has_compiled_engine(run_id)
            writer.delete_run(run_id)
            for query in (
                BatchQuery(pairs=pairs, run_id=run_id),
                BatchQuery(pairs=pairs[:3], run_id=run_id),
                PointQuery(("a", 1), ("h", 1), run_id=run_id),
                DownstreamQuery(("a", 1), run_id=run_id),
            ):
                with pytest.raises(StorageError):
                    session.run(query)
        finally:
            writer.close()
            reader.close()

    def test_an_update_on_one_handle_reaches_the_other(self, tmp_path, layout):
        labeler, (labeled,) = paper_runs(1)
        writer, reader = open_handles(layout, tmp_path)
        try:
            run_id = writer.add_labeled_run(labeled)
            session = reader.session()
            point = PointQuery(("b", 1), ("b", 2), run_id=run_id)
            sweep = DownstreamQuery(("b", 1), run_id=run_id)
            assert V("b", 2) in session.run(sweep)
            assert session.run(point) is True
            rewire(labeled.run)
            writer.update_run_labels(run_id, labeler.label_run(labeled.run))
            assert session.run(point) is False
            assert V("b", 2) not in session.run(sweep)
            assert session.run(BatchQuery(pairs=[(("b", 3), ("b", 2))], run_id=run_id)) == [True]
        finally:
            writer.close()
            reader.close()

    def test_without_writes_nothing_reloads(self, tmp_path, layout):
        _, runs = paper_runs(2)
        writer, reader = open_handles(layout, tmp_path)
        try:
            run_ids = [writer.add_labeled_run(labeled) for labeled in runs]
            session = reader.session()
            queries = [
                query
                for run_id in run_ids
                for query in (
                    DownstreamQuery(("a", 1), run_id=run_id),
                    PointQuery(("a", 1), ("h", 1), run_id=run_id),
                    BatchQuery(pairs=[(("a", 1), ("h", 1))] * 600, run_id=run_id),
                )
            ]
            first = [session.run(query) for query in queries]
            evictions = reader.cache_stats()["evictions"]
            connections = {
                id(shard_store(reader, run_id)._connection): shard_store(
                    reader, run_id
                )._connection
                for run_id in run_ids
            }
            with contextlib.ExitStack() as stack:
                traces = [
                    stack.enter_context(label_statements(connection))
                    for connection in connections.values()
                ]
                for _ in range(3):
                    assert [session.run(query) for query in queries] == first
            assert all(trace == [] for trace in traces)
            assert reader.cache_stats()["evictions"] == evictions
            assert all(reader.has_compiled_engine(run_id) for run_id in run_ids)
        finally:
            writer.close()
            reader.close()


class TestMemory:
    def test_a_resident_run_holds_a_few_dozen_bytes_per_vertex(self, store):
        spec = make_paper_specification()
        generated = generate_run_with_size(spec, 600, seed=3, name="memory")
        labeled = SkeletonLabeler(spec, "tcm").label_run(generated.run)
        run_id = store.add_labeled_run(labeled)
        session = store.session()
        vertices = labeled.run.vertices()
        # compile the specification's kernel outside the measurement
        session.run(PointQuery(vertices[0], vertices[1], run_id=run_id))
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            session.run(PointQuery(vertices[0], vertices[1], run_id=run_id))
            answers = session.run(DownstreamQuery(vertices[0], run_id=run_id))
            del answers
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert store.has_compiled_engine(run_id)
        # label objects took ~350 bytes per vertex; a quarter of that bounds it
        assert held < 88 * len(vertices)
        assert store.cache_stats()["resident_bytes"] < 40 * len(vertices)


def _legacy_v1_file(path, rows):
    """A schema-v1 ``run_labels`` file (no vertex_id column) holding *rows*."""
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
        connection.executemany(
            "INSERT INTO run_labels VALUES (?, ?, ?, ?, ?, ?, ?)",
            [(run_id, module, instance, *q, module) for run_id, module, instance, q in rows],
        )
    connection.close()


def _reference_order(connection, run_ids):
    """Each run's rows in the handle order an explicit SQL sort gives."""
    order = {}
    for run_id in run_ids:
        order[run_id] = [
            tuple(row)
            for row in connection.execute(
                "SELECT module, instance, q1, q2, q3 FROM run_labels WHERE run_id = ? "
                "ORDER BY (vertex_id IS NULL), vertex_id, module, instance",
                (run_id,),
            )
        ]
    return order


def _loaded_order(connection, run_ids):
    arrays = load_label_arrays(connection, run_ids)
    return {
        run_id: [
            (module, instance, int(q1), int(q2), int(q3))
            for (module, instance), q1, q2, q3 in zip(
                arrays[run_id].executions,
                arrays[run_id].q1,
                arrays[run_id].q2,
                arrays[run_id].q3,
            )
        ]
        for run_id in run_ids
    }


class TestLabelArrayOrder:
    def test_rows_of_a_v1_store_migrated_in_place(self, tmp_path):
        rng = random.Random(5)
        rows = [
            (run_id, f"m{rng.randrange(40):02d}", instance, (rng.randrange(99),) * 3)
            for run_id in (1, 2, 3)
            for instance in range(1, 30)
        ]
        rows = list({(r[0], r[1], r[2]): r for r in rows}.values())
        rng.shuffle(rows)
        _legacy_v1_file(tmp_path / "v1.db", rows)
        with ProvenanceStore(tmp_path / "v1.db") as store:
            connection = store._connection
            assert _loaded_order(connection, [3, 1, 2]) == _reference_order(
                connection, [3, 1, 2]
            )

    def test_a_store_mixing_old_and_new_rows(self, store):
        _, runs = paper_runs(3)
        run_ids = [store.add_labeled_run(labeled) for labeled in runs]
        with store._connection:
            # a whole pre-v2 run, and a run whose rows are half old, half new
            store._connection.execute(
                "UPDATE run_labels SET vertex_id = NULL WHERE run_id = ?", (run_ids[0],)
            )
            store._connection.execute(
                "UPDATE run_labels SET vertex_id = NULL "
                "WHERE run_id = ? AND vertex_id % 2 = 0",
                (run_ids[1],),
            )
        connection = store._connection
        assert _loaded_order(connection, run_ids) == _reference_order(
            connection, run_ids
        )
        engine = store.query_engine(run_ids[1])
        vertices = runs[1].run.vertices()
        pairs = [(u, v) for u in vertices for v in vertices]
        assert [bool(a) for a in engine.reaches_many_ids(*engine.intern_pairs(pairs))] == [
            runs[1].reaches(u, v) for u, v in pairs
        ]
