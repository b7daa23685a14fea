"""Batch-vs-single consistency of the ProvenanceStore query paths."""

from __future__ import annotations

import random

import pytest

import repro.storage.database as database_module
from repro.api import BatchQuery, DownstreamQuery, PointQuery, UpstreamQuery
from repro.exceptions import StorageError
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import (
    LABEL_FETCH_CHUNK,
    ProvenanceStore,
    label_lookup_sql,
    load_execution_labels,
)
from repro.workflow.run import RunVertex


@pytest.fixture()
def store() -> ProvenanceStore:
    with ProvenanceStore(":memory:") as opened:
        yield opened


@pytest.fixture()
def stored_run(store, paper_labeled_run) -> int:
    return store.add_labeled_run(paper_labeled_run)


@pytest.fixture()
def stored_synthetic(store, synthetic_spec, synthetic_run) -> tuple[int, object]:
    labeled = SkeletonLabeler(synthetic_spec, "tcm").label_run(
        synthetic_run.run, plan=synthetic_run.plan, context=synthetic_run.context
    )
    return store.add_labeled_run(labeled), labeled


class _StatementCounter:
    """Counts SQL statements issued on a connection, by substring."""

    def __init__(self, connection) -> None:
        self.statements: list[str] = []
        connection.set_trace_callback(self.statements.append)
        self._connection = connection

    def count(self, substring: str) -> int:
        return sum(1 for statement in self.statements if substring in statement)

    def stop(self) -> None:
        self._connection.set_trace_callback(None)


class TestBatchSingleConsistency:
    def test_reaches_batch_equals_per_pair_api(self, store, stored_synthetic, rng):
        run_id, labeled = stored_synthetic
        vertices = labeled.run.vertices()
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(200)]
        session = store.session()
        single = [
            session.run(PointQuery(source, target, run_id=run_id))
            for source, target in pairs
        ]
        batch = session.run(BatchQuery(pairs=pairs, run_id=run_id))
        assert batch == single
        # and both agree with the in-memory labeled run
        assert batch == [labeled.reaches(source, target) for source, target in pairs]

    def test_reaches_batch_accepts_plain_tuples(self, store, stored_run):
        pairs = [(("a", 1), ("h", 1)), (("h", 1), ("a", 1))]
        answers = store.session().run(BatchQuery(pairs=pairs, run_id=stored_run))
        assert answers == [True, False]

    def test_labels_of_many_equals_label_of(self, store, stored_run, paper_labeled_run):
        executions = [
            (vertex.module, vertex.instance)
            for vertex in paper_labeled_run.run.vertices()
        ]
        batched = store.labels_of_many(stored_run, executions)
        for module, instance in executions:
            assert batched[(module, instance)] == store.label_of(
                stored_run, module, instance
            )

    def test_labels_of_many_missing_execution_raises(self, store, stored_run):
        with pytest.raises(StorageError):
            store.labels_of_many(stored_run, [("a", 1), ("ghost", 9)])

    def test_all_labels_of_covers_the_run(self, store, stored_run, paper_labeled_run):
        labels = store.all_labels_of(stored_run)
        assert set(labels) == {
            (vertex.module, vertex.instance)
            for vertex in paper_labeled_run.run.vertices()
        }

    def test_all_labels_of_unknown_run_raises(self, store):
        with pytest.raises(StorageError):
            store.all_labels_of(99)

    def test_dependency_sweeps_match_labeled_run(self, store, stored_run, paper_labeled_run):
        session = store.session()
        for vertex in paper_labeled_run.run.vertices():
            expected_down = {
                (other.module, other.instance)
                for other in paper_labeled_run.downstream_of(vertex)
            }
            expected_up = {
                (other.module, other.instance)
                for other in paper_labeled_run.upstream_of(vertex)
            }
            key = (vertex.module, vertex.instance)
            down = session.run(DownstreamQuery(key, run_id=stored_run))
            up = session.run(UpstreamQuery(key, run_id=stored_run))
            assert set(down) == expected_down
            assert set(up) == expected_up

    def test_dependency_sweep_unknown_execution_raises(self, store, stored_run):
        with pytest.raises(StorageError):
            store.session().run(DownstreamQuery(("ghost", 1), run_id=stored_run))


class TestSQLRoundTrips:
    def test_batch_fetches_labels_in_one_round_trip(self, store, stored_synthetic, rng):
        run_id, labeled = stored_synthetic
        vertices = labeled.run.vertices()
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(150)]
        assert 2 * len(pairs) <= LABEL_FETCH_CHUNK  # fits one chunk by design
        counter = _StatementCounter(store._connection)
        try:
            store._reaches_batch(run_id, pairs)
        finally:
            counter.stop()
        assert counter.count("FROM run_labels") == 1

    def test_per_pair_api_pays_one_select_per_query(self, store, stored_run):
        counter = _StatementCounter(store._connection)
        try:
            store._reaches(stored_run, ("a", 1), ("h", 1))
        finally:
            counter.stop()
        assert counter.count("FROM run_labels") == 1

    def test_dependency_sweep_is_one_round_trip(self, store, stored_run):
        counter = _StatementCounter(store._connection)
        try:
            store._dependency_sweep(stored_run, ("a", 1), downstream=True)
        finally:
            counter.stop()
        assert counter.count("FROM run_labels") == 1

    def test_large_query_sets_chunk_and_stay_correct(
        self, store, stored_synthetic, rng, monkeypatch
    ):
        run_id, labeled = stored_synthetic
        # the chunking helper lives in repro.storage.database now
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 7)
        vertices = labeled.run.vertices()
        pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(60)]
        distinct = {v for pair in pairs for v in pair}
        counter = _StatementCounter(store._connection)
        try:
            batch = store._reaches_batch(run_id, pairs)
        finally:
            counter.stop()
        assert batch == [labeled.reaches(source, target) for source, target in pairs]
        expected_round_trips = -(-len(distinct) // 7)  # ceil division
        assert counter.count("FROM run_labels") == expected_round_trips


class TestPrimaryKeyLookup:
    @pytest.mark.parametrize("run_count, execution_count", [(1, 1), (1, 4), (3, 2)])
    def test_lookup_seeks_the_primary_key(self, run_count, execution_count):
        connection = database_module.connect(":memory:")
        database_module.initialize_schema(connection)
        parameters = [
            value for index in range(execution_count) for value in (f"m{index}", 1)
        ] + list(range(1, run_count + 1))
        try:
            details = [
                row[3]
                for row in connection.execute(
                    "EXPLAIN QUERY PLAN "
                    + label_lookup_sql(run_count, execution_count),
                    parameters,
                )
            ]
        finally:
            connection.close()
        # one seek per run and execution on the full primary key; a search
        # on run_id alone (idx_run_labels_run) would read the whole run
        assert (
            "SEARCH l USING INDEX sqlite_autoindex_run_labels_1 "
            "(run_id=? AND module=? AND instance=?)" in details
        )
        assert not any("(run_id=?)" in detail for detail in details)
        assert not any(detail.startswith("SCAN l") for detail in details)

    def test_lookup_reports_only_stored_executions(self, store, stored_run):
        found = load_execution_labels(
            store._connection, [stored_run, 10_000], [("a", 1), ("zz", 1)]
        )
        assert set(found) == {stored_run, 10_000}
        assert list(found[stored_run]) == [("a", 1)]
        label = store.label_of(stored_run, "a", 1)
        assert found[stored_run][("a", 1)] == (label.q1, label.q2, label.q3)
        assert found[10_000] == {}


class TestDataDependencyBatching:
    def test_data_depends_on_data_uses_one_label_fetch(
        self, store, stored_run, paper_run
    ):
        from repro.provenance.data import DataFlow

        flow = DataFlow(run=paper_run)
        flow.attach(RunVertex("a", 1), RunVertex("b", 1), ["d-a"])
        flow.attach(RunVertex("b", 1), RunVertex("c", 1), ["d-b"])
        flow.attach(RunVertex("c", 2), RunVertex("h", 1), ["d-h"])
        store.add_dataflow(stored_run, flow)
        counter = _StatementCounter(store._connection)
        try:
            assert store.data_depends_on_data(stored_run, "d-h", "d-a") is True
        finally:
            counter.stop()
        assert counter.count("FROM run_labels") == 1
        assert store.data_depends_on_data(stored_run, "d-a", "d-h") is False
