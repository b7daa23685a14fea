"""Tests for the SQLite provenance store."""

from __future__ import annotations

import pytest

from repro.api import PointQuery
from repro.exceptions import StorageError
from repro.provenance.data import DataFlow
from repro.skeleton.labels import RunLabel
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex
from tests.conftest import make_paper_run
from tests.test_resident import rewire


@pytest.fixture()
def store() -> ProvenanceStore:
    with ProvenanceStore(":memory:") as opened:
        yield opened


@pytest.fixture()
def stored_run(store, paper_labeled_run) -> int:
    return store.add_labeled_run(paper_labeled_run)


class TestSpecificationPersistence:
    def test_add_and_get(self, store, paper_spec):
        spec_id = store.add_specification(paper_spec)
        assert spec_id >= 1
        loaded = store.get_specification("paper-example")
        assert loaded.graph == paper_spec.graph
        assert set(loaded.regions) == set(paper_spec.regions)

    def test_add_is_idempotent_by_name(self, store, paper_spec):
        first = store.add_specification(paper_spec)
        second = store.add_specification(paper_spec)
        assert first == second
        assert len(store.list_specifications()) == 1

    def test_missing_specification_raises(self, store):
        with pytest.raises(StorageError):
            store.get_specification("ghost")

    def test_list_specifications_summary(self, store, paper_spec, synthetic_spec):
        store.add_specification(paper_spec)
        store.add_specification(synthetic_spec)
        summaries = store.list_specifications()
        assert {s["name"] for s in summaries} == {"paper-example", "synthetic-60"}
        assert all("n_modules" in s for s in summaries)


class TestRunPersistence:
    def test_add_labeled_run(self, store, paper_labeled_run, stored_run):
        assert stored_run >= 1
        stats = store.statistics()
        assert stats["runs"] == 1
        assert stats["run_labels"] == paper_labeled_run.run.vertex_count

    def test_duplicate_run_name_rejected(
        self, store, paper_spec, paper_labeler, paper_run, stored_run
    ):
        rival = generate_run_with_size(paper_spec, 30, seed=99, name=paper_run.name)
        with pytest.raises(StorageError):
            store.add_labeled_run(paper_labeler.label_run(rival.run))

    def test_get_run_round_trip(self, store, paper_run, stored_run):
        loaded = store.get_run(stored_run)
        assert loaded.vertex_count == paper_run.vertex_count
        assert set(loaded.graph.iter_edges()) == set(paper_run.graph.iter_edges())

    def test_get_missing_run_raises(self, store):
        with pytest.raises(StorageError):
            store.get_run(999)

    def test_list_runs(self, store, stored_run):
        runs = store.list_runs()
        assert len(runs) == 1
        assert runs[0]["spec_scheme"] == "tcm"
        assert store.list_runs(specification="paper-example")[0]["run_id"] == stored_run
        assert store.list_runs(specification="other") == []

    def test_delete_run(self, store, stored_run):
        store.delete_run(stored_run)
        assert store.list_runs() == []
        assert store.statistics()["run_labels"] == 0
        with pytest.raises(StorageError):
            store.delete_run(stored_run)


@pytest.fixture(params=["file", "sharded"])
def layout_store(request, tmp_path):
    """An empty store of each layout: one file, or two shard files."""
    if request.param == "file":
        opened = ProvenanceStore(tmp_path / "replay.db")
    else:
        opened = ShardedProvenanceStore(tmp_path / "replay", 2)
    yield opened
    opened.close()


class TestReplayContract:
    """A run's identity is its (specification, name) key in the store."""

    def test_an_identical_run_returns_the_stored_id(
        self, layout_store, paper_labeler, paper_run
    ):
        run_id = layout_store.add_labeled_run(paper_labeler.label_run(paper_run))
        before = layout_store.statistics()
        assert layout_store.add_labeled_run(paper_labeler.label_run(paper_run)) == run_id
        assert layout_store.statistics() == before

    def test_other_content_under_a_taken_name_conflicts(
        self, layout_store, paper_spec, paper_labeler, paper_run
    ):
        layout_store.add_labeled_run(paper_labeler.label_run(paper_run))
        before = layout_store.statistics()
        rival = generate_run_with_size(paper_spec, 30, seed=99, name=paper_run.name)
        with pytest.raises(StorageError, match=repr(paper_run.name)):
            layout_store.add_labeled_run(paper_labeler.label_run(rival.run))
        assert layout_store.statistics() == before

    def test_another_scheme_under_a_taken_name_conflicts(
        self, layout_store, paper_spec, paper_labeler, paper_run
    ):
        layout_store.add_labeled_run(paper_labeler.label_run(paper_run))
        relabeled = SkeletonLabeler(paper_spec, "tree-cover").label_run(paper_run)
        with pytest.raises(StorageError, match=repr(paper_run.name)):
            layout_store.add_labeled_run(relabeled)

    def test_a_replay_after_a_label_update_conflicts(
        self, layout_store, paper_spec, paper_labeler
    ):
        original = paper_labeler.label_run(make_paper_run(paper_spec))
        run_id = layout_store.add_labeled_run(original)
        rewired = make_paper_run(paper_spec)
        rewire(rewired)
        layout_store.update_run_labels(run_id, paper_labeler.label_run(rewired))
        with pytest.raises(StorageError, match=repr(original.run.name)):
            layout_store.add_labeled_run(original)

class TestStoredLabels:
    def test_label_round_trip(self, store, paper_labeled_run, stored_run):
        label = store.label_of(stored_run, "b", 2)
        original = paper_labeled_run.label_of(RunVertex("b", 2))
        assert isinstance(label, RunLabel)
        assert label.context == original.context

    def test_missing_label_raises(self, store, stored_run):
        with pytest.raises(StorageError):
            store.label_of(stored_run, "b", 99)

    def test_reaches_matches_in_memory_answers(self, store, paper_labeled_run, stored_run):
        run = paper_labeled_run.run
        session = store.session()
        for source in run.vertices():
            for target in run.vertices():
                answer = session.run(PointQuery(source, target, run_id=stored_run))
                assert answer == paper_labeled_run.reaches(source, target)

    def test_reaches_accepts_tuples(self, store, stored_run):
        session = store.session()
        assert session.run(PointQuery(("a", 1), ("h", 1), run_id=stored_run))
        assert not session.run(PointQuery(("h", 1), ("a", 1), run_id=stored_run))

    def test_bfs_scheme_round_trip(self, store, paper_spec, paper_run):
        from repro.skeleton.skl import SkeletonLabeler

        labeled = SkeletonLabeler(paper_spec, "bfs").label_run(paper_run)
        run_id = store.add_labeled_run(labeled)
        session = store.session()
        assert session.run(PointQuery(("b", 1), ("c", 2), run_id=run_id))
        assert not session.run(PointQuery(("b", 1), ("c", 3), run_id=run_id))


class TestStoredDataProvenance:
    def test_add_dataflow_and_query(self, store, paper_run, stored_run):
        flow = DataFlow(run=paper_run)
        flow.attach(RunVertex("a", 1), RunVertex("b", 1), ["x1", "x2"])
        flow.attach(RunVertex("a", 1), RunVertex("b", 3), ["x1", "x3"])
        flow.attach(RunVertex("c", 3), RunVertex("h", 1), ["x6"])
        count = store.add_dataflow(stored_run, flow)
        assert count == 4
        assert store.list_data_items(stored_run) == ["x1", "x2", "x3", "x6"]
        assert store.data_depends_on_data(stored_run, "x6", "x1")
        assert not store.data_depends_on_data(stored_run, "x6", "x2")
        assert store.data_depends_on_module(stored_run, "x6", ("b", 3))
        assert not store.data_depends_on_module(stored_run, "x6", ("b", 1))

    def test_dataflow_for_missing_run_rejected(self, store, paper_run):
        flow = DataFlow(run=paper_run)
        with pytest.raises(StorageError):
            store.add_dataflow(42, flow)

    def test_unknown_data_item_raises(self, store, stored_run):
        with pytest.raises(StorageError):
            store.data_depends_on_data(stored_run, "nope", "nope2")


class TestClosedStore:
    def test_close_is_idempotent(self, tmp_path):
        store = ProvenanceStore(tmp_path / "close.db")
        assert not store.closed
        store.close()
        store.close()
        assert store.closed

    def test_context_manager_exit_then_close(self, tmp_path):
        with ProvenanceStore(tmp_path / "ctx.db") as store:
            pass
        store.close()  # a second close after __exit__ is a no-op
        assert store.closed

    def test_operations_after_close_raise_cleanly(self, tmp_path, paper_labeled_run):
        store = ProvenanceStore(tmp_path / "ops.db")
        run_id = store.add_labeled_run(paper_labeled_run)
        store.close()
        for operation in (
            lambda: store.add_labeled_run(paper_labeled_run),
            lambda: store.list_runs(),
            lambda: store.list_specifications(),
            lambda: store.statistics(),
            lambda: store.session(),
            lambda: store.label_of(run_id, "a", 1),
            lambda: store.delete_run(run_id),
        ):
            with pytest.raises(StorageError, match="store is closed"):
                operation()


class TestFileBackedStore:
    def test_persistence_across_connections(self, tmp_path, paper_labeled_run):
        path = tmp_path / "provenance.db"
        with ProvenanceStore(path) as store:
            run_id = store.add_labeled_run(paper_labeled_run)
        with ProvenanceStore(path) as reopened:
            assert reopened.session().run(PointQuery(("a", 1), ("h", 1), run_id=run_id))
            assert reopened.list_runs()[0]["name"] == "figure-3"

    def test_statistics_shape(self, tmp_path):
        with ProvenanceStore(tmp_path / "empty.db") as store:
            stats = store.statistics()
        assert stats == {
            "specifications": 0,
            "runs": 0,
            "run_labels": 0,
            "data_items": 0,
            "data_consumers": 0,
        }
