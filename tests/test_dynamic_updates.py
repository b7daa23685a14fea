"""Tests for the dynamic-update subsystem (``repro.dynamic``).

Covers the update surface on :class:`ReachabilityIndex` (``insert_edge`` /
``delete_edge``), the per-scheme delta strategies and their
:class:`UpdateLog` records, the ``mutable`` capability flag, validation
(cycles, forests, unknown vertices, idempotent no-ops), the generic
rebuild fallback, invalidation of every cached query layer, and the
store's ``update_run_labels`` write path.
"""

from __future__ import annotations

import pytest

from repro.dynamic import UpdateLog, UpdateRecord, register_strategy
from repro.engine.kernels import compile_spec_kernel
from repro.engine.query import QueryEngine
from repro.exceptions import (
    EdgeNotFoundError,
    GraphError,
    LabelingError,
    StorageError,
)
from repro.graphs.digraph import DiGraph
from repro.labeling.base import capabilities_of
from repro.labeling.registry import available_schemes, build_index
from repro.labeling.tcm import TCMIndex

ALL_SCHEMES = ("tcm", "bfs", "dfs", "interval", "tree-cover", "chain", "2-hop")
DAG_SCHEMES = tuple(name for name in ALL_SCHEMES if name != "interval")


def diamond_graph() -> DiGraph:
    graph = DiGraph(vertices=["s", "a", "b", "t"])
    graph.add_edges([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    return graph


def forest_graph() -> DiGraph:
    # two trees:  r1 -> {x -> {x1, x2}, y}   and   r2 -> z
    graph = DiGraph(vertices=["r1", "x", "x1", "x2", "y", "r2", "z"])
    graph.add_edges(
        [("r1", "x"), ("x", "x1"), ("x", "x2"), ("r1", "y"), ("r2", "z")]
    )
    return graph


def all_pairs(index):
    vertices = sorted(index.graph.vertices())
    return {
        (u, v): index.reaches(u, v) for u in vertices for v in vertices
    }


def fresh_answers(scheme: str, graph: DiGraph):
    return all_pairs(build_index(scheme, graph))


class TestCapabilities:
    def test_every_registered_scheme_is_covered(self):
        assert sorted(ALL_SCHEMES) == available_schemes()

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_builtin_schemes_are_mutable(self, scheme):
        index = build_index(scheme, diamond_graph() if scheme != "interval" else forest_graph())
        assert capabilities_of(index).mutable is True

    def test_immutable_subclass_rejects_updates(self):
        class FrozenTCM(TCMIndex):
            mutable = False

        index = FrozenTCM(diamond_graph())
        with pytest.raises(LabelingError, match="in-place edge updates"):
            index.insert_edge("a", "b")
        with pytest.raises(LabelingError, match="in-place edge updates"):
            index.delete_edge("s", "a")


class TestValidation:
    @pytest.mark.parametrize("scheme", DAG_SCHEMES)
    def test_cycle_rejected_before_mutation(self, scheme):
        index = build_index(scheme, diamond_graph())
        with pytest.raises(GraphError, match="cycle"):
            index.insert_edge("t", "s")
        assert not index.graph.has_edge("t", "s")
        assert len(index.update_log) == 0

    def test_self_loop_rejected(self):
        index = build_index("tcm", diamond_graph())
        with pytest.raises(GraphError):
            index.insert_edge("a", "a")

    def test_unknown_vertex_rejected(self):
        index = build_index("tcm", diamond_graph())
        with pytest.raises(LabelingError):
            index.insert_edge("s", "ghost")

    def test_existing_edge_insert_is_noop(self):
        index = build_index("tcm", diamond_graph())
        version = index.update_version
        index.insert_edge("s", "a")
        assert index.update_version == version
        assert len(index.update_log) == 0

    def test_missing_edge_delete_raises(self):
        index = build_index("tcm", diamond_graph())
        with pytest.raises(EdgeNotFoundError):
            index.delete_edge("a", "b")

    def test_interval_rejects_second_parent(self):
        index = build_index("interval", forest_graph())
        with pytest.raises(GraphError, match="forest"):
            index.insert_edge("y", "x1")  # x1 already hangs under x
        assert not index.graph.has_edge("y", "x1")


class TestDeltaStrategies:
    @pytest.mark.parametrize("scheme", DAG_SCHEMES)
    def test_insert_then_delete_round_trip(self, scheme):
        graph = diamond_graph()
        index = build_index(scheme, graph)
        before = all_pairs(index)

        index.insert_edge("a", "b")
        assert index.reaches("a", "b")
        assert all_pairs(index) == fresh_answers(scheme, graph)

        index.delete_edge("a", "b")
        assert all_pairs(index) == before

    def test_interval_subtree_moves_between_trees(self):
        index = build_index("interval", forest_graph())
        index.delete_edge("r1", "x")
        assert not index.reaches("r1", "x1")
        index.insert_edge("z", "x")
        assert index.reaches("r2", "x2")
        assert all_pairs(index) == fresh_answers("interval", index.graph)

    def test_strategy_names_recorded(self):
        expectations = {
            "tcm": "row-patch",
            "tree-cover": "region-recompute",
            "2-hop": "hop-patch",
            "bfs": "live",
        }
        for scheme, strategy in expectations.items():
            index = build_index(scheme, diamond_graph())
            index.insert_edge("a", "b")
            record = index.update_log.last
            assert record.op == "insert"
            assert record.strategy == strategy, scheme

        index = build_index("interval", forest_graph())
        index.delete_edge("x", "x1")
        assert index.update_log.last.strategy == "subtree-renumber"

    def test_chain_split_on_link_delete(self):
        graph = DiGraph(vertices=["a", "b", "c", "d"])
        graph.add_edges([("a", "b"), ("b", "c"), ("c", "d")])
        index = build_index("chain", graph)
        index.delete_edge("b", "c")
        assert index.update_log.last.strategy == "chain-split"
        assert not index.reaches("a", "c")
        assert index.reaches("c", "d")
        assert all_pairs(index) == fresh_answers("chain", graph)

    def test_update_log_accounting(self):
        index = build_index("tcm", diamond_graph())
        index.insert_edge("a", "b")
        index.delete_edge("a", "b")
        log = index.update_log
        assert len(log) == 2
        assert [record.op for record in log] == ["insert", "delete"]
        assert log.strategy_counts == {"row-patch": 2}
        assert log.rebuilds == 0
        assert log.touched_total >= 2

    def test_unregistered_scheme_falls_back_to_rebuild(self):
        class CustomTCM(TCMIndex):
            scheme_name = "custom-tcm-subclass"

        index = CustomTCM(diamond_graph())
        index.insert_edge("a", "b")
        assert index.update_log.last.strategy == "rebuild"
        assert index.update_log.rebuilds == 1
        assert all_pairs(index) == fresh_answers("tcm", index.graph)

    def test_register_strategy_overrides_fallback(self):
        class HookedTCM(TCMIndex):
            scheme_name = "hooked-tcm-subclass"

        calls = []

        def insert(index, tail, head):
            index.graph.add_edge(tail, head)
            calls.append(("insert", tail, head))
            from repro.dynamic.strategies import _full_rebuild

            _full_rebuild(index)
            return "custom", 1

        def delete(index, tail, head):
            index.graph.remove_edge(tail, head)
            calls.append(("delete", tail, head))
            from repro.dynamic.strategies import _full_rebuild

            _full_rebuild(index)
            return "custom", 1

        register_strategy("hooked-tcm-subclass", insert, delete)
        index = HookedTCM(diamond_graph())
        index.insert_edge("a", "b")
        assert calls == [("insert", "a", "b")]
        assert index.update_log.last.strategy == "custom"


class TestCacheInvalidation:
    def test_engine_hot_pair_cache_refreshes(self):
        index = build_index("tcm", diamond_graph())
        engine = QueryEngine(index)
        assert engine.reaches("a", "b") is False
        assert engine.reaches("a", "b") is False  # seat the hot-pair LRU
        index.insert_edge("a", "b")
        assert engine.reaches("a", "b") is True
        index.delete_edge("a", "b")
        assert engine.reaches("a", "b") is False

    def test_engine_batch_kernel_recompiles(self):
        index = build_index("tree-cover", diamond_graph())
        engine = QueryEngine(index)
        assert engine.reaches_batch([("a", "b"), ("s", "t")]) == [False, True]
        index.insert_edge("a", "b")
        assert engine.reaches_batch([("a", "b"), ("s", "t")]) == [True, True]

    def test_engine_dependency_sweep_refreshes(self):
        index = build_index("2-hop", diamond_graph())
        engine = QueryEngine(index)
        assert engine.dependency_sweep("a") == ["t"]
        index.insert_edge("a", "b")
        assert sorted(engine.dependency_sweep("a")) == ["b", "t"]

    def test_session_plan_reexecutes_fresh(self):
        from repro.api import PointQuery, ProvenanceSession

        index = build_index("chain", diamond_graph())
        session = ProvenanceSession.for_index(index)
        plan = session.compile(PointQuery("a", "b"))
        assert plan.execute() is False
        index.insert_edge("a", "b")
        assert plan.stale
        assert plan.execute() is True
        assert not plan.stale

    def test_update_version_tracks_graph(self):
        index = build_index("tcm", diamond_graph())
        assert index.update_version == index.graph.update_version
        index.insert_edge("a", "b")
        assert index.update_version == index.graph.update_version


class TestKernelsOverRepairedLabels:
    def test_tree_cover_kernel_after_region_recompute(self):
        # The delete renumbers a forest subtree, so postorder numbers pass
        # the vertex count; the kernel's segment stride must still separate
        # every vertex's intervals.
        graph = DiGraph(vertices=[f"v{i}" for i in range(7)])
        graph.add_edges([("v1", "v4"), ("v2", "v4"), ("v4", "v5"), ("v4", "v6")])
        index = build_index("tree-cover", graph)
        index.insert_edge("v3", "v0")
        index.delete_edge("v1", "v4")
        assert index.update_log.last.strategy == "region-recompute"
        assert max(index.label_of(v).post for v in graph.vertices()) > 7
        expected = fresh_answers("tree-cover", graph)
        assert all_pairs(index) == expected
        assert expected[("v2", "v4")] is True
        pairs = sorted(expected)
        answers = QueryEngine(index).reaches_batch(pairs)
        assert answers == [expected[pair] for pair in pairs]
        spec_kernel = compile_spec_kernel(index)
        position = spec_kernel.position_of
        assert {
            (u, v): bool(spec_kernel.matrix[position[u], position[v]])
            for u, v in pairs
        } == expected


class TestUpdateLogObject:
    def test_record_fields_and_iteration(self):
        log = UpdateLog()
        log.append(
            UpdateRecord(op="insert", tail=1, head=2, strategy="live", touched=0)
        )
        assert log[0].tail == 1
        assert list(log)[0].head == 2
        assert log.last.strategy == "live"
        assert log.strategy_counts == {"live": 1}


class TestStoreUpdateRunLabels:
    def _paper_pair(self):
        from tests.conftest import make_paper_run, make_paper_specification
        from repro.skeleton.skl import SkeletonLabeler

        spec = make_paper_specification()
        labeler = SkeletonLabeler(spec, "tcm")
        run = make_paper_run(spec)
        return spec, labeler, run

    def _rewire(self, run):
        """Swap the two F1 branches: b1's chain now ends at h directly."""
        graph = run.graph
        from repro.workflow.run import RunVertex as V

        graph.remove_edge(V("c", 1), V("b", 2))
        graph.remove_edge(V("c", 3), V("h", 1))
        graph.add_edge(V("c", 3), V("b", 2))
        graph.add_edge(V("c", 1), V("h", 1))

    def test_targeted_update_round_trip(self, tmp_path):
        from repro.storage.store import ProvenanceStore

        spec, labeler, run = self._paper_pair()
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            assert store._reaches(run_id, ("b", 1), ("b", 2)) is True

            self._rewire(run)
            changed = store.update_run_labels(run_id, labeler.label_run(run))
            assert changed > 0
            # the row count did not change: targeted UPDATEs, not re-insert
            assert store.statistics()["run_labels"] == run.vertex_count
            assert store._reaches(run_id, ("b", 1), ("b", 2)) is False
            assert store._reaches(run_id, ("b", 3), ("b", 2)) is True
            # the run document was refreshed alongside the labels
            assert set(store.get_run(run_id).graph.iter_edges()) == set(
                run.graph.iter_edges()
            )

    def test_cold_reopen_serves_repaired_labels(self, tmp_path):
        from repro.storage.store import ProvenanceStore

        spec, labeler, run = self._paper_pair()
        path = tmp_path / "store.db"
        with ProvenanceStore(path) as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            self._rewire(run)
            store.update_run_labels(run_id, labeler.label_run(run))
        with ProvenanceStore(path) as reopened:
            assert reopened._reaches(run_id, ("b", 1), ("b", 2)) is False
            assert reopened._reaches(run_id, ("b", 3), ("b", 2)) is True

    def test_cached_engine_invalidated(self, tmp_path):
        from repro.api import PointQuery, ProvenanceSession
        from repro.storage.store import ProvenanceStore

        spec, labeler, run = self._paper_pair()
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            engine = store.query_engine(run_id)
            assert engine.reaches(("b", 1), ("b", 2)) is True
            self._rewire(run)
            store.update_run_labels(run_id, labeler.label_run(run))
            assert not store.has_compiled_engine(run_id)
            assert store.query_engine(run_id).reaches(("b", 1), ("b", 2)) is False
            session = ProvenanceSession(store)
            assert (
                session.run(PointQuery(("b", 3), ("b", 2), run_id=run_id)) is True
            )

    def test_execution_set_must_match(self, tmp_path):
        from repro.storage.store import ProvenanceStore
        from repro.workflow.execution import generate_run_with_size

        spec, labeler, run = self._paper_pair()
        other = generate_run_with_size(spec, 24, seed=5, name="other").run
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            with pytest.raises(StorageError, match="execution set"):
                store.update_run_labels(run_id, labeler.label_run(other))

    def test_scheme_must_match(self, tmp_path):
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.store import ProvenanceStore

        spec, labeler, run = self._paper_pair()
        with ProvenanceStore(tmp_path / "store.db") as store:
            run_id = store.add_labeled_run(labeler.label_run(run))
            other_labeler = SkeletonLabeler(spec, "bfs")
            with pytest.raises(StorageError, match="scheme"):
                store.update_run_labels(run_id, other_labeler.label_run(run))

    def test_unknown_run_raises(self, tmp_path):
        from repro.storage.store import ProvenanceStore

        spec, labeler, run = self._paper_pair()
        with ProvenanceStore(tmp_path / "store.db") as store:
            with pytest.raises(StorageError):
                store.update_run_labels(404, labeler.label_run(run))


class TestIngestWhileUpdating:
    def test_concurrent_update_relabel_and_sweeps_over_wal(self, tmp_path):
        import threading

        from tests.conftest import make_paper_run, make_paper_specification
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.sharded import ShardedProvenanceStore
        from repro.workflow.execution import generate_run_with_size
        from repro.workflow.run import RunVertex as V

        spec = make_paper_specification()
        labeler = SkeletonLabeler(spec, "tcm")
        run = make_paper_run(spec)
        path = tmp_path / "dynamic"
        store = ShardedProvenanceStore(path, 4)
        run_id = store.add_labeled_run(labeler.label_run(run))
        for seed in (1, 2):
            generated = generate_run_with_size(spec, 20, seed=seed, name=f"bg-{seed}")
            store.add_labeled_run(labeler.label_run(generated.run))

        v1_downstream = {("c", 1), ("b", 2), ("c", 2), ("h", 1)}
        v2_downstream = {("c", 1), ("h", 1)}
        flips = 5  # odd: the run ends in the rewired (v2) state
        errors: list[BaseException] = []

        def writer():
            try:
                graph = run.graph
                for flip in range(flips):
                    if flip % 2 == 0:  # v1 -> v2
                        graph.remove_edge(V("c", 1), V("b", 2))
                        graph.remove_edge(V("c", 3), V("h", 1))
                        graph.add_edge(V("c", 3), V("b", 2))
                        graph.add_edge(V("c", 1), V("h", 1))
                    else:  # v2 -> v1
                        graph.remove_edge(V("c", 3), V("b", 2))
                        graph.remove_edge(V("c", 1), V("h", 1))
                        graph.add_edge(V("c", 1), V("b", 2))
                        graph.add_edge(V("c", 3), V("h", 1))
                    store.update_run_labels(run_id, labeler.label_run(run))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            # its own store handle over the same shard files: WAL lets the
            # sweeps read while the writer's targeted UPDATEs commit
            try:
                from repro.api import DownstreamQuery, ProvenanceSession

                with ShardedProvenanceStore(path) as reader_store:
                    session = ProvenanceSession(reader_store)
                    for _ in range(10):
                        affected = session.run(
                            DownstreamQuery(("b", 1), run_id=run_id)
                        )
                        observed = {tuple(v) for v in affected}
                        assert observed in (v1_downstream, v2_downstream), observed
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # the hot store serves the repaired labels...
        assert store._reaches(run_id, ("b", 1), ("b", 2)) is False
        assert store._reaches(run_id, ("b", 3), ("b", 2)) is True
        store.close()
        # ...and so does a cold reopen: the repaired labels won
        with ShardedProvenanceStore(path) as reopened:
            assert reopened._reaches(run_id, ("b", 1), ("b", 2)) is False
            assert reopened._reaches(run_id, ("b", 3), ("b", 2)) is True
            session = reopened.session()
            from repro.api import DownstreamQuery

            affected = session.run(DownstreamQuery(("b", 1), run_id=run_id))
            assert {tuple(v) for v in affected} == v2_downstream


class TestShardedCounterAttribution:
    def test_sweep_counters_land_on_owning_shard(self, tmp_path):
        from tests.conftest import make_paper_run, make_paper_specification
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.sharded import ShardedProvenanceStore

        spec = make_paper_specification()
        labeler = SkeletonLabeler(spec, "tcm")
        with ShardedProvenanceStore(tmp_path / "sharded", 4) as store:
            run_id = store.add_labeled_run(labeler.label_run(make_paper_run(spec)))
            owner = store._store_of_run(run_id)
            store._note_sweep_path("tcm", pushdown=True, run_id=run_id)
            assert owner._sweep_paths["sql"].get("tcm") == 1
            for shard_store in store._stores:
                if shard_store is not owner:
                    assert not shard_store._sweep_paths["sql"]
            # without a run context the counter still lands somewhere (shard 0)
            store._note_sweep_path("tcm", pushdown=False)
            assert store._stores[0]._sweep_paths["kernel"].get("tcm") == 1
            # aggregated stats see both either way
            stats = store.cache_stats()
            assert stats["pushdown"]["sql"]["tcm"] == 1
            assert stats["pushdown"]["kernel"]["tcm"] == 1

    def test_parallel_executor_notes_owning_shard(self, tmp_path):
        from tests.conftest import make_paper_run, make_paper_specification
        from repro.api import CrossRunQuery, ProvenanceSession
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.sharded import ShardedProvenanceStore
        from repro.workflow.execution import generate_run_with_size

        spec = make_paper_specification()
        labeler = SkeletonLabeler(spec, "tcm")
        with ShardedProvenanceStore(tmp_path / "sharded", 4) as store:
            labeled = [labeler.label_run(make_paper_run(spec))]
            for seed in (1, 2):
                generated = generate_run_with_size(
                    spec, 20, seed=seed, name=f"attr-{seed}"
                )
                labeled.append(labeler.label_run(generated.run))
            run_ids = store.add_labeled_runs(labeled)
            session = ProvenanceSession(store)
            session.run(CrossRunQuery("paper-example", ("a", 1), "downstream"))
            owner = store._store_of_run(sorted(run_ids)[0])
            noted = sum(
                count
                for shard_store in store._stores
                for count in (
                    list(shard_store._sweep_paths["sql"].values())
                    + list(shard_store._sweep_paths["kernel"].values())
                )
            )
            assert noted == 1
            assert (
                owner._sweep_paths["sql"].get("tcm", 0)
                + owner._sweep_paths["kernel"].get("tcm", 0)
                == 1
            )
