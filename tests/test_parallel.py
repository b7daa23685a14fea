"""Tests for the parallel cross-run execution subsystem.

Covers the executor (worker resolution, sequential auto-selection, thread
and process pool modes, bit-identical answers), the chunked multi-run
prefetch, the generalized cross-run batch/point queries, the session's
adaptive point-query promotion (with a SQL statement probe), and the CLI
surface (``sweep --workers``, ``cross-batch``).
"""

from __future__ import annotations

import pytest

from repro.api import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunPointQuery,
    CrossRunQuery,
    PointQuery,
    ProvenanceSession,
)
from repro.engine.parallel import (
    MAX_AUTO_WORKERS,
    PARALLEL_MIN_RUNS,
    PREFETCH_CHUNK_RUNS,
    CrossRunExecutor,
    resolve_workers,
)
from repro.exceptions import QueryPlanError, StorageError
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex

RUN_COUNT = max(PARALLEL_MIN_RUNS, PREFETCH_CHUNK_RUNS) + 2


@pytest.fixture(scope="module")
def parallel_store(tmp_path_factory, paper_spec):
    """A file-backed store with enough runs to cross a prefetch boundary."""
    database = tmp_path_factory.mktemp("parallel") / "prov.db"
    labeler = SkeletonLabeler(paper_spec, "tcm")
    store = ProvenanceStore(database)
    run_ids = []
    for seed in range(RUN_COUNT):
        generated = generate_run_with_size(
            paper_spec, 20, seed=seed, name=f"par-{seed}"
        )
        run_ids.append(store.add_labeled_run(labeler.label_run(generated.run)))
    yield store, run_ids, paper_spec
    store.close()


@pytest.fixture()
def anchor(parallel_store):
    store, run_ids, spec = parallel_store
    return ("a", 1)


class TestResolveWorkers:
    def test_explicit_workers_clamped_to_runs(self):
        assert resolve_workers(16, 5) == 5
        assert resolve_workers(2, 100) == 2
        assert resolve_workers(1, 100) == 1

    def test_explicit_workers_validated(self):
        with pytest.raises(QueryPlanError):
            resolve_workers(0, 10)
        with pytest.raises(QueryPlanError):
            resolve_workers(-3, 10)

    def test_auto_is_sequential_below_min_runs(self):
        assert resolve_workers(None, PARALLEL_MIN_RUNS - 1) == 1
        assert resolve_workers(None, 0) == 1

    def test_auto_sized_from_cpu_count(self, monkeypatch):
        import repro.engine.parallel as parallel

        # sized from the CPUs the process may use, not the host's count:
        # a server pinned to one CPU takes the sequential path
        def usable(count):
            return lambda pid: set(range(count))

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", usable(6), raising=False
        )
        assert resolve_workers(None, 100) == 6
        monkeypatch.setattr(parallel.os, "sched_getaffinity", usable(64))
        assert resolve_workers(None, 100) == MAX_AUTO_WORKERS
        # a single core never pays for a pool
        monkeypatch.setattr(parallel.os, "sched_getaffinity", usable(1))
        assert resolve_workers(None, 100) == 1


class TestExecutorModes:
    def test_thread_and_process_match_sequential(self, parallel_store, anchor):
        store, run_ids, spec = parallel_store
        sequential = CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        for mode in ("thread", "process"):
            parallel = CrossRunExecutor(store, workers=3, mode=mode).sweep(
                spec.name, anchor
            )
            assert parallel == sequential, mode
        per_run, skipped = sequential
        assert set(per_run) | set(skipped) == set(run_ids)

    def test_upstream_direction(self, parallel_store):
        store, run_ids, spec = parallel_store
        sequential = CrossRunExecutor(store, workers=1).sweep(
            spec.name, ("h", 1), "upstream"
        )
        parallel = CrossRunExecutor(store, workers=3).sweep(
            spec.name, ("h", 1), "upstream"
        )
        assert parallel == sequential

    def test_batch_matches_per_run_engine(self, parallel_store):
        store, run_ids, spec = parallel_store
        run = store.get_run(run_ids[0])
        vertices = run.vertices()[:5]
        pairs = [
            ((u.module, u.instance), (v.module, v.instance))
            for u in vertices
            for v in vertices
        ]
        sequential = CrossRunExecutor(store, workers=1).batch(spec.name, pairs)
        for mode in ("thread", "process"):
            parallel = CrossRunExecutor(store, workers=3, mode=mode).batch(
                spec.name, pairs
            )
            assert parallel == sequential, mode
        per_run, _ = sequential
        session = ProvenanceSession(store)
        for run_id, answers in per_run.items():
            expected = [
                bool(a) for a in session.run(BatchQuery(pairs=pairs, run_id=run_id))
            ]
            assert answers == expected

    def test_memory_store_always_sequential(self, paper_spec, paper_run):
        labeler = SkeletonLabeler(paper_spec, "tcm")
        with ProvenanceStore() as store:
            store.add_labeled_run(labeler.label_run(paper_run))
            executor = CrossRunExecutor(store, workers=8)
            # a :memory: database is reachable only through the store's own
            # connection, so the pool must be bypassed (and still answer)
            assert executor._parallel_workers(RUN_COUNT) == 1
            per_run, skipped = executor.sweep(paper_spec.name, ("a", 1))
            assert len(per_run) == 1 and skipped == []

    def test_invalid_mode_rejected(self, parallel_store, monkeypatch):
        store, _, _ = parallel_store
        with pytest.raises(QueryPlanError):
            CrossRunExecutor(store, mode="fleet")
        monkeypatch.setenv("REPRO_PARALLEL", "banana")
        with pytest.raises(QueryPlanError):
            CrossRunExecutor(store)

    def test_mode_read_from_environment(self, parallel_store, monkeypatch):
        store, _, _ = parallel_store
        monkeypatch.setenv("REPRO_PARALLEL", "process")
        assert CrossRunExecutor(store).mode == "process"
        monkeypatch.delenv("REPRO_PARALLEL")
        assert CrossRunExecutor(store).mode == "thread"

    def test_unknown_specification_raises(self, parallel_store):
        store, _, _ = parallel_store
        with pytest.raises(StorageError):
            CrossRunExecutor(store).sweep("nope", ("a", 1))

    def test_empty_batch_rejected(self, parallel_store):
        store, _, spec = parallel_store
        with pytest.raises(QueryPlanError):
            CrossRunExecutor(store).batch(spec.name, [])


class TestChunkedPrefetch:
    def test_many_matches_per_run_fetch(self, parallel_store):
        store, run_ids, _ = parallel_store
        many = store.run_label_arrays_many(run_ids)
        assert sorted(many) == sorted(run_ids)
        for run_id in run_ids:
            single = store.run_label_arrays(run_id)
            chunked = many[run_id]
            assert chunked.executions == single.executions
            assert chunked.origins == single.origins
            assert list(chunked.q1) == list(single.q1)
            assert list(chunked.q2) == list(single.q2)
            assert list(chunked.q3) == list(single.q3)

    def test_duplicates_deduplicated(self, parallel_store):
        store, run_ids, _ = parallel_store
        many = store.run_label_arrays_many([run_ids[0], run_ids[0], run_ids[1]])
        assert sorted(many) == sorted({run_ids[0], run_ids[1]})

    def test_unknown_run_raises(self, parallel_store):
        store, run_ids, _ = parallel_store
        with pytest.raises(StorageError):
            store.run_label_arrays_many([run_ids[0], 10_000])


class TestCrossRunQueries:
    def test_batch_query_through_session(self, parallel_store):
        store, run_ids, spec = parallel_store
        session = ProvenanceSession(store)
        pairs = [(("a", 1), ("h", 1)), (("h", 1), ("a", 1))]
        result = session.run(CrossRunBatchQuery(spec.name, pairs, workers=2))
        assert sorted(result.per_run) + sorted(result.skipped_runs) == sorted(
            run_ids
        ) or set(result.per_run) | set(result.skipped_runs) == set(run_ids)
        for run_id, answers in result.per_run.items():
            assert answers[0] is True and answers[1] is False
        matrix = result.matrix()
        assert len(matrix) == result.run_count
        assert list(result.run_ids) == sorted(result.per_run)

    def test_point_query_through_session(self, parallel_store):
        store, run_ids, spec = parallel_store
        session = ProvenanceSession(store)
        result = session.run(CrossRunPointQuery(spec.name, ("a", 1), ("h", 1)))
        assert set(result.per_run) | set(result.skipped_runs) == set(run_ids)
        assert all(answer is True for answer in result.per_run.values())
        assert result.reachable_count == result.run_count

    def test_runs_missing_an_endpoint_are_skipped(self, parallel_store):
        store, run_ids, spec = parallel_store
        session = ProvenanceSession(store)
        result = session.run(
            CrossRunBatchQuery(spec.name, [(("a", 1), ("b", 99))], workers=2)
        )
        assert result.per_run == {}
        assert sorted(result.skipped_runs) == sorted(run_ids)

    def test_empty_pairs_rejected_at_query_construction(self):
        with pytest.raises(QueryPlanError):
            CrossRunBatchQuery("spec", [])

    def test_batch_workers_validated_though_unused(self):
        with pytest.raises(QueryPlanError):
            CrossRunBatchQuery("spec", [(("a", 1), ("h", 1))], workers=0)
        with pytest.raises(QueryPlanError):
            CrossRunPointQuery("spec", ("a", 1), ("h", 1), workers=-2)

    def test_batches_read_only_their_endpoints(self, parallel_store, monkeypatch):
        import repro.storage.store as store_module

        store, run_ids, spec = parallel_store
        pairs = [(("a", 1), ("h", 1)), (("c", 2), ("a", 1)), (("b", 1), ("h", 1))]
        session = ProvenanceSession(store)
        expected = {
            run_id: [
                bool(a) for a in session.run(BatchQuery(pairs=pairs, run_id=run_id))
            ]
            for run_id in run_ids
        }

        def whole_run_fetch(*args, **kwargs):
            raise AssertionError("a cross-run batch streamed whole runs")

        monkeypatch.setattr(store_module, "load_label_arrays", whole_run_fetch)
        for workers in (None, 1, 3):
            result = session.run(CrossRunBatchQuery(spec.name, pairs, workers=workers))
            assert result.per_run == {
                run_id: expected[run_id] for run_id in result.per_run
            }
            assert set(result.per_run) | set(result.skipped_runs) == set(run_ids)
            point = session.run(
                CrossRunPointQuery(spec.name, ("a", 1), ("h", 1), workers=workers)
            )
            assert point.per_run == {
                run_id: expected[run_id][0] for run_id in point.per_run
            }

    def test_parameter_budget_spans_runs_and_endpoints(
        self, tmp_path, paper_spec, monkeypatch
    ):
        import sqlite3

        import repro.storage.database as database_module

        labeler = SkeletonLabeler(paper_spec, "tcm")
        # two runs with one execution set (never skipped) and one other
        labeled = [
            labeler.label_run(
                generate_run_with_size(paper_spec, 520, seed=seed, name=name).run
            )
            for seed, name in ((3, "wide-a"), (3, "wide-b"), (4, "other"))
        ]
        vertices = labeled[0].run.vertices()
        pairs = [
            ((u.module, u.instance), (v.module, v.instance))
            for u, v in zip(vertices, reversed(vertices))
        ]
        # more host parameters than SQLite's historical limit, even with
        # the chunk constant lifted far above it
        limit = database_module.SQLITE_MAX_VARIABLE_NUMBER
        assert len(labeled) + 2 * len(vertices) > limit
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 2000)
        with ProvenanceStore(tmp_path / "wide.db") as store:
            run_ids = [store.add_labeled_run(item) for item in labeled]
            if hasattr(store._connection, "setlimit"):  # Python 3.11+
                store._connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, limit)
            per_run, skipped = CrossRunExecutor(store).batch(paper_spec.name, pairs)
        assert set(per_run) | set(skipped) == set(run_ids)
        assert run_ids[0] in per_run and run_ids[1] in per_run
        for run_id, item in zip(run_ids, labeled):
            if run_id in per_run:
                assert per_run[run_id] == [
                    item.reaches(RunVertex(*source), RunVertex(*target))
                    for source, target in pairs
                ]

    def test_unplannable_off_store(self, paper_spec, paper_run):
        labeled = SkeletonLabeler(paper_spec, "tcm").label_run(paper_run)
        session = ProvenanceSession.for_index(labeled)
        with pytest.raises(QueryPlanError):
            session.run(CrossRunBatchQuery("x", [(("a", 1), ("h", 1))]))
        with pytest.raises(QueryPlanError):
            session.run(CrossRunPointQuery("x", ("a", 1), ("h", 1)))

    def test_sweep_workers_field(self, parallel_store):
        store, _, spec = parallel_store
        session = ProvenanceSession(store)
        sequential = session.run(CrossRunQuery(spec.name, ("a", 1), workers=1))
        parallel = session.run(CrossRunQuery(spec.name, ("a", 1), workers=2))
        assert parallel.per_run == sequential.per_run
        with pytest.raises(QueryPlanError):
            session.run(CrossRunQuery(spec.name, ("a", 1), workers=0))


class TestAdaptivePromotion:
    def _store_with_run(self, tmp_path, paper_spec, paper_run):
        labeler = SkeletonLabeler(paper_spec, "tcm")
        store = ProvenanceStore(tmp_path / "promote.db")
        run_id = store.add_labeled_run(labeler.label_run(paper_run))
        return store, run_id

    def test_promotion_makes_point_queries_sql_free(
        self, tmp_path, paper_spec, paper_run
    ):
        store, run_id = self._store_with_run(tmp_path, paper_spec, paper_run)
        session = ProvenanceSession(store, promote_after=3)
        statements: list[str] = []
        store._connection.set_trace_callback(statements.append)
        query = PointQuery(("a", 1), ("h", 1), run_id=run_id)
        # cold: each point query pays per-pair SQL
        session.run(query)
        assert statements, "cold point queries must touch SQL"
        statements.clear()
        session.run(query)
        assert statements
        # the Nth query trips promotion: the engine warms with one final
        # label fetch ...
        statements.clear()
        assert session.run(query) is True
        assert statements, "promotion warms the engine with one SQL fetch"
        # ... and every later point query replays with ZERO SQL
        statements.clear()
        for _ in range(10):
            assert session.run(query) is True
            assert session.run(PointQuery(("h", 1), ("a", 1), run_id=run_id)) is False
        assert statements == []
        store._connection.set_trace_callback(None)
        stats = session.cache_stats()
        assert stats["promoted_runs"] == [run_id]
        assert stats["promotions"] == 1
        assert stats["point_hits"][run_id] == 3
        store.close()

    def test_default_threshold_and_validation(self, tmp_path, paper_spec, paper_run):
        from repro.api import PROMOTE_AFTER_DEFAULT

        store, run_id = self._store_with_run(tmp_path, paper_spec, paper_run)
        session = ProvenanceSession(store)
        assert session.cache_stats()["promote_after"] == PROMOTE_AFTER_DEFAULT
        with pytest.raises(QueryPlanError):
            ProvenanceSession(store, promote_after=0)
        store.close()

    def test_promoted_answers_match_cold_answers(
        self, tmp_path, paper_spec, paper_run
    ):
        store, run_id = self._store_with_run(tmp_path, paper_spec, paper_run)
        session = ProvenanceSession(store, promote_after=2)
        vertices = paper_run.vertices()
        pairs = [(u, v) for u in vertices[:5] for v in vertices[:5]]
        cold = [
            ProvenanceSession(store, promote_after=10_000).run(
                PointQuery(u, v, run_id=run_id)
            )
            for u, v in pairs
        ]
        hot = [session.run(PointQuery(u, v, run_id=run_id)) for u, v in pairs]
        assert hot == cold
        store.close()

    def test_unknown_execution_stays_storage_error_after_promotion(
        self, tmp_path, paper_spec, paper_run
    ):
        # promotion must not flip the error contract: an unknown execution
        # raises StorageError with run context both before and after the
        # run switches to the compiled engine
        store, run_id = self._store_with_run(tmp_path, paper_spec, paper_run)
        session = ProvenanceSession(store, promote_after=2)
        bad = PointQuery(("ghost", 1), ("h", 1), run_id=run_id)
        with pytest.raises(StorageError, match=f"run {run_id}"):
            session.run(bad)
        good = PointQuery(("a", 1), ("h", 1), run_id=run_id)
        while run_id not in session.cache_stats()["promoted_runs"]:
            session.run(good)
        with pytest.raises(StorageError, match=f"run {run_id}"):
            session.run(bad)
        store.close()

    def test_eviction_counter_surfaces(self, tmp_path, paper_spec):
        from repro.storage import store as store_module

        labeler = SkeletonLabeler(paper_spec, "tcm")
        store = ProvenanceStore(tmp_path / "evict.db")
        run_ids = []
        for seed in range(store_module.STORED_RUN_CACHE_LIMIT + 2):
            generated = generate_run_with_size(
                paper_spec, 15, seed=seed, name=f"evict-{seed}"
            )
            run_ids.append(store.add_labeled_run(labeler.label_run(generated.run)))
        session = ProvenanceSession(store)
        for run_id in run_ids:
            store.query_engine(run_id)
        stats = session.cache_stats()
        assert stats["evictions"] >= 2
        assert stats["stored_runs_cached"] <= stats["limit"]
        store.close()


class TestSessionCacheStats:
    def test_index_target_stats(self, paper_spec, paper_run):
        labeled = SkeletonLabeler(paper_spec, "tcm").label_run(paper_run)
        session = ProvenanceSession.for_index(labeled)
        session.run(PointQuery(("a", 1), ("h", 1)))
        stats = session.cache_stats()
        assert stats["target_kind"] == "index"
        assert stats["queries"] >= 1

    def test_online_target_stats(self, paper_spec):
        from repro.skeleton.online import OnlineRun

        online = OnlineRun(paper_spec)
        online.root_scope.execute("a")
        online.root_scope.execute("d")
        session = ProvenanceSession.for_online(online)
        session.run(PointQuery(("a", 1), ("d", 1)))
        stats = session.cache_stats()
        assert stats["target_kind"] == "online"
        assert stats["kernel"] == "incremental-online"
        assert stats["rebuilds"] >= 1


class TestParallelCLI:
    def _populated_database(self, tmp_path, paper_spec, paper_run):
        labeler = SkeletonLabeler(paper_spec, "tcm")
        database = tmp_path / "cli.db"
        with ProvenanceStore(database) as store:
            store.add_labeled_run(labeler.label_run(paper_run))
            for seed in (1, 2, 3):
                generated = generate_run_with_size(
                    paper_spec, 20, seed=seed, name=f"cli-{seed}"
                )
                store.add_labeled_run(labeler.label_run(generated.run))
        return database

    def test_sweep_workers_flag(self, tmp_path, paper_spec, paper_run, capsys):
        from repro.cli import main

        database = self._populated_database(tmp_path, paper_spec, paper_run)
        assert main([
            "sweep", "--database", str(database), "--spec", "paper-example",
            "--source", "a:1", "--summary-only", "--workers", "2",
        ]) == 0
        parallel_output = capsys.readouterr().out
        assert main([
            "sweep", "--database", str(database), "--spec", "paper-example",
            "--source", "a:1", "--summary-only", "--workers", "1",
        ]) == 0
        sequential_output = capsys.readouterr().out
        # identical per-run counts, whatever the pool did
        assert parallel_output.splitlines()[:-1] == sequential_output.splitlines()[:-1]

    def test_cross_batch_command(self, tmp_path, paper_spec, paper_run, capsys):
        from repro.cli import main

        database = self._populated_database(tmp_path, paper_spec, paper_run)
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("a:1 h:1\nh:1 a:1\n")
        assert main([
            "cross-batch", "--database", str(database), "--spec", "paper-example",
            "--pairs", str(pairs_file), "--workers", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "1/2 pairs reachable" in output
        assert "answered 2 pairs x" in output
        assert "reaches h:1" in output

    def test_cross_batch_summary_only(self, tmp_path, paper_spec, paper_run, capsys):
        from repro.cli import main

        database = self._populated_database(tmp_path, paper_spec, paper_run)
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("a:1 h:1\n")
        assert main([
            "cross-batch", "--database", str(database), "--spec", "paper-example",
            "--pairs", str(pairs_file), "--summary-only",
        ]) == 0
        output = capsys.readouterr().out
        assert "does-not-reach" not in output and " reaches " not in output

    def test_cross_batch_empty_pairs_errors(self, tmp_path, paper_spec, paper_run):
        from repro.cli import main

        database = self._populated_database(tmp_path, paper_spec, paper_run)
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("# nothing\n")
        assert main([
            "cross-batch", "--database", str(database), "--spec", "paper-example",
            "--pairs", str(pairs_file),
        ]) == 2
