"""Tests for the parallel cross-run execution subsystem.

Covers the executor (worker resolution, sequential auto-selection,
bit-identical answers on worker threads, one pool per sweep whose threads
end with it), the chunked multi-run prefetch, the generalized cross-run
batch/point queries, the session's cache statistics, and the CLI
surface (``sweep --workers``, ``cross-batch``).
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

import repro.engine.parallel as parallel
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
    _decode_affected,
    _pack_affected,
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


class TestWorkerTimeout:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [(None, None), ("0.25", 0.25), (" 2 ", 2.0), ("0", None), ("-1", None)],
        ids=["unset", "fraction", "padded", "zero", "negative"],
    )
    def test_timeout_read_from_environment(self, monkeypatch, raw, expected):
        # unset, zero and negative all mean "wait for the chunk forever"
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT", raising=False)
        if raw is not None:
            monkeypatch.setenv("REPRO_WORKER_TIMEOUT", raw)
        assert parallel._worker_timeout() == expected

    def test_malformed_timeout_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "soon")
        with pytest.raises(QueryPlanError, match="REPRO_WORKER_TIMEOUT"):
            parallel._worker_timeout()

    def test_malformed_timeout_fails_only_the_parallel_path(
        self, parallel_store, anchor, monkeypatch
    ):
        store, _, spec = parallel_store
        expected = CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "soon")
        # the sequential path waits on no future, so it never reads the knob
        assert CrossRunExecutor(store, workers=1).sweep(spec.name, anchor) == expected
        with pytest.raises(QueryPlanError, match="REPRO_WORKER_TIMEOUT"):
            CrossRunExecutor(store, workers=2).sweep(spec.name, anchor)


class TestPackedResults:
    @pytest.mark.parametrize(
        ("executions", "positions"),
        [
            ([("a", 1), ("b", 1), ("a", 2), ("c", 7)], [0, 2, 3]),
            ([("a", 1), ("b", 1)], []),
            ([("wide", 2**40 + 3), ("wide", 1)], [0, 1]),  # past 32 bits
        ],
        ids=["subset", "empty", "int64"],
    )
    def test_round_trip_keeps_the_selected_rows_in_order(self, executions, positions):
        packed = _pack_affected(executions, positions)
        assert _decode_affected(packed) == [executions[p] for p in positions]

    def test_module_dictionary_holds_each_module_once(self):
        executions = [("a", 1), ("b", 1), ("a", 2), ("c", 7), ("b", 3)]
        modules, index_bytes, instance_bytes = _pack_affected(executions, range(5))
        assert modules == ("a", "b", "c")  # first-seen order
        # one int64 per selected row in each column
        assert len(index_bytes) == len(instance_bytes) == 8 * 5


class TestChunking:
    @pytest.mark.parametrize(
        ("run_count", "workers", "sizes"),
        [
            (12, 2, [4, 4, 4]),  # capped at PREFETCH_CHUNK_RUNS
            (6, 3, [2, 2, 2]),  # shrunk so every worker gets a chunk
            (5, 2, [3, 2]),
            (3, 8, [1, 1, 1]),  # never an empty chunk
            (0, 2, []),
        ],
    )
    def test_chunk_sizes(self, run_count, workers, sizes):
        run_ids = list(range(100, 100 + run_count))
        chunks = list(CrossRunExecutor._chunks(run_ids, workers))
        assert [len(chunk) for chunk in chunks] == sizes
        assert max(sizes, default=0) <= PREFETCH_CHUNK_RUNS
        # every run exactly once, in the order given
        assert [run_id for chunk in chunks for run_id in chunk] == run_ids

    def test_single_file_store_is_one_path_group(self, parallel_store):
        store, run_ids, _ = parallel_store
        executor = CrossRunExecutor(store, workers=2)
        assert executor._path_groups(run_ids) == [(str(store.path), run_ids)]

    def test_each_chunk_reads_its_own_shard_file(self):
        store = SimpleNamespace(shard_path_of=lambda run_id: f"shard-{run_id % 2}.db")
        fanned = list(CrossRunExecutor(store)._fan_chunks(list(range(16)), 2))
        for path, chunk in fanned:
            assert {f"shard-{run_id % 2}.db" for run_id in chunk} == {path}
        assert sorted(run_id for _, chunk in fanned for run_id in chunk) == list(
            range(16)
        )


class TestExecutorModes:
    def test_thread_workers_match_sequential(self, parallel_store, anchor):
        store, run_ids, spec = parallel_store
        sequential = CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        parallel = CrossRunExecutor(store, workers=3).sweep(spec.name, anchor)
        assert parallel == sequential
        per_run, skipped = sequential
        assert set(per_run) | set(skipped) == set(run_ids)

    def test_workers_beyond_the_auto_cap_match_sequential(
        self, parallel_store, anchor
    ):
        store, _, spec = parallel_store
        sequential = CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        wide = CrossRunExecutor(store, workers=MAX_AUTO_WORKERS + 4)
        assert wide.sweep(spec.name, anchor) == sequential

    def test_compiled_plan_re_executes_identically(self, parallel_store, anchor):
        store, _, spec = parallel_store
        session = ProvenanceSession(store)
        plan = session.compile(CrossRunQuery(spec.name, anchor, workers=2))
        first = plan.execute()
        for _ in range(2):
            assert plan.execute().per_run == first.per_run

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
        parallel = CrossRunExecutor(store, workers=3).batch(spec.name, pairs)
        assert parallel == sequential
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

    def test_unknown_specification_raises(self, parallel_store):
        store, _, _ = parallel_store
        with pytest.raises(StorageError):
            CrossRunExecutor(store).sweep("nope", ("a", 1))

    def test_empty_batch_rejected(self, parallel_store):
        store, _, spec = parallel_store
        with pytest.raises(QueryPlanError):
            CrossRunExecutor(store).batch(spec.name, [])


class TestPerCallThreads:
    def test_each_parallel_sweep_opens_and_ends_its_own_threads(
        self, parallel_store, anchor, monkeypatch
    ):
        store, _, spec = parallel_store
        opened = []
        open_pool = parallel.ThreadPoolExecutor

        def recording_pool(*args, **kwargs):
            opened.append(kwargs["max_workers"])
            return open_pool(*args, **kwargs)

        fetchers = set()
        fetch = parallel._fetch_chunk_arrays

        def recording_fetch(db_path, run_ids):
            fetchers.add(threading.current_thread())
            return fetch(db_path, run_ids)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(parallel, "_fetch_chunk_arrays", recording_fetch)
        # a chaos-profile crash would move a chunk onto the calling thread
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        before = set(threading.enumerate())
        CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        assert opened == []  # the sequential path starts no thread
        for workers in (2, 3):
            CrossRunExecutor(store, workers=workers).sweep(spec.name, anchor)
        # one pool per parallel sweep, exactly as wide as its worker count
        assert opened == [2, 3]
        assert fetchers and threading.current_thread() not in fetchers
        assert not any(thread.is_alive() for thread in fetchers)
        assert set(threading.enumerate()) <= before

    def test_sequential_paths_start_no_thread(
        self, parallel_store, anchor, paper_spec, paper_run, monkeypatch
    ):
        store, _, spec = parallel_store
        # None is not callable: any pool start would fail the test
        monkeypatch.setattr(parallel, "ThreadPoolExecutor", None)
        CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        # batches never fan out, whatever their worker count
        CrossRunExecutor(store, workers=3).batch(spec.name, [(("a", 1), ("h", 1))])
        # auto-sizing on one usable CPU stays on the calling thread
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        CrossRunExecutor(store).sweep(spec.name, anchor)
        labeled = SkeletonLabeler(paper_spec, "tcm").label_run(paper_run)
        with ProvenanceStore() as memory:
            memory.add_labeled_run(labeled)
            CrossRunExecutor(memory, workers=8).sweep(paper_spec.name, ("a", 1))

    def test_pool_shutdown_waits_when_no_chunk_timed_out(
        self, parallel_store, anchor, monkeypatch
    ):
        store, _, spec = parallel_store
        shutdowns = []

        class RecordingPool(parallel.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "30")
        CrossRunExecutor(store, workers=2).sweep(spec.name, anchor)
        # a bounded wait that never expired still joins every pool thread
        assert shutdowns == [(True, False)]

    def test_failing_chunk_propagates_and_ends_its_pool(
        self, parallel_store, anchor, monkeypatch
    ):
        store, _, spec = parallel_store

        def broken_fetch(db_path, run_ids):
            raise ValueError("kernel bug")

        monkeypatch.setattr(parallel, "_fetch_chunk_arrays", broken_fetch)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        before_threads = set(threading.enumerate())
        before = dict(store.cache_stats()["degraded"])
        # not a _RETRYABLE error: no retry, no inline rerun, no counter
        with pytest.raises(ValueError, match="kernel bug"):
            CrossRunExecutor(store, workers=2).sweep(spec.name, anchor)
        assert store.cache_stats()["degraded"] == before
        assert set(threading.enumerate()) <= before_threads


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
        result = session.run(CrossRunBatchQuery(spec.name, pairs))
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
        result = session.run(CrossRunBatchQuery(spec.name, [(("a", 1), ("b", 99))]))
        assert result.per_run == {}
        assert sorted(result.skipped_runs) == sorted(run_ids)

    def test_empty_pairs_rejected_at_query_construction(self):
        with pytest.raises(QueryPlanError):
            CrossRunBatchQuery("spec", [])

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
        result = session.run(CrossRunBatchQuery(spec.name, pairs))
        assert result.per_run == {run_id: expected[run_id] for run_id in result.per_run}
        assert set(result.per_run) | set(result.skipped_runs) == set(run_ids)
        point = session.run(CrossRunPointQuery(spec.name, ("a", 1), ("h", 1)))
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
            "--pairs", str(pairs_file),
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
