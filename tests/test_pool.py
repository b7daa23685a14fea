"""Tests for the persistent worker pool and its reuse across executions.

Covers the pool's lazy-start/explicit-close lifecycle, the owner mixin on
both stores, reuse by the cross-run executor (one pool start across many
plan executions, in thread and process mode), the process-mode payload
cache (dense matrices pickled once per pool), and the ``pool=False``
escape hatch that forces the old per-execution pools.
"""

from __future__ import annotations

import pytest

from repro.api import CrossRunQuery, ProvenanceSession
from repro.engine.parallel import CrossRunExecutor
from repro.engine.pool import DEFAULT_POOL_WORKERS, PersistentWorkerPool
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


class TestPersistentWorkerPool:
    def test_lazy_start_and_submit(self):
        pool = PersistentWorkerPool()
        assert not pool.started and pool.starts == 0
        future = pool.submit(lambda x: x + 1, 41)
        assert future.result() == 42
        assert pool.started and pool.starts == 1
        assert pool.tasks_submitted == 1
        pool.close()
        assert pool.closed

    def test_close_is_idempotent_and_final(self):
        pool = PersistentWorkerPool(workers=2)
        pool.submit(int)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(int)

    def test_close_before_start_is_fine(self):
        pool = PersistentWorkerPool()
        pool.close()
        assert not pool.started and pool.closed

    def test_context_manager(self):
        with PersistentWorkerPool() as pool:
            assert pool.submit(sum, (1, 2, 3)).result() == 6
        assert pool.closed

    def test_validation(self):
        with pytest.raises(ValueError):
            PersistentWorkerPool(mode="fiber")
        with pytest.raises(ValueError):
            PersistentWorkerPool(workers=0)
        assert PersistentWorkerPool().workers == DEFAULT_POOL_WORKERS

    def test_stats(self):
        pool = PersistentWorkerPool(workers=3)
        stats = pool.stats()
        assert stats["mode"] == "thread" and not stats["started"]
        pool.submit(int)
        pool.payload_cache["k"] = b"blob"
        stats = pool.stats()
        assert stats["tasks_submitted"] == 1 and stats["payloads_cached"] == 1
        pool.close()
        assert pool.payload_cache == {}


class TestLeakedPoolFinalizer:
    def test_leaked_started_pool_warns_and_names_its_owner(self):
        import gc
        import warnings

        pool = PersistentWorkerPool(workers=1, owner="TestLeakedPool")
        assert pool.submit(int).result() == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del pool
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(leaks) == 1
        message = str(leaks[0].message)
        assert "TestLeakedPool" in message and "never closed" in message

    def test_closed_pool_never_warns(self):
        import gc
        import warnings

        pool = PersistentWorkerPool(workers=1)
        pool.submit(int).result()
        pool.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del pool
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_never_started_pool_never_warns(self):
        import gc
        import warnings

        pool = PersistentWorkerPool(workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del pool
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_store_leak_warning_names_the_store(self, tmp_path):
        import gc
        import warnings

        store = ProvenanceStore(tmp_path / "leaky.db")
        store.worker_pool("thread").submit(int).result()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del store
            gc.collect()
        # only the pool's own warning: Python 3.13's sqlite3 adds one of
        # its own for the store's unclosed connection
        leaks = [
            w
            for w in caught
            if issubclass(w.category, ResourceWarning)
            and "PersistentWorkerPool" in str(w.message)
            and "never closed" in str(w.message)
        ]
        assert len(leaks) == 1
        assert "ProvenanceStore" in str(leaks[0].message)
        assert "leaky.db" in str(leaks[0].message)


class TestOwnerMixin:
    def test_store_owns_one_pool_per_mode(self, tmp_path):
        store = ProvenanceStore(tmp_path / "own.db")
        thread_pool = store.worker_pool("thread")
        assert store.worker_pool("thread") is thread_pool
        process_pool = store.worker_pool("process")
        assert process_pool is not thread_pool and process_pool.mode == "process"
        store.close()
        assert thread_pool.closed and process_pool.closed

    def test_closed_pool_is_replaced(self, tmp_path):
        store = ProvenanceStore(tmp_path / "replace.db")
        pool = store.worker_pool("thread")
        pool.close()
        fresh = store.worker_pool("thread")
        assert fresh is not pool and not fresh.closed
        store.close()

    def test_sharded_store_closes_pools(self, tmp_path):
        store = ShardedProvenanceStore(tmp_path / "sharded", 2)
        pool = store.worker_pool("thread")
        store.close()
        assert pool.closed


@pytest.fixture()
def pooled_store(tmp_path, paper_spec, paper_labeler):
    store = ProvenanceStore(tmp_path / "pooled.db")
    for seed in range(6):
        generated = generate_run_with_size(
            paper_spec, 20, seed=seed, name=f"pooled-{seed}"
        )
        store.add_labeled_run(paper_labeler.label_run(generated.run))
    yield store, paper_spec
    store.close()


class TestExecutorPoolReuse:
    def test_executions_share_one_pool_start(self, pooled_store):
        store, spec = pooled_store
        executor = CrossRunExecutor(store, workers=2, mode="thread")
        first = executor.sweep(spec.name, ("a", 1))
        pool = store.worker_pool("thread")
        assert pool.starts == 1
        submitted = pool.tasks_submitted
        assert submitted > 0
        for _ in range(3):
            assert executor.sweep(spec.name, ("a", 1)) == first
        assert pool.starts == 1, "re-executions must not restart the pool"
        assert pool.tasks_submitted > submitted

    def test_compiled_plan_reuses_store_pool(self, pooled_store):
        store, spec = pooled_store
        session = ProvenanceSession(store)
        plan = session.compile(CrossRunQuery(spec.name, ("a", 1), workers=2))
        first = plan.execute()
        for _ in range(2):
            assert plan.execute().per_run == first.per_run
        # whichever pool mode REPRO_PARALLEL selected, it started exactly once
        assert sum(stats["starts"] for stats in store.pool_stats().values()) == 1

    def test_process_mode_caches_dense_payloads(self, pooled_store):
        pytest.importorskip("numpy")
        store, spec = pooled_store
        executor = CrossRunExecutor(store, workers=2, mode="process")
        first = executor.sweep(spec.name, ("a", 1))
        pool = store.worker_pool("process")
        cached = len(pool.payload_cache)
        assert cached >= 1, "the dense spec matrix must be pickled into the cache"
        assert executor.sweep(spec.name, ("a", 1)) == first
        assert len(pool.payload_cache) == cached, "re-executions must not re-pickle"

    def test_pool_false_forces_ephemeral_pools(self, pooled_store):
        store, spec = pooled_store
        executor = CrossRunExecutor(store, workers=2, pool=False)
        answers = executor.sweep(spec.name, ("a", 1))
        # no persistent pool was created on the store
        assert store.pool_stats() == {}
        assert CrossRunExecutor(store, workers=1).sweep(spec.name, ("a", 1)) == answers

    def test_explicit_pool_object_is_used_and_kept_open(self, pooled_store):
        store, spec = pooled_store
        with PersistentWorkerPool(workers=2) as pool:
            executor = CrossRunExecutor(store, workers=2, pool=pool)
            sequential = CrossRunExecutor(store, workers=1).sweep(spec.name, ("a", 1))
            assert executor.sweep(spec.name, ("a", 1)) == sequential
            assert pool.tasks_submitted > 0 and not pool.closed

    def test_sequential_paths_never_start_a_pool(self, pooled_store):
        store, spec = pooled_store
        CrossRunExecutor(store, workers=1).sweep(spec.name, ("a", 1))
        assert store.pool_stats() == {}


class TestReviewRegressions:
    def test_oversized_explicit_request_bypasses_narrow_store_pool(
        self, pooled_store
    ):
        store, spec = pooled_store
        sequential = CrossRunExecutor(store, workers=1).sweep(spec.name, ("a", 1))
        wide = CrossRunExecutor(store, workers=DEFAULT_POOL_WORKERS + 4, mode="thread")
        assert wide.sweep(spec.name, ("a", 1)) == sequential
        # the 8-wide shared pool cannot serve a 12-way request; an
        # ephemeral pool did, so the store pool was never started
        stats = store.pool_stats()
        assert not stats or stats["thread"]["tasks_submitted"] == 0

    def test_concurrent_worker_pool_requests_share_one_pool(self, tmp_path):
        import threading

        store = ProvenanceStore(tmp_path / "race.db")
        pools = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            pools.append(store.worker_pool("thread"))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(pool) for pool in pools}) == 1
        store.close()
        assert pools[0].closed
