"""Parallel cross-run execution: fan per-run label streams across workers.

The cross-run query path (PR 3) compiles one shared
:class:`~repro.engine.kernels.SpecKernel` per ``(specification, scheme)``
and streams every run's raw label columns through it — but strictly one run
at a time, over the store's single SQLite connection.  Profiling shows the
per-run payload is dominated by the **fetch** (the SQL scan plus the column
transpose), not the kernel math, so parallelizing only the evaluation would
serialize on the one connection and win nothing.  This module therefore
partitions a specification's runs into chunks and hands each chunk to a
worker that opens its **own read-only connection** to the store file,
fetches the chunk with a single ordered ``run_id IN`` scan
(:func:`~repro.storage.store.load_label_arrays`), and evaluates its runs
through the shared kernel:

* the default pool is the **store-owned persistent worker pool**
  (:mod:`repro.engine.pool`): lazily started on the first parallel
  execution, reused by every later one (and by the sharded store's ingest
  service), closed with the store — a monitoring loop re-executing one
  compiled plan no longer pays pool startup per execution.  Thread workers
  by default — ``sqlite3``'s step loop and numpy's ufuncs release the GIL,
  so fetch and kernel work overlap;
* ``REPRO_PARALLEL=process`` switches to a process pool whose tasks are
  top-level functions fed picklable payloads.  The dense spec matrix is
  pickled **once per kernel per pool** (the blob is cached on the pool and
  reshipped as bytes, a memcpy), not re-serialized per execution; runs
  whose spec kernel is not dense — live traversal schemes, numpy-less
  installs — cannot ship and are evaluated on the submitting side;
* chunking is **shard-aware**: when the store routes runs across shard
  files (:class:`~repro.storage.sharded.ShardedProvenanceStore` exposes
  ``shard_path_of``), runs are grouped by their physical file first, so
  each worker connection opens exactly the one shard file its chunk lives
  in;
* workers return **packed** results — affected sweep rows as
  module-dictionary + two int64 columns — decoded once at the API boundary
  (:meth:`CrossRunExecutor._split_outcomes`), which shrinks process-mode
  pickling and the GIL-bound per-row tuple building in thread mode.

Only the anchored dependency **sweep** (``CrossRunQuery``) fans out.  The
generalized **pair batch** (the same pairs asked of every run, a runs x
pairs matrix) behind ``CrossRunBatchQuery`` / ``CrossRunPointQuery``
needs only its endpoints' labels, so it looks them up by primary key
(:func:`~repro.storage.store.load_execution_labels`), once per store
connection on the calling thread, and evaluates each run over arrays that
hold just those endpoints; its ``workers`` setting has no effect.

The sequential sweep path (per-run streaming fetch, inline evaluation) is
auto-selected when the run count is below
:data:`PARALLEL_MIN_RUNS`, when only one CPU is available, when
``workers=1`` is requested, or when the store is in-memory (a ``:memory:``
database is reachable only through its one connection).  Parallel sweep
answers are bit-identical to sequential ones: every mode evaluates the same
compiled-kernel formula over the same streamed arrays, and every mode
round-trips through the same packed encoding.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
from array import array
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeout,
)
from typing import Any, Callable, Optional, Sequence, Union
from urllib.parse import quote

from repro import faults
from repro.engine.kernels import dense_sweep_answers
from repro.engine.pool import PersistentWorkerPool
from repro.exceptions import QueryPlanError, WorkerCrashError
from repro.faults import fault_point

try:  # numpy accelerates the kernels but is strictly optional
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

__all__ = [
    "CrossRunExecutor",
    "PARALLEL_MIN_RUNS",
    "PREFETCH_CHUNK_RUNS",
    "MAX_AUTO_WORKERS",
    "resolve_workers",
]

#: below this many runs the sequential path is auto-selected (pool startup
#: and per-chunk connections would dominate the handful of payloads)
PARALLEL_MIN_RUNS = 4

#: the most runs one worker fetches with a single ordered SQL scan; chunks
#: shrink further when needed so every pool worker gets at least one task
#: (see CrossRunExecutor._chunks), and stay large enough otherwise to
#: amortize the per-chunk connection and query setup
PREFETCH_CHUNK_RUNS = 4

#: cap on auto-sized pools; cross-run payloads are short, so more workers
#: than this just adds scheduler churn
MAX_AUTO_WORKERS = 8

#: chunk failures the executor transparently recovers from: a retry on the
#: pool, then an inline sequential evaluation (both recorded through the
#: store's ``note_degraded``).  Covers a crashed worker process
#: (BrokenExecutor / WorkerCrashError), a dropped or refused connection
#: (OSError — InjectedConnectionError included), a transient SQL failure
#: on the task-private connection, and a hung worker when
#: ``REPRO_WORKER_TIMEOUT`` bounds the wait.  Anything else — a kernel
#: bug, a typed ReproError — propagates untouched.
_RETRYABLE = (
    WorkerCrashError,
    BrokenExecutor,
    OSError,
    sqlite3.OperationalError,
    FuturesTimeout,
)


def _worker_timeout() -> Optional[float]:
    """Seconds to wait on one chunk future (``REPRO_WORKER_TIMEOUT``).

    Unset (the default) waits forever — the pre-fault-tolerance behavior.
    A bounded wait turns a hung worker into a :data:`_RETRYABLE` timeout,
    so the chunk is retried and, failing that, evaluated inline; the stuck
    future is abandoned to finish (or not) on its own.
    """
    raw = os.environ.get("REPRO_WORKER_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise QueryPlanError(
            f"REPRO_WORKER_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    return timeout if timeout > 0 else None


def resolve_workers(workers: Optional[int], run_count: int) -> int:
    """How many workers a cross-run execution actually uses.

    An explicit *workers* request is honored (clamped to the run count —
    there is never more than one task per run in flight); ``None`` sizes
    the pool from the CPUs this process may run on
    (``os.sched_getaffinity``, or ``os.cpu_count()`` where the platform
    lacks it) capped at :data:`MAX_AUTO_WORKERS`, and additionally
    auto-selects the sequential path (returns 1) for small sweeps
    (< :data:`PARALLEL_MIN_RUNS` runs) or a process limited to one CPU —
    a ``taskset``/cpuset-pinned server included.
    """
    if run_count <= 0:
        return 1
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise QueryPlanError(f"workers must be a positive integer, got {workers}")
        return min(workers, run_count)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus <= 1 or run_count < PARALLEL_MIN_RUNS:
        return 1
    return max(1, min(cpus, MAX_AUTO_WORKERS, run_count))


def _true_positions(answers) -> list[int]:
    """Row indices answered True (numpy fast path when the array allows)."""
    if _np is not None and isinstance(answers, _np.ndarray):
        return _np.flatnonzero(answers).tolist()
    return [i for i, answer in enumerate(answers) if answer]


def _readonly_connection(path):
    """A private read-only connection to the store file (one per task).

    Falls back to a plain connection when the read-only URI open fails —
    e.g. a WAL-mode shard whose ``-shm`` file an old SQLite refuses to map
    read-only; the workers only ever SELECT, so the fallback stays safe.
    """
    import sqlite3

    try:
        return sqlite3.connect(f"file:{quote(str(path))}?mode=ro", uri=True)
    except sqlite3.OperationalError:  # pragma: no cover - sqlite-build dependent
        return sqlite3.connect(str(path))


# ----------------------------------------------------------------------
# packed worker results (decoded once at the API boundary)
# ----------------------------------------------------------------------
def _pack_affected(executions, positions) -> tuple:
    """Pack affected sweep rows: module dictionary + two int64 columns.

    ``len(affected)`` Python tuples become one small tuple of distinct
    module names plus two byte blobs — far cheaper to pickle out of a
    process worker and to build inside a GIL-holding thread worker than
    the decoded ``(module, instance)`` list.
    """
    modules: list[str] = []
    module_index: dict[str, int] = {}
    index_column = array("q")
    instance_column = array("q")
    for position in positions:
        module, instance = executions[position]
        slot = module_index.setdefault(module, len(modules))
        if slot == len(modules):
            modules.append(module)
        index_column.append(slot)
        instance_column.append(int(instance))
    return (tuple(modules), index_column.tobytes(), instance_column.tobytes())


def _decode_affected(packed: tuple) -> list[tuple[str, int]]:
    """Rebuild the ``(module, instance)`` list from one packed sweep payload."""
    modules, index_bytes, instance_bytes = packed
    index_column = array("q")
    index_column.frombytes(index_bytes)
    instance_column = array("q")
    instance_column.frombytes(instance_bytes)
    return [
        (modules[slot], instance)
        for slot, instance in zip(index_column, instance_column)
    ]


# ----------------------------------------------------------------------
# worker tasks (top-level so the process pool can pickle them)
# ----------------------------------------------------------------------
def _fetch_chunk_arrays(db_path, run_ids):
    """Fetch one chunk's label arrays over a task-private connection."""
    # imported lazily: repro.storage imports repro.engine submodules, so a
    # module-level import here would tangle package initialization order
    from repro.storage.store import load_label_arrays

    connection = _readonly_connection(db_path)
    try:
        return load_label_arrays(connection, run_ids)
    finally:
        connection.close()


def _thread_chunk_task(db_path, run_ids, kernels, evaluate):
    """One thread task: private-connection fetch, then per-run evaluation."""
    fault_point("pool.task")
    arrays_of = _fetch_chunk_arrays(db_path, run_ids)
    return [evaluate(run_id, kernels[run_id], arrays_of[run_id]) for run_id in run_ids]


def _origin_rows(position_of, origins):
    return _np.fromiter(
        map(position_of.__getitem__, origins), dtype=_np.int64, count=len(origins)
    )


def _process_chunk_task(payload):
    """One process task: private-connection fetch + dense evaluation.

    The payload carries only picklable state: the store (or shard) file
    path, the chunk's run ids, each run's dense spec payload as a
    **pickled blob** (``pickle.dumps((matrix, position_of))`` — serialized
    once per kernel per pool and reshipped as bytes), and the sweep's
    ``(anchor, downstream)``.  Results come back packed (see
    :func:`_pack_affected`); the parent decodes them once at the API
    boundary.
    """
    db_path, run_ids, blob_of, (anchor, downstream) = payload
    fault_point("pool.task")
    arrays_of = _fetch_chunk_arrays(db_path, run_ids)
    # runs of one spec share one kernel, hence one blob object: unpickle
    # each distinct blob once per task
    dense_cache: dict[int, tuple] = {}

    def dense_of(run_id):
        blob = blob_of[run_id]
        key = id(blob)
        if key not in dense_cache:
            dense_cache[key] = pickle.loads(blob)
        return dense_cache[key]

    results = []
    for run_id in run_ids:
        arrays = arrays_of[run_id]
        matrix, position_of = dense_of(run_id)
        try:
            anchor_row = arrays.executions.index(anchor)
        except ValueError:
            results.append((run_id, None))
            continue
        answers = dense_sweep_answers(
            matrix,
            arrays.q1,
            arrays.q2,
            arrays.q3,
            _origin_rows(position_of, arrays.origins),
            anchor_row,
            downstream,
        )
        results.append(
            (
                run_id,
                _pack_affected(arrays.executions, _np.flatnonzero(answers).tolist()),
            )
        )
    return results


def _pushdown_chunk_task(db_path, run_ids, anchor, modules, downstream):
    """One pushdown task: indexed range scans over a task-private connection.

    Fully picklable (a path, ids, the anchor and a module-name list — no
    kernels, no numpy), so the same task serves thread pools, process pools
    and numpy-less installs alike.  Only the matching rows ever leave
    SQLite; they come back packed like every other worker result.
    """
    from repro.storage.pushdown import pushdown_sweep

    fault_point("pool.task")
    connection = _readonly_connection(db_path)
    try:
        per_run = pushdown_sweep(
            connection, run_ids, anchor, modules, downstream=downstream
        )
    finally:
        connection.close()
    return [
        (run_id, None if result is None else _pack_affected(result, range(len(result))))
        for run_id, result in per_run.items()
    ]


class CrossRunExecutor:
    """Execute one cross-run operation over all runs of a specification.

    Parameters
    ----------
    store:
        The provenance store (anything with ``list_runs`` /
        ``get_specification`` / ``spec_kernel`` / ``run_label_arrays`` /
        ``read_connection_for`` and a ``path``; a sharded store
        additionally exposes ``shard_path_of``, which makes the chunking
        shard-aware).
    workers:
        Worker count of sweeps; ``None`` auto-sizes (see
        :func:`resolve_workers`) and falls back to the sequential path for
        small sweeps.  Batches always run on the calling thread.
    mode:
        ``"thread"`` (default) or ``"process"``; ``None`` reads the
        ``REPRO_PARALLEL`` environment variable.  Process mode requires
        numpy and dense spec kernels; ineligible runs are evaluated on the
        submitting side.
    pool:
        Where parallel tasks run.  ``None`` (default) asks the store for
        its persistent :class:`~repro.engine.pool.PersistentWorkerPool`
        (``store.worker_pool(mode)``), so repeated executions share one
        lazily started pool that closes with the store.  ``False`` forces
        a fresh ephemeral pool per execution (the pre-PR 5 behavior, kept
        for benchmarking the difference).  An explicit pool object is used
        as given and never shut down by the executor.
    """

    def __init__(
        self,
        store: Any,
        *,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        pool: Union[PersistentWorkerPool, None, bool] = None,
    ) -> None:
        self.store = store
        self.workers = workers
        if mode is None:
            mode = os.environ.get("REPRO_PARALLEL", "thread") or "thread"
        if mode not in ("thread", "process"):
            raise QueryPlanError(
                f"REPRO_PARALLEL mode must be 'thread' or 'process', got {mode!r}"
            )
        self.mode = mode
        if pool is True:  # pragma: no cover - guard against bool misuse
            pool = None
        self._pool = pool
        # dense payload blobs when no persistent pool hosts the cache; the
        # kernel object is kept alongside so its id can never be recycled
        # while the blob is alive
        self._blob_cache: dict[int, tuple[Any, bytes]] = {}

    # ------------------------------------------------------------------
    # shared plumbing
    # ------------------------------------------------------------------
    def _run_ids(self, specification: str) -> list[int]:
        runs = self.store.list_runs(specification)
        if not runs:
            # distinguish "unknown specification" from "no runs yet"
            self.store.get_specification(specification)
        return [int(row["run_id"]) for row in runs]

    def _parallel_workers(self, run_count: int) -> int:
        """The pool size, or 1 whenever the sequential path must serve."""
        workers = resolve_workers(self.workers, run_count)
        if workers > 1 and str(getattr(self.store, "path", ":memory:")) == ":memory:":
            # an in-memory database is reachable only through the store's
            # own connection; there is nothing for workers to open
            return 1
        return workers

    def _resolve_pool(self, kind: Optional[str] = None) -> Optional[PersistentWorkerPool]:
        """The persistent pool parallel tasks run on (``None`` = ephemeral).

        *kind* is the pool flavor the submitted tasks actually need —
        numpy-less installs fall back to closure-carrying thread tasks even
        under ``REPRO_PARALLEL=process``, and closures must never be
        submitted to a process pool.
        """
        kind = kind or self.mode
        if self._pool is False:
            return None
        if isinstance(self._pool, PersistentWorkerPool):
            if kind == "thread" and self._pool.mode == "process":
                # closure-carrying thread tasks cannot ride a process pool
                # (e.g. REPRO_PARALLEL=process on a numpy-less install with
                # an explicit process pool): fall back to an ephemeral pool
                return None
            return self._pool
        pool_of = getattr(self.store, "worker_pool", None)
        if pool_of is None:
            return None
        pool = pool_of(kind)
        if self.workers is not None and int(self.workers) > pool.workers:
            # an explicit request wider than the shared pool must not be
            # silently throttled to the pool's width; an ephemeral pool
            # sized to the request (the pre-persistent behavior) serves it
            return None
        return pool

    @staticmethod
    def _dense_blob(kernel, cache: Optional[dict]) -> bytes:
        """The kernel's dense payload, pickled once per *cache* lifetime.

        *cache* is the persistent pool's ``payload_cache`` when one serves
        this executor (every plan over the same store then shares the blob
        for the pool's lifetime) or the executor's own cache otherwise.
        ``None`` disables caching entirely — the ``pool=False`` baseline
        re-pickles per execution, faithfully reproducing the pre-pool
        behavior the benchmarks compare against.
        """
        if cache is None:
            return pickle.dumps((kernel.matrix, kernel.position_of))
        key = id(kernel)
        entry = cache.get(key)
        if entry is None:
            entry = (kernel, pickle.dumps((kernel.matrix, kernel.position_of)))
            cache[key] = entry
        return entry[1]

    def _note_degraded(self, kind: str) -> None:
        """Record one graceful degradation on the store (when it counts them)."""
        note = getattr(self.store, "note_degraded", None)
        if note is not None:
            note(kind)

    def _submit_chunks(self, submit, chunk_tasks):
        """Submit every ``(fn, args)`` chunk task, tolerating submit failures.

        A failed submission (a broken pool the persistent pool could not
        revive, an injected ``pool.submit`` fault) counts as the chunk's
        first attempt: the exception is carried to :meth:`_settle`, which
        retries once and then evaluates inline.  Non-retryable submission
        errors propagate immediately.
        """
        submitted = []
        for fn, args in chunk_tasks:
            try:
                submitted.append((fn, args, submit(fn, *args)))
            except _RETRYABLE as exc:
                submitted.append((fn, args, exc))
        return submitted

    def _settle(self, submit, fn, args, outcome):
        """One chunk's results, retrying once and then evaluating inline.

        *outcome* is the submitted future, or the exception submission
        raised.  On a :data:`_RETRYABLE` failure the chunk is resubmitted
        once (``worker_retry``); if that also fails it is evaluated in the
        calling thread (``worker_sequential``) with fault injection
        suppressed, so an injected fault can never turn into a wrong or
        missing answer — only a slower path.  Non-retryable errors, and
        retryable ones the sequential evaluation reproduces, propagate.
        """
        timeout = _worker_timeout()
        if not isinstance(outcome, BaseException):
            try:
                return outcome.result(timeout)
            except _RETRYABLE:
                pass
        self._note_degraded("worker_retry")
        try:
            return submit(fn, *args).result(timeout)
        except _RETRYABLE:
            self._note_degraded("worker_sequential")
            with faults.suppressed():
                return fn(*args)

    def _path_groups(self, run_ids: Sequence[int]) -> list[tuple[str, list[int]]]:
        """Group runs by the physical database file their rows live in.

        A single-file store yields one group (its ``path``); a sharded
        store yields one group per shard actually touched, so every worker
        connection opens exactly its chunk's shard file.
        """
        shard_path_of = getattr(self.store, "shard_path_of", None)
        if shard_path_of is None:
            return [(str(self.store.path), list(run_ids))]
        groups: dict[str, list[int]] = {}
        for run_id in run_ids:
            groups.setdefault(str(shard_path_of(run_id)), []).append(run_id)
        return list(groups.items())

    def _fan_chunks(self, run_ids, workers: int, *, cap_tasks: bool = False):
        """``(db_path, chunk)`` pairs with hot-spec replica fan-out.

        When the store attaches read replicas to a shard
        (:meth:`~repro.storage.sharded.ShardedProvenanceStore.replicate`),
        its rotation — ``[primary] + fresh replicas`` — is round-robined
        across that shard's chunks, so concurrent worker connections stop
        queueing on one file (and one WAL).  A store without the hook, or
        with a stale/absent replica set, degenerates to the primary path
        for every chunk.  Replicas are consistent snapshots refreshed by
        the store's write-version handshake, so every path in a rotation
        answers bit-identically.
        """
        rotation_of = getattr(self.store, "replica_rotation", None)
        for db_path, path_runs in self._path_groups(run_ids):
            paths = [db_path]
            if rotation_of is not None:
                rotation = rotation_of(db_path)
                if rotation:
                    paths = list(rotation)
            for index, chunk in enumerate(
                self._chunks(path_runs, workers, cap_tasks=cap_tasks)
            ):
                yield paths[index % len(paths)], chunk

    @staticmethod
    def _chunks(run_ids: Sequence[int], workers: int = 1, *, cap_tasks: bool = False):
        """Chunk runs so the whole pool stays busy.

        The chunk size is :data:`PREFETCH_CHUNK_RUNS` capped at
        ``ceil(runs / workers)`` — without the cap, a small sweep would
        submit fewer tasks than workers and leave part of the pool idle.

        With *cap_tasks* the chunk size is additionally **floored** at
        ``ceil(runs / workers)``, so at most *workers* chunks are emitted.
        Ephemeral pools enforce the worker cap through ``max_workers``;
        a shared persistent pool is wider than an explicit ``workers=``
        request, so there the cap must come from the task count itself.
        """
        count = len(run_ids)
        per_worker = -(-count // max(1, workers))
        chunk_size = max(1, min(PREFETCH_CHUNK_RUNS, per_worker))
        if cap_tasks:
            chunk_size = max(chunk_size, per_worker)
        for start in range(0, count, chunk_size):
            yield list(run_ids[start : start + chunk_size])

    def _execute(
        self,
        run_ids: list[int],
        workers: int,
        evaluate: Callable,
        op: tuple,
    ) -> dict[int, Any]:
        """Fan chunk tasks over the pool; returns per-run packed outcomes.

        *evaluate* is the shared-kernel per-run sweep (used by thread
        workers and for runs process mode cannot ship); *op* is the sweep's
        picklable ``(anchor, downstream)`` for process tasks.  Tasks are
        submitted to the store's persistent pool when one is available,
        else to a fresh ephemeral pool that is torn down with the call.
        """
        store = self.store
        kernels = {run_id: store.spec_kernel(run_id) for run_id in run_ids}
        outcomes: dict[int, Any] = {}
        use_processes = self.mode == "process" and _np is not None
        pool = self._resolve_pool("process" if use_processes else "thread")
        # a shared pool is wider than an explicit workers= request; cap the
        # task count so the requested concurrency limit still holds there
        cap_tasks = pool is not None and pool.workers > workers
        if pool is not None:
            blob_cache: Optional[dict] = pool.payload_cache
        elif self._pool is False:
            blob_cache = None  # faithful pre-pool baseline: no blob reuse
        else:
            blob_cache = self._blob_cache
        if use_processes:
            shippable = []
            local = []
            for run_id in run_ids:
                if getattr(kernels[run_id], "dense", False):
                    shippable.append(run_id)
                else:
                    local.append(run_id)
            chunk_tasks = [
                (
                    _process_chunk_task,
                    (
                        (
                            db_path,
                            chunk,
                            {
                                run_id: self._dense_blob(kernels[run_id], blob_cache)
                                for run_id in chunk
                            },
                            op,
                        ),
                    ),
                )
                for db_path, chunk in self._fan_chunks(
                    shippable, workers, cap_tasks=cap_tasks
                )
            ]

            def drain(submit, submitted):
                # non-dense kernels hold live spec indexes that cannot ship
                # across processes; evaluate them here while the pool works
                for db_path, path_runs in self._path_groups(local):
                    for chunk in self._chunks(path_runs):
                        arrays_of = _fetch_chunk_arrays(db_path, chunk)
                        for run_id in chunk:
                            _, answer = evaluate(
                                run_id, kernels[run_id], arrays_of[run_id]
                            )
                            outcomes[run_id] = answer
                for record in submitted:
                    outcomes.update(dict(self._settle(submit, *record)))

            if pool is not None:
                drain(pool.submit, self._submit_chunks(pool.submit, chunk_tasks))
            else:
                with ProcessPoolExecutor(max_workers=workers) as ephemeral:
                    drain(
                        ephemeral.submit,
                        self._submit_chunks(ephemeral.submit, chunk_tasks),
                    )
            return outcomes

        chunk_tasks = [
            (_thread_chunk_task, (db_path, chunk, kernels, evaluate))
            for db_path, chunk in self._fan_chunks(
                run_ids, workers, cap_tasks=cap_tasks
            )
        ]
        if pool is not None:
            for record in self._submit_chunks(pool.submit, chunk_tasks):
                outcomes.update(dict(self._settle(pool.submit, *record)))
            return outcomes
        with ThreadPoolExecutor(max_workers=workers) as ephemeral:
            for record in self._submit_chunks(ephemeral.submit, chunk_tasks):
                outcomes.update(dict(self._settle(ephemeral.submit, *record)))
        return outcomes

    # ------------------------------------------------------------------
    # the anchored dependency sweep (CrossRunQuery)
    # ------------------------------------------------------------------
    def sweep(
        self, specification: str, anchor: tuple, direction: str = "downstream"
    ) -> tuple[dict[int, list], list[int]]:
        """Sweep every run of *specification*; returns ``(per_run, skipped)``.

        ``per_run`` maps run id to the affected executions (in stored-handle
        order); runs that never executed *anchor* land in ``skipped``.
        """
        downstream = direction == "downstream"
        run_ids = self._run_ids(specification)
        workers = self._parallel_workers(len(run_ids))
        if run_ids:
            profile = getattr(self.store, "pushdown_profile", None)
            note = getattr(self.store, "_note_sweep_path", None)
            if profile is not None and note is not None:
                note(profile(run_ids[0])[0], pushdown=False, run_id=run_ids[0])

        def evaluate(run_id: int, kernel, arrays):
            try:
                anchor_row = arrays.executions.index(anchor)
            except ValueError:
                return run_id, None
            answers = kernel.sweep(
                arrays.q1,
                arrays.q2,
                arrays.q3,
                arrays.origins,
                anchor_row,
                downstream=downstream,
            )
            return run_id, _pack_affected(
                arrays.executions, _true_positions(answers)
            )

        if workers <= 1:
            return self._run_sequential(run_ids, evaluate)
        outcomes = self._execute(run_ids, workers, evaluate, (anchor, downstream))
        return self._split_outcomes(run_ids, outcomes)

    def sweep_pushdown(
        self, specification: str, anchor: tuple, direction: str = "downstream"
    ) -> tuple[dict[int, list], list[int]]:
        """The SQL form of :meth:`sweep`: per-shard indexed range scans.

        Same contract and bit-identical answers, but each worker's private
        read-only connection evaluates the sweep *inside* SQLite
        (:mod:`repro.storage.pushdown`) instead of streaming label arrays
        out — only matching rows cross the SQL boundary.  The spec-level
        module reachability of the anchor is computed once from the shared
        spec kernel and shipped to every task.  Below the parallel
        threshold the scans run on the store's own connections (which also
        serves in-memory stores).
        """
        from repro.storage.pushdown import reachable_modules

        downstream = direction == "downstream"
        run_ids = self._run_ids(specification)
        if not run_ids:
            return {}, []
        store = self.store
        profile = getattr(store, "pushdown_profile", None)
        note = getattr(store, "_note_sweep_path", None)
        if profile is not None and note is not None:
            note(profile(run_ids[0])[0], pushdown=True, run_id=run_ids[0])
        modules = reachable_modules(
            store.spec_kernel(run_ids[0]), anchor[0], downstream=downstream
        )
        if modules is None:
            # the anchor's module is not in the specification, so no run
            # can store a label for it: every run is skipped
            return {}, list(run_ids)
        workers = self._parallel_workers(len(run_ids))
        if workers <= 1:
            results: dict[int, Any] = {}
            from repro.storage.pushdown import pushdown_sweep

            for connection, group_runs in self._connection_groups(run_ids):
                results.update(
                    pushdown_sweep(
                        connection, group_runs, anchor, modules, downstream=downstream
                    )
                )
            per_run: dict[int, list] = {}
            skipped: list[int] = []
            for run_id in run_ids:
                answer = results[run_id]
                if answer is None:
                    skipped.append(run_id)
                else:
                    per_run[run_id] = answer
            return per_run, skipped
        pool = self._resolve_pool(self.mode)
        cap_tasks = pool is not None and pool.workers > workers
        chunk_tasks = [
            (_pushdown_chunk_task, (db_path, chunk, anchor, modules, downstream))
            for db_path, chunk in self._fan_chunks(
                run_ids, workers, cap_tasks=cap_tasks
            )
        ]

        outcomes: dict[int, Any] = {}
        if pool is not None:
            for record in self._submit_chunks(pool.submit, chunk_tasks):
                outcomes.update(dict(self._settle(pool.submit, *record)))
        else:
            executor_cls = (
                ProcessPoolExecutor if self.mode == "process" else ThreadPoolExecutor
            )
            with executor_cls(max_workers=workers) as ephemeral:
                for record in self._submit_chunks(ephemeral.submit, chunk_tasks):
                    outcomes.update(dict(self._settle(ephemeral.submit, *record)))
        return self._split_outcomes(run_ids, outcomes)

    # ------------------------------------------------------------------
    # the generalized pair batch (CrossRunBatchQuery / CrossRunPointQuery)
    # ------------------------------------------------------------------
    def batch(
        self, specification: str, pairs: Sequence[tuple]
    ) -> tuple[dict[int, list], list[int]]:
        """Ask the same *pairs* of every run; returns ``(per_run, skipped)``.

        ``per_run`` maps run id to one boolean per pair, in pair order —
        the rows of the runs x pairs matrix.  Runs missing **any** queried
        endpoint land in ``skipped`` (the cross-run analogue of a sweep
        anchor the run never executed), so a present row is always a
        complete, trustworthy answer vector.

        Only the endpoints' labels are read, by primary key
        (:func:`~repro.storage.store.load_execution_labels`), one fetch per
        store connection on the calling thread; a fetch of a few rows per
        run gives a worker pool nothing to do, so ``workers`` does not
        apply here.
        """
        # imported lazily, like _fetch_chunk_arrays' loader
        from repro.storage.store import load_execution_labels

        pairs = list(pairs)
        if not pairs:
            raise QueryPlanError("cross-run batch needs at least one pair")
        run_ids = self._run_ids(specification)
        # every run is evaluated over arrays holding only the endpoints, in
        # one fixed order, so the pair rows are the same for every run
        row_of: dict[tuple, int] = {}
        for pair in pairs:
            for execution in pair:
                row_of.setdefault(execution, len(row_of))
        endpoints = list(row_of)
        origins = [module for module, _ in endpoints]
        source_rows = [row_of[source] for source, _ in pairs]
        target_rows = [row_of[target] for _, target in pairs]
        coordinates: dict[int, dict] = {}
        for connection, group_runs in self._connection_groups(run_ids):
            coordinates.update(
                load_execution_labels(connection, group_runs, endpoints)
            )
        per_run: dict[int, list] = {}
        skipped: list[int] = []
        for run_id in run_ids:
            stored = coordinates[run_id]
            try:
                rows = [stored[execution] for execution in endpoints]
            except KeyError:
                skipped.append(run_id)
                continue
            q1, q2, q3 = zip(*rows)
            answers = self.store.spec_kernel(run_id).pairs(
                q1, q2, q3, origins, source_rows, target_rows
            )
            per_run[run_id] = [bool(answer) for answer in answers]
        return per_run, skipped

    def _connection_groups(self, run_ids: Sequence[int]):
        """``(connection, runs)`` per store connection that reads the runs.

        One group on a single-file store; one per shard touched on a
        sharded store (``store.read_connection_for``).
        """
        groups: dict[int, tuple[Any, list[int]]] = {}
        for run_id in run_ids:
            connection = self.store.read_connection_for(run_id)
            groups.setdefault(id(connection), (connection, []))[1].append(run_id)
        return list(groups.values())

    def _run_sequential(self, run_ids, evaluate) -> tuple[dict[int, Any], list[int]]:
        """The retained PR 3 path: per-run streaming fetch, inline evaluation."""
        store = self.store
        outcomes: dict[int, Any] = {}
        for run_id in run_ids:
            # the kernel is cached per (spec_id, scheme): compiled once for
            # the whole operation, like the parallel paths
            _, answer = evaluate(
                run_id, store.spec_kernel(run_id), store.run_label_arrays(run_id)
            )
            outcomes[run_id] = answer
        return self._split_outcomes(run_ids, outcomes)

    @staticmethod
    def _split_outcomes(run_ids, outcomes) -> tuple[dict[int, Any], list[int]]:
        """Decode the packed per-run payloads once, at the API boundary."""
        per_run: dict[int, Any] = {}
        skipped: list[int] = []
        for run_id in run_ids:
            packed = outcomes[run_id]  # None: the run was skipped
            if packed is None:
                skipped.append(run_id)
            else:
                per_run[run_id] = _decode_affected(packed)
        return per_run, skipped
