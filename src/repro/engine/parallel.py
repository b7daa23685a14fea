"""Parallel cross-run execution: fan per-run label streams across threads.

The cross-run query path compiles one shared
:class:`~repro.engine.kernels.SpecKernel` per ``(specification, scheme)``
and streams every run's raw label columns through it — but strictly one run
at a time, over the store's single SQLite connection.  Profiling shows the
per-run payload is dominated by the **fetch** (the SQL scan plus the column
transpose), not the kernel math, so parallelizing only the evaluation would
serialize on the one connection and win nothing.  This module therefore
partitions a specification's runs into chunks and hands each chunk to a
worker thread that opens its **own read-only connection** to the store
file, fetches the chunk with a single ordered ``run_id IN`` scan
(:func:`~repro.storage.store.load_label_arrays`), and evaluates its runs
through the shared kernel:

* the workers are a ``ThreadPoolExecutor`` of at most ``workers`` threads,
  opened for one sweep and shut down before it returns.  ``sqlite3``'s
  step loop and numpy's ufuncs release the GIL, so fetch and kernel work
  overlap.  Starting four threads costs ~0.2 ms on a 2-CPU host, against
  the 30-70 ms such a sweep takes, so no pool outlives its call;
* chunking is **shard-aware**: when the store spreads runs across shard
  files (:class:`~repro.storage.sharded.ShardedProvenanceStore` exposes
  ``shard_path_of``, a pure function of the run id), runs are grouped by
  their physical file first, so each worker connection opens exactly the
  one shard file its chunk lives in;
* workers return **packed** results — affected sweep rows as
  module-dictionary + two int64 columns — decoded once at the API boundary
  (:meth:`CrossRunExecutor._split_outcomes`).

Only the anchored dependency **sweep** (``CrossRunQuery``) fans out.  The
generalized **pair batch** (the same pairs asked of every run, a runs x
pairs matrix) behind ``CrossRunBatchQuery`` / ``CrossRunPointQuery``
needs only its endpoints' labels, so it looks them up by primary key
(:func:`~repro.storage.store.load_execution_labels`), once per store
connection on the calling thread, and evaluates each run over arrays that
hold just those endpoints.

The sequential sweep path (per-run streaming fetch, inline evaluation) is
auto-selected when the run count is below
:data:`PARALLEL_MIN_RUNS`, when only one CPU is available, when
``workers=1`` is requested, or when the store is in-memory (a ``:memory:``
database is reachable only through its one connection).  Parallel sweep
answers are bit-identical to sequential ones: both paths evaluate the same
compiled-kernel formula over the same streamed arrays and round-trip
through the same packed encoding.
"""

from __future__ import annotations

import os
import sqlite3
from array import array
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FuturesTimeout
from typing import Any, Optional, Sequence
from urllib.parse import quote

import numpy as _np

from repro import faults
from repro.exceptions import QueryPlanError, WorkerCrashError
from repro.faults import fault_point

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
#: store's ``note_degraded``).  Covers a crashed worker (WorkerCrashError,
#: the ``pool.task`` fault), a dropped or refused connection (OSError —
#: InjectedConnectionError included), a transient SQL failure on the
#: task-private connection, and a hung worker when ``REPRO_WORKER_TIMEOUT``
#: bounds the wait.  Anything else — a kernel bug, a typed ReproError —
#: propagates untouched.
_RETRYABLE = (
    WorkerCrashError,
    OSError,
    sqlite3.OperationalError,
    FuturesTimeout,
)


def _worker_timeout() -> Optional[float]:
    """Seconds to wait on one chunk future (``REPRO_WORKER_TIMEOUT``).

    Unset (the default) waits forever.  A bounded wait turns a hung worker
    into a :data:`_RETRYABLE` timeout, so the chunk is retried and, failing
    that, evaluated inline; the stuck thread is left to finish on its own
    (the sweep's pool is shut down without waiting for it).
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


def _readonly_connection(path):
    """A private read-only connection to the store file (one per task).

    Falls back to a plain connection when the read-only URI open fails —
    e.g. a WAL-mode shard whose ``-shm`` file an old SQLite refuses to map
    read-only; the workers only ever SELECT, so the fallback stays safe.
    """
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
    module names plus two byte blobs, built inside the worker thread; the
    ``(module, instance)`` list is rebuilt once, by
    :func:`_decode_affected`.
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
# worker tasks: each returns [(run_id, packed-or-None), ...] for its chunk
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


def _sweep_chunk_task(db_path, run_ids, kernels, evaluate):
    """One kernel task: private-connection fetch, then per-run evaluation."""
    fault_point("pool.task")
    arrays_of = _fetch_chunk_arrays(db_path, run_ids)
    return [evaluate(run_id, kernels[run_id], arrays_of[run_id]) for run_id in run_ids]


def _pushdown_chunk_task(db_path, run_ids, anchor, modules, downstream):
    """One pushdown task: indexed range scans over a task-private connection.

    Only the matching rows ever leave SQLite; they come back packed like
    every other worker result.
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
    """

    def __init__(self, store: Any, *, workers: Optional[int] = None) -> None:
        self.store = store
        self.workers = workers

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

    def _note_degraded(self, kind: str) -> None:
        """Record one graceful degradation on the store (when it counts them)."""
        note = getattr(self.store, "note_degraded", None)
        if note is not None:
            note(kind)

    def _fan_out(self, chunk_tasks, run_ids, workers: int):
        """Run ``(fn, args)`` chunk tasks on a pool opened for this call.

        Returns ``(per_run, skipped)`` like :meth:`sweep`, decoded once from
        the tasks' packed ``(run_id, payload)`` results.

        A chunk failing with a :data:`_RETRYABLE` error is resubmitted once
        (``worker_retry``); if that also fails it is evaluated in the
        calling thread (``worker_sequential``) with fault injection
        suppressed, so an injected fault can never turn into a wrong or
        missing answer — only a slower path.  Non-retryable errors, and
        retryable ones the sequential evaluation reproduces, propagate.

        The pool is shut down before this returns, waiting for its threads
        so none outlives the call — unless a chunk timed out
        (``REPRO_WORKER_TIMEOUT``): then the shutdown does not wait, since
        waiting for a hung worker would turn the timeout into a hang.
        """
        timeout = _worker_timeout()
        timed_out = False
        outcomes: dict[int, Any] = {}
        threads = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-sweep"
        )
        try:
            submitted = [
                (fn, args, threads.submit(fn, *args)) for fn, args in chunk_tasks
            ]
            for fn, args, future in submitted:
                try:
                    results = future.result(timeout)
                except _RETRYABLE as first:
                    timed_out |= isinstance(first, FuturesTimeout)
                    self._note_degraded("worker_retry")
                    try:
                        results = threads.submit(fn, *args).result(timeout)
                    except _RETRYABLE as second:
                        timed_out |= isinstance(second, FuturesTimeout)
                        self._note_degraded("worker_sequential")
                        with faults.suppressed():
                            results = fn(*args)
                outcomes.update(results)
        finally:
            threads.shutdown(wait=not timed_out, cancel_futures=timed_out)
        return self._split_outcomes(run_ids, outcomes)

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

    def _fan_chunks(self, run_ids, workers: int):
        """``(db_path, chunk)`` pairs: each chunk reads its own shard file."""
        for db_path, path_runs in self._path_groups(run_ids):
            for chunk in self._chunks(path_runs, workers):
                yield db_path, chunk

    @staticmethod
    def _chunks(run_ids: Sequence[int], workers: int):
        """Chunk runs so the whole pool stays busy.

        The chunk size is :data:`PREFETCH_CHUNK_RUNS` capped at
        ``ceil(runs / workers)`` — without the cap, a small sweep would
        submit fewer tasks than workers and leave part of the pool idle.
        """
        count = len(run_ids)
        chunk_size = max(1, min(PREFETCH_CHUNK_RUNS, -(-count // max(1, workers))))
        for start in range(0, count, chunk_size):
            yield list(run_ids[start : start + chunk_size])

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
                kernel.origin_positions(arrays.origins),
                anchor_row,
                downstream=downstream,
            )
            return run_id, _pack_affected(
                arrays.executions, _np.flatnonzero(answers).tolist()
            )

        if workers <= 1:
            return self._run_sequential(run_ids, evaluate)
        kernels = {run_id: self.store.spec_kernel(run_id) for run_id in run_ids}
        chunk_tasks = [
            (_sweep_chunk_task, (db_path, chunk, kernels, evaluate))
            for db_path, chunk in self._fan_chunks(run_ids, workers)
        ]
        return self._fan_out(chunk_tasks, run_ids, workers)

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
        chunk_tasks = [
            (_pushdown_chunk_task, (db_path, chunk, anchor, modules, downstream))
            for db_path, chunk in self._fan_chunks(run_ids, workers)
        ]
        return self._fan_out(chunk_tasks, run_ids, workers)

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
        modules = [module for module, _ in endpoints]
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
            kernel = self.store.spec_kernel(run_id)
            answers = kernel.pairs(
                q1, q2, q3, kernel.origin_positions(modules), source_rows, target_rows
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
