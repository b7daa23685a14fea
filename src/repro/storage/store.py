"""The SQLite-backed provenance store.

:class:`ProvenanceStore` persists specifications, labeled runs and data-item
assignments, and answers reachability and dependency queries straight from
the stored labels.  The storage layout mirrors the paper's amortization
argument (Section 7): skeleton labels are stored once per specification
(rebuilt on demand from the specification document), while every run vertex
stores only its three context coordinates and the name of its origin module —
``3 log nR + log nG`` bits of information per vertex.

Queries reach the store through its session (``store.session()``, a
:class:`~repro.api.ProvenanceSession`).  Every single-run answer is
Algorithm 3 evaluated by the run's specification kernel
(:class:`~repro.engine.kernels.SpecKernel`, compiled once per
specification and scheme), over one of two label sources:

* a run's **resident** label columns — one :func:`load_label_arrays`
  fetch, kept as narrow integer arrays (:class:`_ResidentRun`) in an LRU
  bounded by :data:`RESIDENT_BYTES_BUDGET`.  Sweeps, large batches and
  :meth:`ProvenanceStore.query_engine` make a run resident; later queries
  on it issue no label SQL;
* for a point lookup or a small batch on a run that is not resident, only
  the endpoints' labels, read by primary key in one statement
  (:func:`load_execution_labels`).  Nothing is loaded.

Resident state is dropped when another connection writes to the file
(``PRAGMA data_version``), and by this store's own deletes and label
updates.  Handle order follows the persisted interner (the ``vertex_id``
column), so :meth:`ProvenanceStore.query_engine` hands out the handles the
labeled run had when it was stored.
"""

from __future__ import annotations

import sqlite3
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as _np

from repro.engine.kernels import SpecKernel, check_handles, compile_spec_kernel
from repro.engine.query import QueryEngine
from repro.exceptions import LabelingError, StorageError
from repro.faults import fault_point
from repro.graphs.handles import VertexInterner
from repro.labeling.registry import get_scheme
from repro.provenance.data import DataFlow
from repro.skeleton.labels import RunLabel
from repro.skeleton.skl import SkeletonLabeledRun
from repro.storage.database import (
    LABEL_FETCH_CHUNK,
    SQLITE_MAX_VARIABLE_NUMBER,
    connect,
    initialize_schema,
    iter_value_chunks,
    row_value_chunk,
)
from repro.storage.pushdown import pushdown_sweep, reachable_modules, scheme_supports_pushdown
from repro.workflow.run import RunVertex, WorkflowRun
from repro.workflow.serialization import (
    run_from_json,
    run_to_json,
    specification_from_json,
    specification_to_json,
)
from repro.workflow.specification import WorkflowSpecification

__all__ = [
    "ProvenanceStore",
    "RunLabelArrays",
    "LABEL_FETCH_CHUNK",
    "SQLITE_MAX_VARIABLE_NUMBER",
    "row_value_chunk",
    "iter_value_chunks",
    "load_label_arrays",
    "load_execution_labels",
    "label_lookup_sql",
    "insert_specification",
    "insert_labeled_run",
]

PathLike = Union[str, Path]

#: bytes of resident label columns one store keeps; beyond this the
#: least-recently-queried run is evicted and its next sweep or large batch
#: loads it again.  Sized to what sixteen 1500-vertex runs took as label
#: objects, which is several hundred runs as columns
RESIDENT_BYTES_BUDGET = 8 * 1024 * 1024

#: cached ``(spec_id, scheme)`` keys of queried runs; the cache is cleared
#: when it reaches this size
_RUN_KEYS_LIMIT = 4096

#: the ``runs`` columns :meth:`ProvenanceStore._run_row` reads by default
_RUN_METADATA = "run_id, spec_id, name, n_vertices, n_edges, spec_scheme"


@dataclass(frozen=True)
class RunLabelArrays:
    """One stored run's label columns as parallel arrays, in handle order.

    This is the streaming form the cross-run sweep consumes: no
    :class:`~repro.skeleton.labels.RunLabel` objects, no interner, no spec
    label resolution — just the three context-coordinate columns (numpy
    ``int64`` arrays), the parallel origin-module names, and the
    ``(module, instance)`` executions for reporting.  Row order follows
    the persisted interner (the ``vertex_id`` column), like every other
    handle surface.
    """

    run_id: int
    executions: list[tuple[str, int]]
    q1: Sequence[int]
    q2: Sequence[int]
    q3: Sequence[int]
    origins: list[str]

    def __len__(self) -> int:
        return len(self.executions)


def load_label_arrays(
    connection: sqlite3.Connection, run_ids: Sequence[int]
) -> dict[int, RunLabelArrays]:
    """Fetch many runs' label columns over *connection*, one scan per chunk.

    The connection-agnostic core of
    :meth:`ProvenanceStore.run_label_arrays_many` and of a run's resident
    load: the parallel cross-run executor calls it from worker threads
    over **their own** read-only connections to the store file, so the
    dominant per-run cost (the SQL fetch plus the column transpose)
    parallelizes instead of serializing on the store's single connection.
    Each chunk of runs is one ``run_id IN`` query ordered by ``run_id``
    alone, which a covering index answers without a sort step; each run's
    rows are then put in persisted-handle order (``vertex_id``, with rows
    written before schema version 2 last in ``(module, instance)`` order)
    and sliced at the run boundaries.  Run ids without rows yield empty
    arrays — existence policy is the caller's.
    """
    fault_point("store.load_label_arrays")
    distinct: list[int] = []
    seen: set[int] = set()
    for run_id in run_ids:
        run_id = int(run_id)
        if run_id not in seen:
            seen.add(run_id)
            distinct.append(run_id)
    arrays: dict[int, RunLabelArrays] = {}
    for chunk, placeholders in iter_value_chunks(distinct, columns_per_row=1):
        cursor = connection.execute(
            # the skeleton column is not fetched: the store persists the
            # origin module name there (see add_labeled_run), so the
            # module column already carries every origin a sweep needs
            "SELECT run_id, module, instance, q1, q2, q3, vertex_id "
            f"FROM run_labels WHERE run_id IN ({placeholders}) ORDER BY run_id",
            chunk,
        )
        # plain tuples instead of sqlite3.Row: this path exists to
        # stream, so skip the per-row wrapper the rest of the store wants
        cursor.row_factory = None
        rows = cursor.fetchall()
        if rows:
            # one C-level transpose per chunk; the column tuples feed the
            # array constructors without a Python-level row visit each
            rid_col, modules, instances, q1_col, q2_col, q3_col, vid_col = zip(*rows)
        else:
            rid_col = modules = instances = q1_col = q2_col = q3_col = vid_col = ()
        order = _np.asarray(
            _handle_order(rid_col, vid_col, modules, instances), dtype=_np.intp
        )
        columns = [
            _np.fromiter(column, dtype=_np.int64, count=len(rows))[order]
            for column in (q1_col, q2_col, q3_col)
        ]
        order = order.tolist()
        modules = [modules[i] for i in order]
        instances = [instances[i] for i in order]
        for run_id in chunk:
            # rows arrive grouped by run, and the handle order keeps them so
            lo, hi = bisect_left(rid_col, run_id), bisect_right(rid_col, run_id)
            # numpy slices are zero-copy views of the chunk-wide columns
            q1, q2, q3 = (column[lo:hi] for column in columns)
            arrays[run_id] = RunLabelArrays(
                run_id=run_id,
                executions=list(zip(modules[lo:hi], instances[lo:hi])),
                q1=q1,
                q2=q2,
                q3=q3,
                origins=modules[lo:hi],
            )
    return arrays


def _handle_order(run_ids, vertex_ids, modules, instances):
    """The row permutation that puts each run's rows in persisted-handle order.

    Rows are ordered by ``(run_id, vertex_id)``; rows written before schema
    version 2 have no ``vertex_id`` and follow their run's other rows in
    ``(module, instance)`` order.
    """
    count = len(run_ids)
    try:
        return _np.lexsort(
            (
                _np.fromiter(vertex_ids, dtype=_np.int64, count=count),
                _np.fromiter(run_ids, dtype=_np.int64, count=count),
            )
        )
    except TypeError:  # a NULL vertex_id: lexsort cannot order it
        pass
    return sorted(
        range(count),
        key=lambda i: (
            run_ids[i], vertex_ids[i] is None, vertex_ids[i] or 0, modules[i], instances[i]
        ),
    )


def label_lookup_sql(run_count: int, execution_count: int) -> str:
    """The primary-key lookup behind :func:`load_execution_labels`.

    The wanted executions are a ``VALUES`` table joined to ``run_labels``,
    so SQLite seeks the primary key ``(run_id, module, instance)`` once per
    run and execution instead of reading every row of the run.
    """
    wanted = ", ".join(["(?, ?)"] * execution_count)
    if run_count == 1:
        runs = "l.run_id = ?"
    else:
        runs = f"l.run_id IN ({', '.join('?' * run_count)})"
    return (
        f"WITH wanted(module, instance) AS (VALUES {wanted}) "
        "SELECT l.run_id, l.module, l.instance, l.q1, l.q2, l.q3 "
        "FROM run_labels l JOIN wanted w "
        "ON l.module = w.module AND l.instance = w.instance "
        f"WHERE {runs}"
    )


def load_execution_labels(
    connection: sqlite3.Connection,
    run_ids: Sequence[int],
    executions: Sequence[tuple[str, int]],
) -> dict[int, dict[tuple[str, int], tuple[int, int, int]]]:
    """Fetch chosen executions' coordinates in chosen runs, by primary key.

    Returns ``{run_id: {(module, instance): (q1, q2, q3)}}`` with one entry
    per run id; an execution a run does not store is absent from its dict,
    so existence policy is the caller's.  The origin module of a label is
    its ``module`` (the store persists it in the ``skeleton`` column too).
    Run ids and executions share each statement's parameter budget, so no
    statement binds more than :data:`SQLITE_MAX_VARIABLE_NUMBER` however
    many of either are asked for.
    """
    fault_point("store.load_label_arrays")
    run_ids = [int(run_id) for run_id in run_ids]
    executions = list(executions)
    found: dict[int, dict[tuple[str, int], tuple[int, int, int]]] = {
        run_id: {} for run_id in run_ids
    }
    # size the run chunk as if the largest execution chunk rides along (at
    # most half the budget), then size each execution chunk against the
    # actual run chunk
    pair_room = 2 * min(len(executions), SQLITE_MAX_VARIABLE_NUMBER // 4)
    for run_chunk, _ in iter_value_chunks(
        run_ids, columns_per_row=1, reserved=pair_room
    ):
        for execution_chunk, _ in iter_value_chunks(
            executions, columns_per_row=2, reserved=len(run_chunk)
        ):
            parameters = [value for pair in execution_chunk for value in pair]
            parameters.extend(run_chunk)
            cursor = connection.execute(
                label_lookup_sql(len(run_chunk), len(execution_chunk)), parameters
            )
            cursor.row_factory = None
            for run_id, module, instance, q1, q2, q3 in cursor.fetchall():
                found[run_id][(module, instance)] = (q1, q2, q3)
    return found


def insert_specification(
    connection: sqlite3.Connection,
    spec: WorkflowSpecification,
    *,
    spec_id: Optional[int] = None,
) -> int:
    """Insert *spec* over *connection* (idempotent by name); returns its id.

    The connection-agnostic core of
    :meth:`ProvenanceStore.add_specification`, shared with the sharded
    store's ingest workers (which write over their own per-shard
    connections).  An explicit *spec_id* lets the sharded layer allocate
    globally unique, shard-encoded identifiers instead of the table's
    autoincrement sequence.  Transaction management is the caller's.
    """
    existing = connection.execute(
        "SELECT spec_id FROM specifications WHERE name = ?", (spec.name,)
    ).fetchone()
    if existing is not None:
        return int(existing[0])
    cursor = connection.execute(
        "INSERT INTO specifications (spec_id, name, document, n_modules, n_edges) "
        "VALUES (?, ?, ?, ?, ?)",
        (
            spec_id,
            spec.name,
            specification_to_json(spec),
            spec.vertex_count,
            spec.edge_count,
        ),
    )
    return int(cursor.lastrowid)


def insert_labeled_run(
    connection: sqlite3.Connection,
    labeled: SkeletonLabeledRun,
    spec_id: int,
    *,
    run_id: Optional[int] = None,
) -> int:
    """Insert one labeled run's row and label set over *connection*.

    The connection-agnostic core of :meth:`ProvenanceStore.add_labeled_run`;
    the sharded ingest workers call it with explicit shard-encoded *run_id*
    values so every shard file carries globally unique run identifiers.

    A run's identity is the ``UNIQUE (spec_id, name)`` key.  Inserting a
    run whose stored row under that key has the same document and scheme
    is a replay: it returns the stored ``run_id`` and writes nothing, so
    a client that lost an acknowledgment can resend across reconnects,
    server restarts and processes.  A different run under a taken name
    (other content or scheme, or the stored run since relabeled by
    ``update_run_labels``) raises :class:`sqlite3.IntegrityError`;
    wrapping it in a :class:`~repro.exceptions.StorageError` (and the
    transaction) is the caller's job.
    """
    run = labeled.run
    scheme = labeled.spec_index.scheme_name
    document = run_to_json(run)
    try:
        cursor = connection.execute(
            "INSERT INTO runs (run_id, spec_id, name, document, n_vertices, n_edges, spec_scheme) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                spec_id,
                run.name,
                document,
                run.vertex_count,
                run.edge_count,
                scheme,
            ),
        )
    except sqlite3.IntegrityError:
        # only a collision pays for this read; the failed INSERT undid
        # itself and left the caller's transaction open
        stored = connection.execute(
            "SELECT run_id, document, spec_scheme FROM runs "
            "WHERE spec_id = ? AND name = ?",
            (spec_id, run.name),
        ).fetchone()
        if stored is None or (stored[1], stored[2] or "tcm") != (document, scheme):
            raise
        return int(stored[0])
    run_id = int(cursor.lastrowid)
    # The interned handle of each vertex is persisted alongside its label,
    # so a store reopened later hands out exactly the ids the in-memory
    # labeled run assigned.
    id_of = labeled.interner.id_of
    connection.executemany(
        "INSERT INTO run_labels "
        "(run_id, module, instance, q1, q2, q3, skeleton, vertex_id) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        [
            (
                run_id,
                vertex.module,
                vertex.instance,
                label.q1,
                label.q2,
                label.q3,
                vertex.module,
                id_of(vertex),
            )
            for vertex, label in labeled.labels().items()
        ],
    )
    return run_id


class ProvenanceStore:
    """Persist and query workflow provenance in a SQLite database.

    ``journal_mode`` is the SQLite journal the store's connections use;
    the sharded store opens its shard files in ``"WAL"`` mode so ingest
    writers and parallel readers coexist (see
    :mod:`repro.storage.database`).
    """

    def __init__(
        self, path: PathLike = ":memory:", *, journal_mode: str = "MEMORY"
    ) -> None:
        self.path = path
        self.journal_mode = journal_mode
        self._connection = connect(path, journal_mode=journal_mode)
        initialize_schema(self._connection)
        self._spec_cache: dict[int, WorkflowSpecification] = {}
        self._index_cache: dict[tuple[int, str], object] = {}
        # Resident runs: the engine over each run's label columns, keyed by
        # run_id, least recently queried first; bounded by the columns'
        # bytes (RESIDENT_BYTES_BUDGET).  The engine, not the columns, is
        # the entry, so the columns never point back at what caches them.
        self._resident: "OrderedDict[int, QueryEngine]" = OrderedDict()
        # run_id -> (spec_id, scheme), so a cold point lookup issues only
        # its label statement; dropped with the resident runs
        self._run_keys: dict[int, tuple[int, str]] = {}
        # PRAGMA data_version when the two caches above were last valid: it
        # moves when another connection commits to the file
        self._data_version: Optional[int] = None
        # Compiled fall-through evaluators shared by every run of one
        # (spec_id, scheme) — not LRU-bounded: one entry per stored
        # specification+scheme, and a cross-run sweep needs all of a spec's
        # runs to hit the same entry.
        self._spec_kernel_cache: dict[tuple[int, str], SpecKernel] = {}
        self._session = None
        self._closed = False
        # Lifetime counter behind ProvenanceSession.cache_stats(): resident
        # runs the byte budget pushed out (each one's next sweep or large
        # batch loads it again).
        self._evictions = 0
        # Per-scheme counts of dependency sweeps answered by the SQL
        # pushdown vs the streamed kernel, so planner decisions and scheme
        # skew stay observable through cache_stats().
        self._sweep_paths: dict[str, dict[str, int]] = {"sql": {}, "kernel": {}}
        # Graceful-degradation events (pushdown falling back to the kernel,
        # worker chunks retried or re-run sequentially); see note_degraded.
        self._degraded: dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("store is closed")

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._connection.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # specifications
    # ------------------------------------------------------------------
    def add_specification(self, spec: WorkflowSpecification) -> int:
        """Store *spec* (idempotent by name) and return its identifier."""
        self._require_open()
        with self._connection:
            return insert_specification(self._connection, spec)

    def get_specification(self, name: str) -> WorkflowSpecification:
        """Load the specification called *name*."""
        self._require_open()
        row = self._connection.execute(
            "SELECT spec_id, document FROM specifications WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no specification named {name!r} in the store")
        return self._load_specification(int(row["spec_id"]), row["document"])

    def list_specifications(self) -> list[dict]:
        """Return summaries of every stored specification."""
        self._require_open()
        rows = self._connection.execute(
            "SELECT spec_id, name, n_modules, n_edges FROM specifications ORDER BY spec_id"
        ).fetchall()
        return [dict(row) for row in rows]

    def _load_specification(self, spec_id: int, document: Optional[str] = None) -> WorkflowSpecification:
        if spec_id in self._spec_cache:
            return self._spec_cache[spec_id]
        if document is None:
            row = self._connection.execute(
                "SELECT document FROM specifications WHERE spec_id = ?", (spec_id,)
            ).fetchone()
            if row is None:
                raise StorageError(f"no specification with id {spec_id}")
            document = row["document"]
        spec = specification_from_json(document)
        self._spec_cache[spec_id] = spec
        return spec

    # ------------------------------------------------------------------
    # runs and labels
    # ------------------------------------------------------------------
    def add_labeled_run(self, labeled: SkeletonLabeledRun) -> int:
        """Store a labeled run (its graph, labels and spec scheme) and return its id."""
        self._require_open()
        run = labeled.run
        spec_id = self.add_specification(run.specification)
        try:
            with self._connection:
                return insert_labeled_run(self._connection, labeled, spec_id)
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"a different run named {run.name!r} is already stored for "
                f"specification {run.specification.name!r}"
            ) from exc

    def update_run_labels(self, run_id: int, labeled: SkeletonLabeledRun) -> int:
        """Persist a repaired label set over an already stored run.

        The write path of dynamic updates (:mod:`repro.dynamic`): after an
        in-memory run graph was mutated and relabeled, the store replays
        only the **changed** rows as targeted ``UPDATE`` statements —
        subtree-local repairs touch a handful of rows, not the whole run.
        The run's graph document and edge count are refreshed alongside, so
        a cold reopen rebuilds exactly the repaired state.  The execution
        set must be identical to the stored one (dynamic updates are
        edge-only surgery); anything else raises
        :class:`~repro.exceptions.StorageError`.  Returns the number of
        label rows rewritten.
        """
        self._require_open()
        run = labeled.run
        row = self._run_row(run_id)
        scheme = labeled.spec_index.scheme_name
        stored_scheme = row["spec_scheme"] or "tcm"
        if scheme != stored_scheme:
            raise StorageError(
                f"run {run_id} was labeled under scheme {stored_scheme!r}; "
                f"cannot update it with {scheme!r} labels"
            )
        stored = {
            (r["module"], int(r["instance"])): (
                int(r["q1"]),
                int(r["q2"]),
                int(r["q3"]),
            )
            for r in self._connection.execute(
                "SELECT module, instance, q1, q2, q3 FROM run_labels "
                "WHERE run_id = ?",
                (run_id,),
            )
        }
        labels = labeled.labels()
        new_keys = {(vertex.module, vertex.instance) for vertex in labels}
        if new_keys != set(stored):
            raise StorageError(
                f"run {run_id}: updated label set names a different execution "
                "set than the stored run (dynamic updates are edge-only; "
                "re-insert the run to change its executions)"
            )
        changed = [
            (label.q1, label.q2, label.q3, run_id, vertex.module, vertex.instance)
            for vertex, label in labels.items()
            if (label.q1, label.q2, label.q3)
            != stored[(vertex.module, vertex.instance)]
        ]
        with self._connection:
            if changed:
                self._connection.executemany(
                    "UPDATE run_labels SET q1 = ?, q2 = ?, q3 = ? "
                    "WHERE run_id = ? AND module = ? AND instance = ?",
                    changed,
                )
            self._connection.execute(
                "UPDATE runs SET document = ?, n_vertices = ?, n_edges = ? "
                "WHERE run_id = ?",
                (run_to_json(run), run.vertex_count, run.edge_count, run_id),
            )
        # the resident columns hold the pre-update labels
        self._resident.pop(run_id, None)
        return len(changed)

    def get_run(self, run_id: int) -> WorkflowRun:
        """Load the run graph with identifier *run_id*."""
        row = self._run_row(run_id, "spec_id, document")
        spec = self._load_specification(int(row["spec_id"]))
        return run_from_json(row["document"], spec)

    def list_runs(self, specification: Optional[str] = None) -> list[dict]:
        """Return summaries of stored runs, optionally filtered by specification name."""
        self._require_open()
        if specification is None:
            rows = self._connection.execute(
                "SELECT run_id, name, n_vertices, n_edges, spec_scheme, spec_id "
                "FROM runs ORDER BY run_id"
            ).fetchall()
        else:
            rows = self._connection.execute(
                "SELECT r.run_id, r.name, r.n_vertices, r.n_edges, r.spec_scheme, r.spec_id "
                "FROM runs r JOIN specifications s ON r.spec_id = s.spec_id "
                "WHERE s.name = ? ORDER BY r.run_id",
                (specification,),
            ).fetchall()
        return [dict(row) for row in rows]

    def _run_row(self, run_id: int, columns: str = _RUN_METADATA) -> sqlite3.Row:
        # the metadata columns by default: the run's JSON document is most
        # of the row's bytes, and only get_run needs it
        self._require_open()
        row = self._connection.execute(
            f"SELECT {columns} FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no run with id {run_id}")
        return row

    def _spec_index(self, run_id: int):
        row = self._run_row(run_id)
        return self._spec_index_of((int(row["spec_id"]), row["spec_scheme"] or "tcm"))

    def _spec_index_of(self, key: tuple[int, str]):
        if key not in self._index_cache:
            spec = self._load_specification(key[0])
            self._index_cache[key] = get_scheme(key[1]).build(spec.graph)
        return self._index_cache[key]

    def _sync_data_version(self) -> None:
        """Drop resident runs and run keys if another connection wrote.

        ``PRAGMA data_version`` moves when another connection (handle,
        process, or a sharded store's ingest) commits to the file; this
        store's own deletes and label updates drop what they invalidate.
        """
        self._require_open()
        (version,) = self._connection.execute("PRAGMA data_version").fetchone()
        if version != self._data_version:
            self._data_version = version
            self._resident.clear()
            self._run_keys.clear()

    def _run_key(self, run_id: int) -> tuple[int, str]:
        """``(spec_id, spec_scheme)`` of a stored run; call after a sync."""
        key = self._run_keys.get(run_id)
        if key is None:
            row = self._run_row(run_id)
            if len(self._run_keys) >= _RUN_KEYS_LIMIT:
                self._run_keys.clear()
            key = self._run_keys[run_id] = (
                int(row["spec_id"]),
                row["spec_scheme"] or "tcm",
            )
        return key

    def _kernel_of(self, run_id: int) -> SpecKernel:
        """:meth:`spec_kernel` without the data-version sync."""
        key = self._run_key(run_id)
        kernel = self._spec_kernel_cache.get(key)
        if kernel is None:
            kernel = self._spec_kernel_cache[key] = compile_spec_kernel(
                self._spec_index_of(key)
            )
        return kernel

    def spec_kernel(self, run_id: int) -> SpecKernel:
        """The compiled fall-through evaluator shared by the run's specification.

        Cached per ``(spec_id, spec_scheme)``, so every run of one
        specification — resident runs, point lookups and the cross-run
        sweep — pays the spec-side compilation (for non-TCM schemes,
        ``nG²`` predicate evaluations) exactly once per store.
        """
        self._sync_data_version()
        return self._kernel_of(run_id)

    def run_label_arrays(self, run_id: int) -> RunLabelArrays:
        """Stream one run's label columns out of SQL as parallel arrays.

        One ``fetchall`` in persisted-handle order, three array fills — no
        per-row label objects.  This is the per-run payload of a cross-run
        sweep: the arrays go straight through the shared
        :meth:`spec_kernel`.
        """
        return self.run_label_arrays_many([run_id])[run_id]

    def run_label_arrays_many(
        self, run_ids: Sequence[int]
    ) -> dict[int, RunLabelArrays]:
        """Stream many runs' label columns with one SQL scan per chunk.

        The multi-run form of :meth:`run_label_arrays` and the prefetch
        behind cross-run execution: instead of re-opening a cursor per run,
        each chunk of runs is fetched with a **single** ``run_id IN``
        query, put in handle order and sliced in memory at the run
        boundaries (see :func:`load_label_arrays`).  Unknown run
        ids raise :class:`~repro.exceptions.StorageError`, like the
        single-run path.
        """
        self._require_open()
        arrays = load_label_arrays(self._connection, run_ids)
        for run_id, run_arrays in arrays.items():
            if not len(run_arrays):
                self._run_row(run_id)  # raise when the run does not exist
        return arrays

    def session(self):
        """The store's :class:`~repro.api.ProvenanceSession` (built lazily).

        The session is the documented query surface over stored runs: one
        ``session.run(query)`` entry point for point, batch, sweep,
        cross-run and data-dependency queries.
        """
        self._require_open()
        if self._session is None:
            from repro.api.session import ProvenanceSession

            self._session = ProvenanceSession(self)
        return self._session

    def label_of(self, run_id: int, module: str, instance: int) -> RunLabel:
        """Return the stored run label of one module execution."""
        self._require_open()
        row = self._connection.execute(
            "SELECT q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? AND module = ? AND instance = ?",
            (run_id, module, instance),
        ).fetchone()
        if row is None:
            raise StorageError(
                f"run {run_id} has no label for execution {module}{instance}"
            )
        index = self._spec_index(run_id)
        return RunLabel(
            q1=int(row["q1"]),
            q2=int(row["q2"]),
            q3=int(row["q3"]),
            skeleton=index.label_of(row["skeleton"]),
        )

    def labels_of_many(
        self,
        run_id: int,
        executions: Iterable[Union[RunVertex, tuple[str, int]]],
    ) -> dict[tuple[str, int], RunLabel]:
        """Fetch the stored labels of many executions, batched over SQL.

        The distinct executions are looked up by primary key in chunks of
        up to :data:`LABEL_FETCH_CHUNK` executions each, so any query set of
        that size or less costs exactly **one** SQL round trip (versus one
        per execution through :meth:`label_of`).  Missing executions raise
        :class:`~repro.exceptions.StorageError`.
        """
        self._require_open()
        index = self._spec_index(run_id)
        spec_label_of = index.label_of
        distinct = _distinct_executions(executions)
        found = load_execution_labels(self._connection, [run_id], distinct)[run_id]
        labels = {
            (module, instance): RunLabel(
                q1=q1, q2=q2, q3=q3, skeleton=spec_label_of(module)
            )
            for (module, instance), (q1, q2, q3) in found.items()
        }
        _require_complete(run_id, distinct, labels)
        return labels

    def all_labels_of(self, run_id: int) -> dict[tuple[str, int], RunLabel]:
        """Fetch every stored label of a run in one SQL round trip."""
        self._require_open()
        index = self._spec_index(run_id)
        spec_label_of = index.label_of
        rows = self._connection.execute(
            "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? ORDER BY module, instance",
            (run_id,),
        ).fetchall()
        if not rows:
            self._run_row(run_id)  # raise cleanly when the run does not exist
        return {
            (row["module"], int(row["instance"])): RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
            for row in rows
        }

    # ------------------------------------------------------------------
    # resident runs and the single-run query paths
    # ------------------------------------------------------------------
    def query_engine(self, run_id: int) -> QueryEngine:
        """The :class:`~repro.engine.QueryEngine` over a run's resident columns.

        Makes the run resident (one :func:`load_label_arrays` fetch); later
        calls return the same engine until the run is evicted or written.
        Handle-native callers intern their workload once
        (``engine.intern_pairs(pairs)``) and replay it through
        ``engine.reaches_many_ids``; handles are the persisted
        ``vertex_id`` values.
        """
        self._sync_data_version()
        engine = self._resident.get(run_id)
        if engine is not None:
            self._resident.move_to_end(run_id)
            return engine
        kernel = self._kernel_of(run_id)  # raises when the run does not exist
        arrays = load_label_arrays(self._connection, [run_id])[run_id]
        engine = QueryEngine(_ResidentRun(run_id, arrays, kernel), cache_size=0)
        self._resident[run_id] = engine
        resident_bytes = self._resident_bytes()
        while resident_bytes > RESIDENT_BYTES_BUDGET:
            _, evicted = self._resident.popitem(last=False)
            resident_bytes -= evicted.index.nbytes
            self._evictions += 1
        return engine

    def has_compiled_engine(self, run_id: int) -> bool:
        """Whether *run_id* is resident (its columns are held in memory)."""
        self._sync_data_version()
        return run_id in self._resident

    def _resident_bytes(self) -> int:
        return sum(engine.index.nbytes for engine in self._resident.values())

    def _resident_run(self, run_id: int, *, load: bool) -> Optional["_ResidentRun"]:
        """The run's resident columns; loaded when *load*, else ``None`` if cold."""
        self._sync_data_version()
        engine = self._resident.get(run_id)
        if engine is not None:
            self._resident.move_to_end(run_id)
            return engine.index
        # loads go through the public name, so a wrapper of it sees each one
        return self.query_engine(run_id).index if load else None

    def _reaches(
        self,
        run_id: int,
        source: Union[RunVertex, tuple[str, int]],
        target: Union[RunVertex, tuple[str, int]],
    ) -> bool:
        """Per-pair reachability from stored labels (the session's point plan).

        A resident run answers from its columns.  Any other run reads the
        two labels by primary key in one statement and loads nothing.
        *source* and *target* may be :class:`RunVertex` instances or plain
        ``(module, instance)`` tuples.
        """
        source, target = _coerce_vertex(source), _coerce_vertex(target)
        resident = self._resident_run(run_id, load=False)
        if resident is not None:
            return resident.reaches_rows(resident.row(source), resident.row(target))
        kernel = self._kernel_of(run_id)
        found = load_execution_labels(self._connection, [run_id], [source, target])
        found = found[run_id]
        _require_complete(run_id, [source, target], found)
        position_of = kernel.position_of
        return kernel.point(
            found[source],
            found[target],
            position_of[source[0]],
            position_of[target[0]],
        )

    def _reaches_batch(
        self, run_id: int, pairs: Iterable[tuple], *, load: bool = False
    ) -> list[bool]:
        """The stored-run batch plan (used by the session's BatchQuery).

        A resident run — or, with *load*, any run, made resident first —
        answers from its columns.  Otherwise only the batch's distinct
        endpoints are read, by primary key (:func:`load_execution_labels`:
        one statement for up to :data:`LABEL_FETCH_CHUNK` executions), and
        evaluated over arrays holding just those rows.  Returns one boolean
        per pair, in order.
        """
        resident = self._resident_run(run_id, load=load)
        if resident is not None:
            return resident.reaches_batch(pairs)
        coerced = [
            (_coerce_vertex(source), _coerce_vertex(target)) for source, target in pairs
        ]
        if not coerced:
            return []
        kernel = self._kernel_of(run_id)
        endpoints = _distinct_executions(e for pair in coerced for e in pair)
        found = load_execution_labels(self._connection, [run_id], endpoints)[run_id]
        _require_complete(run_id, endpoints, found)
        row_of = {execution: row for row, execution in enumerate(endpoints)}
        q1, q2, q3 = zip(*map(found.__getitem__, endpoints))
        return kernel.pairs(
            q1,
            q2,
            q3,
            kernel.origin_positions([module for module, _ in endpoints]),
            [row_of[source] for source, _ in coerced],
            [row_of[target] for _, target in coerced],
        ).tolist()

    def _dependency_sweep(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
        *,
        downstream: bool,
    ) -> list[RunVertex]:
        """Every execution the anchor reaches (or that reaches it), from the
        run's resident columns, in persisted-handle order."""
        answers = self._resident_run(run_id, load=True).sweep(
            _coerce_vertex(execution), downstream=downstream
        )
        self._note_sweep_path(self._run_key(run_id)[1], pushdown=False)
        return answers

    def _dependency_sweep_pushdown(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
        *,
        downstream: bool,
    ) -> list[RunVertex]:
        """The SQL form of :meth:`_dependency_sweep`: indexed range scans.

        Same contract, same answers in the same (persisted-interner) order —
        but evaluated inside SQLite over the v3 covering indexes instead of
        from the run's label columns.  Only the spec-level module
        reachability of the anchor is computed in Python (from the shared
        :meth:`spec_kernel`); everything per-vertex stays in the database
        and only matching rows cross the SQL boundary.
        """
        anchor = _coerce_vertex(execution)
        kernel = self.spec_kernel(run_id)
        modules = reachable_modules(kernel, anchor[0], downstream=downstream)
        result = None
        if modules is not None:
            result = pushdown_sweep(
                self._connection, [run_id], anchor, modules, downstream=downstream
            )[run_id]
        if result is None:
            raise StorageError(
                f"run {run_id} has no label for execution {anchor[0]}{anchor[1]}"
            )
        self._note_sweep_path(self._run_key(run_id)[1], pushdown=True)
        return [RunVertex(module, instance) for module, instance in result]

    def pushdown_profile(self, run_id: int) -> tuple[str, bool]:
        """``(spec_scheme, pushdown-capable)`` of one stored run."""
        scheme = self._run_row(run_id)["spec_scheme"] or "tcm"
        return scheme, scheme_supports_pushdown(scheme)

    def read_connection_for(self, run_id: int) -> sqlite3.Connection:
        """The connection that can read *run_id*'s rows (the store's own)."""
        self._require_open()
        return self._connection

    def _note_sweep_path(
        self, scheme: str, *, pushdown: bool, run_id: Optional[int] = None
    ) -> None:
        # *run_id* identifies the run the sweep was answered for; a single
        # store keeps one counter table regardless, but the sharded store
        # overrides this to attribute the count to the owning shard.
        counts = self._sweep_paths["sql" if pushdown else "kernel"]
        counts[scheme] = counts.get(scheme, 0) + 1

    def note_degraded(self, kind: str) -> None:
        """Count one graceful-degradation event under *kind*.

        The planner and the parallel executor call this when a fast path
        failed and a slower-but-correct one served the answer instead —
        ``pushdown_fallback`` (SQL pushdown fell back to the streamed
        kernel), ``worker_retry`` (a crashed/hung chunk was resubmitted),
        ``worker_sequential`` (the retry failed too; the chunk ran
        sequentially on the submitting side).  Surfaced as
        ``cache_stats()["degraded"]``.
        """
        self._degraded[kind] = self._degraded.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # data provenance
    # ------------------------------------------------------------------
    def add_dataflow(self, run_id: int, dataflow: DataFlow) -> int:
        """Store the data items of *dataflow* for run *run_id*; returns item count."""
        self._run_row(run_id)
        items = dataflow.items()
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO data_items "
                "(run_id, item_id, producer_module, producer_instance) VALUES (?, ?, ?, ?)",
                [
                    (
                        run_id,
                        item.item_id,
                        dataflow.output_of(item).module,
                        dataflow.output_of(item).instance,
                    )
                    for item in items
                ],
            )
            consumer_rows = []
            for item in items:
                for consumer in sorted(dataflow.inputs_of(item)):
                    consumer_rows.append(
                        (run_id, item.item_id, consumer.module, consumer.instance)
                    )
            self._connection.executemany(
                "INSERT OR REPLACE INTO data_consumers "
                "(run_id, item_id, consumer_module, consumer_instance) VALUES (?, ?, ?, ?)",
                consumer_rows,
            )
        return len(items)

    def _producer_of(self, run_id: int, item_id: str) -> tuple[str, int]:
        self._require_open()
        row = self._connection.execute(
            "SELECT producer_module, producer_instance FROM data_items "
            "WHERE run_id = ? AND item_id = ?",
            (run_id, item_id),
        ).fetchone()
        if row is None:
            raise StorageError(f"run {run_id} has no data item {item_id!r}")
        return (row["producer_module"], int(row["producer_instance"]))

    def _consumers_of(self, run_id: int, item_id: str) -> list[tuple[str, int]]:
        rows = self._connection.execute(
            "SELECT consumer_module, consumer_instance FROM data_consumers "
            "WHERE run_id = ? AND item_id = ?",
            (run_id, item_id),
        ).fetchall()
        return [(row["consumer_module"], int(row["consumer_instance"])) for row in rows]

    def data_depends_on_data(self, run_id: int, item_id: str, other_id: str) -> bool:
        """Does stored data item *item_id* depend on *other_id*?

        All consumer-to-producer reachability checks are answered as one
        batch, so the labels are fetched in a single SQL round trip.
        """
        producer = self._producer_of(run_id, item_id)
        consumers = self._consumers_of(run_id, other_id)
        if not consumers:
            return False
        return any(
            self._reaches_batch(
                run_id, [(consumer, producer) for consumer in consumers]
            )
        )

    def data_depends_on_module(
        self, run_id: int, item_id: str, module: tuple[str, int]
    ) -> bool:
        """Does stored data item *item_id* depend on module execution *module*?"""
        producer = self._producer_of(run_id, item_id)
        return self._reaches(run_id, module, producer)

    def list_data_items(self, run_id: int) -> list[str]:
        """Return the identifiers of every data item stored for *run_id*."""
        rows = self._connection.execute(
            "SELECT item_id FROM data_items WHERE run_id = ? ORDER BY item_id", (run_id,)
        ).fetchall()
        return [row["item_id"] for row in rows]

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def delete_run(self, run_id: int) -> None:
        """Remove a run and all dependent rows (and its resident columns)."""
        self._require_open()
        with self._connection:
            deleted = self._connection.execute(
                "DELETE FROM runs WHERE run_id = ?", (run_id,)
            ).rowcount
        if not deleted:
            raise StorageError(f"no run with id {run_id}")
        self._resident.pop(run_id, None)
        self._run_keys.pop(run_id, None)

    def cache_stats(self) -> dict:
        """Occupancy and eviction counters of the store's query caches.

        ``resident_runs`` and ``resident_bytes`` describe the runs whose
        label columns are held, bounded at ``budget_bytes`` =
        :data:`RESIDENT_BYTES_BUDGET`; ``evictions`` counts runs the budget
        pushed out, each of which pays one label fetch on its next sweep or
        large batch.  Surfaced through :meth:`ProvenanceSession.cache_stats`.
        """
        return {
            "resident_runs": len(self._resident),
            "resident_bytes": self._resident_bytes(),
            "budget_bytes": RESIDENT_BYTES_BUDGET,
            "spec_kernels_cached": len(self._spec_kernel_cache),
            "evictions": self._evictions,
            "pushdown": {
                "sql": dict(self._sweep_paths["sql"]),
                "kernel": dict(self._sweep_paths["kernel"]),
            },
            "degraded": dict(self._degraded),
        }

    def statistics(self) -> dict:
        """Return row counts per table (for diagnostics and tests)."""
        self._require_open()
        tables = ("specifications", "runs", "run_labels", "data_items", "data_consumers")
        counts = {}
        for table in tables:
            row = self._connection.execute(f"SELECT COUNT(*) AS c FROM {table}").fetchone()
            counts[table] = int(row["c"])
        return counts


class _ResidentRun:
    """One stored run's label columns, resident between queries.

    Built from one :func:`load_label_arrays` fetch, with no object per
    vertex: the context coordinates, the origin positions in the spec
    kernel and the instances, each an ``array`` of the narrowest integer
    type that holds it.  Rows are in persisted-handle order, so a row is
    the vertex handle; an execution's row is a binary search in sorted
    ``position * stride + instance`` keys (``bisect`` for one,
    ``numpy.searchsorted`` over the same buffer for many).  Answers are
    the shared :class:`~repro.engine.kernels.SpecKernel` formula, so they
    are bit-identical to the cross-run path's.  As the index of
    :meth:`ProvenanceStore.query_engine`'s engine it is its own batch
    kernel (``kernel_hint = "columns"``), and builds its :attr:`interner`
    only on request, counting it in :attr:`nbytes`.
    """

    kernel_hint = "columns"
    name = "numpy-columns"

    def __init__(self, run_id: int, arrays: RunLabelArrays, kernel: SpecKernel) -> None:
        self.run_id = run_id
        self.kernel = kernel
        self._interner: Optional[VertexInterner] = None
        instances = [instance for _, instance in arrays.executions]
        origins = kernel.origin_positions(arrays.origins)
        self._low = min(instances, default=0)
        self._stride = max(instances, default=0) - self._low + 1
        keys = _np.asarray(origins) * self._stride + (
            _np.asarray(instances, dtype=_np.int64) - self._low
        )
        order = _np.argsort(keys, kind="stable")
        keys = keys[order]
        columns = (arrays.q1, arrays.q2, arrays.q3, origins, instances, keys, order)
        (
            self.q1, self.q2, self.q3, self.origins, self.instances,
            self._keys, self._rows,
        ) = columns = [_column(values) for values in columns]
        #: bytes held: the columns' buffers, plus the interner once built
        self.nbytes = sum(memoryview(column).nbytes for column in columns)

    def row(self, execution: tuple[str, int], error=StorageError) -> int:
        """The row (vertex handle) of one ``(module, instance)`` execution.

        An execution the run does not store raises *error* naming the run.
        """
        module, instance = execution
        position = self.kernel.position_of.get(module)
        offset = instance - self._low
        if position is not None and 0 <= offset < self._stride:
            key = position * self._stride + offset
            slot = bisect_left(self._keys, key)
            if slot < len(self._keys) and self._keys[slot] == key:
                return self._rows[slot]
        raise error(f"run {self.run_id} has no label for execution {module}{instance}")

    def rows(self, executions: Sequence[tuple[str, int]], error=StorageError):
        """The rows of many executions, in order, as an array."""
        if not executions:
            return _np.empty(0, dtype=_np.int64)
        count = len(executions)
        modules, instances = zip(*executions)
        positions = _np.fromiter(
            map(self.kernel.position_of.get, modules, [-1] * count),
            dtype=_np.int64,
            count=count,
        )
        offsets = _np.fromiter(instances, dtype=_np.int64, count=count) - self._low
        keys = positions * self._stride + offsets
        table = _view(self._keys)
        slots = _np.minimum(table.searchsorted(keys), max(len(table) - 1, 0))
        found = (positions >= 0) & (offsets >= 0) & (offsets < self._stride)
        if not (len(table) and (found & (table[slots] == keys)).all()):
            # name the first execution the run does not store
            for execution in executions:
                self.row(execution, error)
        return _view(self._rows)[slots]

    def _vertices(self, rows) -> list[RunVertex]:
        """The executions at *rows*, as :class:`RunVertex` answers."""
        origins = _view(self.origins)[rows].tolist()
        instances = _view(self.instances)[rows].tolist()
        # tuple.__new__ is what RunVertex(...) runs, minus a Python frame
        return list(
            map(
                partial(tuple.__new__, RunVertex),
                zip(map(self.kernel.modules.__getitem__, origins), instances),
            )
        )

    # -- answers ------------------------------------------------------------
    def reaches_rows(self, source: int, target: int) -> bool:
        """Algorithm 3 between two rows, in its scalar form."""
        q1, q2, q3, origins = self.q1, self.q2, self.q3, self.origins
        return self.kernel.point(
            (q1[source], q2[source], q3[source]),
            (q1[target], q2[target], q3[target]),
            origins[source],
            origins[target],
        )

    def reaches_batch(self, pairs: Sequence[tuple]) -> list[bool]:
        """One answer per ``(source, target)`` execution pair, in order."""
        return self.reaches_many_ids(*self.intern_pairs(pairs, StorageError)).tolist()

    def sweep(self, anchor: tuple[str, int], *, downstream: bool) -> list[RunVertex]:
        """Every execution *anchor* reaches (or that reaches it), in handle order."""
        answers = self.kernel.sweep(
            self.q1, self.q2, self.q3, self.origins, self.row(anchor),
            downstream=downstream,
        )
        return self._vertices(_np.flatnonzero(answers))

    # -- the engine surface; unknown vertices raise LabelingError -----------
    @property
    def interner(self) -> VertexInterner:
        """The handles as a :class:`~repro.graphs.handles.VertexInterner`."""
        if self._interner is None:
            vertices = self._vertices(range(len(self.q1)))
            self._interner = VertexInterner(vertices)
            self.nbytes += (
                sys.getsizeof(self._interner.id_map)
                + sys.getsizeof(vertices)
                + sum(map(sys.getsizeof, vertices))
            )
        return self._interner

    def intern(self, vertex) -> int:
        return self.row(vertex, LabelingError)

    def intern_pairs(self, pairs: Sequence[tuple], error=LabelingError):
        rows = self.rows(list(chain.from_iterable(pairs)), error)
        return rows[0::2], rows[1::2]

    def reaches(self, source, target) -> bool:
        return self.reaches_rows(self.intern(source), self.intern(target))

    def reaches_ids(self, source_id: int, target_id: int) -> bool:
        check_handles([source_id], [target_id], len(self.q1))
        return self.reaches_rows(source_id, target_id)

    def reaches_many_ids(self, source_ids, target_ids):
        source_ids, target_ids = check_handles(source_ids, target_ids, len(self.q1))
        return self.kernel.pairs(
            self.q1, self.q2, self.q3, self.origins, source_ids, target_ids
        )

    # the kernel role (build_kernel returns a "columns" index as it is)
    def batch(self, pairs: Sequence[tuple]) -> list:
        return self.reaches_many_ids(*self.intern_pairs(pairs)).tolist()

    batch_ids = reaches_many_ids


def _column(values) -> array:
    """*values* as an ``array`` of the narrowest signed type that holds them."""
    values = _np.asarray(values, dtype=_np.int64)
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    for code in "bhiq":
        limit = 1 << (8 * array(code).itemsize - 1)
        if -limit <= low and high < limit:
            break
    column = array(code)
    column.frombytes(values.astype(code).tobytes())
    return column


def _view(column: array):
    """A numpy view of an ``array`` column (no copy)."""
    return _np.frombuffer(column, dtype=column.typecode)


def _distinct_executions(executions) -> list[tuple[str, int]]:
    """Coerce to (module, instance) tuples, deduplicated in first-seen order."""
    distinct: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    for execution in executions:
        key = _coerce_vertex(execution)
        if key not in seen:
            seen.add(key)
            distinct.append(key)
    return distinct


def _require_complete(
    run_id: int, requested: list[tuple[str, int]], found: dict
) -> None:
    """Raise the canonical missing-execution error when a fetch came up short."""
    missing = [key for key in requested if key not in found]
    if missing:
        module, instance = missing[0]
        raise StorageError(
            f"run {run_id} has no label for execution {module}{instance} "
            f"({len(missing)} of {len(requested)} requested executions missing)"
        )


def _coerce_vertex(value: Union[RunVertex, tuple[str, int]]) -> tuple[str, int]:
    """Accept both RunVertex and plain (module, instance) tuples."""
    if isinstance(value, RunVertex):
        return (value.module, value.instance)
    return (str(value[0]), int(value[1]))
