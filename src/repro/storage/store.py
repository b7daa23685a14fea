"""The SQLite-backed provenance store.

:class:`ProvenanceStore` persists specifications, labeled runs and data-item
assignments, and answers reachability and dependency queries straight from
the stored labels.  The storage layout mirrors the paper's amortization
argument (Section 7): skeleton labels are stored once per specification
(rebuilt on demand from the specification document), while every run vertex
stores only its three context coordinates and the name of its origin module —
``3 log nR + log nG`` bits of information per vertex.

Queries reach the store through its session (``store.session()``, a
:class:`~repro.api.ProvenanceSession`), whose plans call two query paths.
The per-pair point plan (:meth:`ProvenanceStore._reaches`) issues one
label SELECT per endpoint and is fine for interactive use.  The batched
plans (:meth:`ProvenanceStore._reaches_batch`,
:meth:`ProvenanceStore.labels_of_many`,
:meth:`ProvenanceStore._dependency_sweep`) resolve all labels behind a
query set with a single primary-key lookup (:func:`load_execution_labels`,
chunked at :data:`LABEL_FETCH_CHUNK`, guarded against SQLite's
999-host-parameter limit) and evaluate the Algorithm 3 predicate
batch-wise.

For replayed workloads the store additionally keeps, per ``(run_id,
spec_scheme)``, a cached skeleton-labeled view of the run whose labels are
fetched from SQL **at most once** and whose compiled
:class:`~repro.engine.QueryEngine` kernel is reused across calls: repeated
batches and dependency sweeps pay neither label re-resolution nor SQL
round trips.  The interner behind those handles is persisted with the run
(the ``vertex_id`` column), so handles are stable across store sessions;
:meth:`ProvenanceStore.query_engine` exposes the cached engine for
handle-native callers (the CLI's ``query-batch`` interns its whole input
file once through it).
"""

from __future__ import annotations

import sqlite3
from array import array
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.engine.kernels import SpecKernel, compile_spec_kernel
from repro.engine.query import QueryEngine
from repro.exceptions import StorageError
from repro.faults import fault_point
from repro.labeling.base import VertexHandleAPI
from repro.labeling.registry import get_scheme
from repro.provenance.data import DataFlow
from repro.skeleton.labels import RunLabel
from repro.skeleton.skl import (
    SkeletonLabeledRun,
    skeleton_predicate,
    skeleton_predicate_many,
)
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

try:  # numpy accelerates the streaming label arrays but is strictly optional
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

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

#: how many stored runs keep their label cache + compiled engine resident at
#: once; beyond this the least-recently-queried run is evicted (its labels
#: and kernel are rebuilt from SQL on the next query), bounding store memory
#: on workloads that sweep across many runs
STORED_RUN_CACHE_LIMIT = 16

#: the ``runs`` columns :meth:`ProvenanceStore._run_row` reads by default
_RUN_METADATA = "run_id, spec_id, name, n_vertices, n_edges, spec_scheme"


@dataclass(frozen=True)
class RunLabelArrays:
    """One stored run's label columns as parallel arrays, in handle order.

    This is the streaming form the cross-run sweep consumes: no
    :class:`~repro.skeleton.labels.RunLabel` objects, no interner, no spec
    label resolution — just the three context-coordinate columns (numpy
    ``int64`` arrays when numpy is installed, ``array('q')`` otherwise),
    the parallel origin-module names, and the ``(module, instance)``
    executions for reporting.  Row order follows the persisted interner
    (the ``vertex_id`` column), like every other handle surface.
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
    :meth:`ProvenanceStore.run_label_arrays_many`: the parallel cross-run
    executor calls it from worker threads/processes over **their own**
    read-only connections to the store file, so the dominant per-run cost
    (the SQL fetch plus the column transpose) parallelizes instead of
    serializing on the store's single connection.  Each chunk of runs is
    one ``run_id IN`` query ordered by ``(run_id, vertex_id)``, sliced at
    the run boundaries; with numpy the per-run coordinate arrays are
    zero-copy views into one chunk-wide array.  Run ids without rows yield
    empty arrays — existence policy is the caller's.
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
            "SELECT run_id, module, instance, q1, q2, q3 FROM run_labels "
            f"WHERE run_id IN ({placeholders}) "
            "ORDER BY run_id, (vertex_id IS NULL), vertex_id, module, instance",
            chunk,
        )
        # plain tuples instead of sqlite3.Row: this path exists to
        # stream, so skip the per-row wrapper the rest of the store wants
        cursor.row_factory = None
        rows = cursor.fetchall()
        if rows:
            # one C-level transpose per chunk; the column tuples feed the
            # array constructors without a Python-level row visit each
            rid_col, modules, instances, q1_col, q2_col, q3_col = zip(*rows)
        else:
            rid_col = modules = instances = q1_col = q2_col = q3_col = ()
        count = len(rows)
        if _np is not None:
            rid = _np.fromiter(rid_col, dtype=_np.int64, count=count)
            q1_all = _np.fromiter(q1_col, dtype=_np.int64, count=count)
            q2_all = _np.fromiter(q2_col, dtype=_np.int64, count=count)
            q3_all = _np.fromiter(q3_col, dtype=_np.int64, count=count)

            def _bounds(run_id: int) -> tuple[int, int]:
                return (
                    int(_np.searchsorted(rid, run_id, side="left")),
                    int(_np.searchsorted(rid, run_id, side="right")),
                )

            def _coords(lo: int, hi: int):
                # slices of the chunk-wide arrays: zero-copy views
                return q1_all[lo:hi], q2_all[lo:hi], q3_all[lo:hi]

        else:
            from bisect import bisect_left, bisect_right

            rid_list = list(rid_col)
            q1_arr = array("q", q1_col)
            q2_arr = array("q", q2_col)
            q3_arr = array("q", q3_col)

            def _bounds(run_id: int) -> tuple[int, int]:
                return (
                    bisect_left(rid_list, run_id),
                    bisect_right(rid_list, run_id),
                )

            def _coords(lo: int, hi: int):
                return q1_arr[lo:hi], q2_arr[lo:hi], q3_arr[lo:hi]

        for run_id in chunk:
            lo, hi = _bounds(run_id)
            q1, q2, q3 = _coords(lo, hi)
            arrays[run_id] = RunLabelArrays(
                run_id=run_id,
                executions=list(zip(modules[lo:hi], instances[lo:hi])),
                q1=q1,
                q2=q2,
                q3=q3,
                origins=list(modules[lo:hi]),
            )
    return arrays


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
    Raises :class:`sqlite3.IntegrityError` on duplicates — wrapping it in a
    :class:`~repro.exceptions.StorageError` (and the transaction) is the
    caller's job.
    """
    run = labeled.run
    scheme = labeled.spec_index.scheme_name
    cursor = connection.execute(
        "INSERT INTO runs (run_id, spec_id, name, document, n_vertices, n_edges, spec_scheme) "
        "VALUES (?, ?, ?, ?, ?, ?, ?)",
        (
            run_id,
            spec_id,
            run.name,
            run_to_json(run),
            run.vertex_count,
            run.edge_count,
            scheme,
        ),
    )
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
        # Cached skeleton-labeled views of stored runs and the compiled
        # batch engines over them (see _StoredRunIndex).  Keyed by run_id —
        # a run's spec scheme is fixed at insert time, so the (run_id,
        # scheme) identity the engines represent is preserved while warm
        # lookups stay SQL-free.  LRU-bounded at STORED_RUN_CACHE_LIMIT.
        self._stored_run_cache: "OrderedDict[int, _StoredRunIndex]" = OrderedDict()
        self._engine_cache: dict[int, tuple[QueryEngine, int]] = {}
        # Compiled fall-through evaluators shared by every run of one
        # (spec_id, scheme) — unlike the two caches above this one is not
        # LRU-bounded: one entry per stored specification+scheme, and a
        # cross-run sweep needs all of a spec's runs to hit the same entry.
        self._spec_kernel_cache: dict[tuple[int, str], SpecKernel] = {}
        self._session = None
        self._closed = False
        # Lifetime counters behind ProvenanceSession.cache_stats(): how many
        # stored-run label caches the LRU pushed out (each eviction means the
        # next query on that run rebuilds from SQL).
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
                f"run {run.name!r} already stored for specification {run.specification.name!r}"
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
        # the cached label view and its compiled engine describe the
        # pre-update run; drop both so the next query reloads from SQL
        self._stored_run_cache.pop(run_id, None)
        self._engine_cache.pop(run_id, None)
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
        scheme = row["spec_scheme"] or "tcm"
        key = (int(row["spec_id"]), scheme)
        if key not in self._index_cache:
            spec = self._load_specification(int(row["spec_id"]))
            self._index_cache[key] = get_scheme(scheme).build(spec.graph)
        return self._index_cache[key]

    def spec_kernel(self, run_id: int) -> SpecKernel:
        """The compiled fall-through evaluator shared by the run's specification.

        Cached per ``(spec_id, spec_scheme)``, so every run of one
        specification — the stored-run engines and the cross-run sweep —
        pays the spec-side compilation (for non-TCM schemes, ``nG²``
        predicate evaluations) exactly once per store.
        """
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        key = (int(row["spec_id"]), scheme)
        kernel = self._spec_kernel_cache.get(key)
        if kernel is None:
            kernel = self._spec_kernel_cache[key] = compile_spec_kernel(
                self._spec_index(run_id)
            )
        return kernel

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
        """Stream many runs' label columns with one ordered SQL scan per chunk.

        The multi-run form of :meth:`run_label_arrays` and the prefetch
        behind cross-run execution: instead of re-opening a cursor per run,
        each chunk of runs is fetched with a **single** ``run_id IN``
        query ordered by ``(run_id, vertex_id)`` and sliced in memory at
        the run boundaries (see :func:`load_label_arrays`).  Unknown run
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

    def _reaches(
        self,
        run_id: int,
        source: Union[RunVertex, tuple[str, int]],
        target: Union[RunVertex, tuple[str, int]],
    ) -> bool:
        """Per-pair reachability from stored labels (the session's point plan).

        *source* and *target* may be :class:`RunVertex` instances or plain
        ``(module, instance)`` tuples.
        """
        source_module, source_instance = _coerce_vertex(source)
        target_module, target_instance = _coerce_vertex(target)
        source_label = self.label_of(run_id, source_module, source_instance)
        target_label = self.label_of(run_id, target_module, target_instance)
        return skeleton_predicate(source_label, target_label, self._spec_index(run_id))

    def _stored_index(self, run_id: int) -> "_StoredRunIndex":
        """The cached skeleton-labeled view of a stored run (no SQL on hit)."""
        self._require_open()
        index = self._stored_run_cache.get(run_id)
        if index is not None:
            self._stored_run_cache.move_to_end(run_id)
            return index
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        index = _StoredRunIndex(self, run_id, scheme, self._spec_index(run_id))
        self._stored_run_cache[run_id] = index
        while len(self._stored_run_cache) > STORED_RUN_CACHE_LIMIT:
            evicted_run, _ = self._stored_run_cache.popitem(last=False)
            self._engine_cache.pop(evicted_run, None)
            self._evictions += 1
        return index

    def query_engine(self, run_id: int) -> QueryEngine:
        """The cached batch :class:`~repro.engine.QueryEngine` over a stored run.

        The first call loads the run's full label set (one SQL round trip,
        ordered by the persisted interner ids) and compiles the engine's
        skeleton kernel; every later call returns the same engine, so
        replayed workloads pay no SQL and no label resolution.  Handle-native
        callers intern their workload once
        (``engine.intern_pairs(pairs)``) and replay it through
        ``engine.reaches_many_ids``.
        """
        index = self._stored_index(run_id)
        index.ensure_all()
        cached = self._engine_cache.get(run_id)
        if cached is None or cached[1] != index.version:
            cached = (
                QueryEngine(index, spec_kernel=self.spec_kernel(run_id)),
                index.version,
            )
            self._engine_cache[run_id] = cached
        return cached[0]

    def has_compiled_engine(self, run_id: int) -> bool:
        """Whether *run_id* already has a warm compiled engine cached.

        The session's batch planner reads this (instead of poking the
        private cache) to decide whether a small workload should ride the
        already-paid handle path.
        """
        return run_id in self._engine_cache

    def _reaches_batch(
        self,
        run_id: int,
        pairs: Iterable[tuple],
    ) -> list[bool]:
        """The stored-run batch plan (used by the session's BatchQuery).

        Labels the batch needs but the run's cached view is missing are
        looked up by primary key (:func:`load_execution_labels`: a single
        SQL round trip for up to :data:`LABEL_FETCH_CHUNK` distinct
        executions) and kept, so replaying a workload touches SQL only
        once; when the cached view is complete the batch is answered by
        the compiled :meth:`query_engine` kernel instead of re-evaluating
        the predicate from label objects.  Returns one boolean per pair,
        in order.
        """
        coerced = [
            (_coerce_vertex(source), _coerce_vertex(target)) for source, target in pairs
        ]
        index = self._stored_index(run_id)
        index.ensure(
            _distinct_executions(
                execution for pair in coerced for execution in pair
            )
        )
        if index.fully_loaded:
            answers = self.query_engine(run_id).reaches_batch(coerced)
            return answers if isinstance(answers, list) else list(answers)
        label_pairs = [
            (index.label_of(source), index.label_of(target))
            for source, target in coerced
        ]
        return skeleton_predicate_many(label_pairs, index.spec_index)

    def _dependency_sweep(
        self,
        run_id: int,
        execution: Union[RunVertex, tuple[str, int]],
        *,
        downstream: bool,
    ) -> list[tuple[str, int]]:
        anchor = _coerce_vertex(execution)
        index = self._stored_index(run_id)
        index.ensure_all()
        if not index.has_label(anchor):
            raise StorageError(
                f"run {run_id} has no label for execution {anchor[0]}{anchor[1]}"
            )
        engine = self.query_engine(run_id)
        self._note_sweep_path(index.scheme, pushdown=False)
        return engine.dependency_sweep(anchor, downstream=downstream)

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
        streaming the run's label arrays through a kernel.  Only the
        spec-level module reachability of the anchor is computed in Python
        (from the shared :meth:`spec_kernel`); everything per-vertex stays
        in the database and only matching rows cross the SQL boundary.
        """
        anchor = _coerce_vertex(execution)
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
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
        self._note_sweep_path(scheme, pushdown=True)
        return [RunVertex(module, instance) for module, instance in result]

    def pushdown_profile(self, run_id: int) -> tuple[str, bool, int]:
        """``(spec_scheme, pushdown-capable, n_vertices)`` of one stored run.

        The three facts the session planner weighs when choosing between
        the SQL pushdown and the streamed kernel for a sweep.
        """
        row = self._run_row(run_id)
        scheme = row["spec_scheme"] or "tcm"
        return scheme, scheme_supports_pushdown(scheme), int(row["n_vertices"])

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
        """Remove a run and all dependent rows (evicting its cached engine)."""
        self._require_open()
        with self._connection:
            deleted = self._connection.execute(
                "DELETE FROM runs WHERE run_id = ?", (run_id,)
            ).rowcount
        if not deleted:
            raise StorageError(f"no run with id {run_id}")
        self._stored_run_cache.pop(run_id, None)
        self._engine_cache.pop(run_id, None)

    def cache_stats(self) -> dict:
        """Occupancy and eviction counters of the store's query caches.

        ``evictions`` counts stored-run label caches pushed out of the LRU
        (bounded at ``limit`` = :data:`STORED_RUN_CACHE_LIMIT`); each
        eviction means the next query against that run pays its SQL fetch
        and kernel compilation again.  Surfaced through
        :meth:`ProvenanceSession.cache_stats`.
        """
        return {
            "stored_runs_cached": len(self._stored_run_cache),
            "engines_cached": len(self._engine_cache),
            "spec_kernels_cached": len(self._spec_kernel_cache),
            "evictions": self._evictions,
            "limit": STORED_RUN_CACHE_LIMIT,
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


class _StoredRunIndex(VertexHandleAPI):
    """A skeleton-labeled view of one stored run, with a growing label cache.

    The store hands every batched query path through one of these (cached
    per ``(run_id, spec_scheme)``): labels already fetched from SQL are kept
    for the store's lifetime, so a replayed workload resolves each label at
    most once.  Once the full label set is loaded (:meth:`ensure_all`) the
    object exposes the complete ``(D, φ, π)`` + vertex-handle surface of a
    :class:`~repro.skeleton.skl.SkeletonLabeledRun` — including
    ``kernel_hint = "skl"`` — so :func:`repro.engine.kernels.build_kernel`
    compiles the same vectorized skeleton kernel for it.  Handle order
    follows the persisted ``vertex_id`` column (the interner of the run
    that was stored), falling back to ``(module, instance)`` order for rows
    written before schema version 2.
    """

    kernel_hint = "skl"

    def __init__(
        self, store: ProvenanceStore, run_id: int, scheme: str, spec_index
    ) -> None:
        self._store = store
        self.run_id = run_id
        self.scheme = scheme
        self.spec_index = spec_index
        self._cached: dict[RunVertex, RunLabel] = {}
        self._fully_loaded = False
        #: bumped whenever the cached label universe changes; the store's
        #: engine cache is keyed on it so a stale kernel is never reused
        self.version = 0

    # -- label cache ----------------------------------------------------
    @property
    def fully_loaded(self) -> bool:
        """Whether every label of the run is in the cache."""
        return self._fully_loaded

    def has_label(self, execution: tuple[str, int]) -> bool:
        """Whether *execution*'s label is cached (complete after ensure_all)."""
        return execution in self._cached

    def ensure(self, executions: list[tuple[str, int]]) -> None:
        """Load the labels of *executions* that are not cached yet.

        Missing labels are fetched by primary key, in chunks under SQLite's
        host-parameter limit; executions absent from the store raise
        :class:`~repro.exceptions.StorageError` (same contract as
        :meth:`ProvenanceStore.labels_of_many`).
        """
        needed = [key for key in executions if key not in self._cached]
        if not needed:
            return
        spec_label_of = self.spec_index.label_of
        fetched = load_execution_labels(
            self._store._connection, [self.run_id], needed
        )[self.run_id]
        _require_complete(self.run_id, needed, fetched)
        for (module, instance), (q1, q2, q3) in fetched.items():
            self._cached[RunVertex(module, instance)] = RunLabel(
                q1=q1, q2=q2, q3=q3, skeleton=spec_label_of(module)
            )
        self.version += 1

    def ensure_all(self) -> None:
        """Load the run's complete label set (one SQL round trip, once).

        The cache is rebuilt in persisted-interner order, so the handles
        this index (and any engine over it) assigns match the ids the
        original :class:`~repro.skeleton.skl.SkeletonLabeledRun` interned.
        """
        if self._fully_loaded:
            return
        spec_label_of = self.spec_index.label_of
        rows = self._store._connection.execute(
            "SELECT module, instance, q1, q2, q3, skeleton FROM run_labels "
            "WHERE run_id = ? "
            "ORDER BY (vertex_id IS NULL), vertex_id, module, instance",
            (self.run_id,),
        ).fetchall()
        self._cached = {
            RunVertex(row["module"], int(row["instance"])): RunLabel(
                q1=int(row["q1"]),
                q2=int(row["q2"]),
                q3=int(row["q3"]),
                skeleton=spec_label_of(row["skeleton"]),
            )
            for row in rows
        }
        # handle tables were built over the partial universe; rebuild lazily
        self._handle_interner = None
        self._handle_label_table = None
        self._fully_loaded = True
        self.version += 1

    # -- the (D, φ, π) + handle surface over the stored run --------------
    @property
    def stable_labels(self) -> bool:
        """Inherited from the spec index, like SkeletonLabeledRun."""
        return getattr(self.spec_index, "stable_labels", True)

    def _handle_vertices(self):
        if not self._fully_loaded:  # pragma: no cover - internal misuse guard
            raise StorageError(
                "vertex handles over a stored run require the full label set; "
                "call ensure_all() first"
            )
        return self._cached

    def _handle_labels_cacheable(self) -> bool:
        # Stored labels are frozen rows; like SkeletonLabeledRun, only the
        # fall-through predicate can be live, never the labels.
        return True

    def labels(self) -> dict[RunVertex, RunLabel]:
        """A copy of the cached label assignment (complete after ensure_all)."""
        return dict(self._cached)

    def label_of(self, vertex) -> RunLabel:
        """The cached label of one execution (RunVertex or plain tuple)."""
        try:
            return self._cached[vertex]
        except KeyError:
            raise StorageError(
                f"run {self.run_id} has no cached label for execution "
                f"{vertex[0]}{vertex[1]}"
            ) from None

    def reaches_labels(self, first: RunLabel, second: RunLabel) -> bool:
        """``πr`` over two stored labels (Algorithm 3)."""
        return skeleton_predicate(first, second, self.spec_index)

    def reaches(self, source, target) -> bool:
        """Decide reachability between two cached executions."""
        return self.reaches_labels(self.label_of(source), self.label_of(target))

    def reaches_many(self, label_pairs) -> list[bool]:
        """Batch ``πr`` with a single spec-index call for all fall-throughs."""
        return skeleton_predicate_many(label_pairs, self.spec_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "full" if self._fully_loaded else f"{len(self._cached)} cached"
        return (
            f"_StoredRunIndex(run_id={self.run_id}, scheme={self.scheme!r}, "
            f"labels={state})"
        )


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
