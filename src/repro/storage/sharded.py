"""The sharded provenance store: N SQLite shard files, one query surface.

A single :class:`~repro.storage.store.ProvenanceStore` funnels every
labeled run through one ``executemany`` on one SQLite file — fine for a
workstation, a wall for write-heavy traffic (SQLite serializes writers per
file).  :class:`ShardedProvenanceStore` removes that wall without changing
a single caller:

* **Placement** — every specification (and therefore all of its runs) lives
  in exactly one of N shard files, picked by a stable hash of the
  specification's identity (:func:`shard_of_spec`, CRC-32 of the unique
  name the store's ``spec_id`` denotes).  Keeping a spec's runs together
  means every cross-run operation touches exactly one shard, so the
  parallel executor's per-worker read-only connections keep working — each
  worker opens *its* shard file and nothing else.
* **Global identifiers** — run and spec ids are allocated by the sharded
  layer and written explicitly: global id ``(local - 1) * shards + shard
  + 1``, so ``shard = (id - 1) % shards`` recovers the owning shard with
  no catalog lookup, ids are dense across shards, and a one-shard store
  degenerates to the single-file numbering.  Because the shard files carry
  the *global* ids in their rows, every fetch helper
  (:func:`~repro.storage.store.load_label_arrays`, the resident runs,
  the persisted interner handles) works on a shard file unchanged.
* **Write path** — :meth:`add_labeled_runs` groups a batch by shard and
  commits each shard's sub-batch **concurrently** on a thread pool opened
  for the call (at most one thread per shard touched): one task per shard,
  one transaction and a private WAL-mode connection per task.  WAL keeps
  concurrent readers unblocked while a shard commits.  A per-shard
  lock serializes the writers of one shard (SQLite would anyway), so
  batches interleave safely with synchronous writes.
* **Read path** — everything else delegates to an inner per-shard
  :class:`~repro.storage.store.ProvenanceStore` (whose resident runs and
  spec kernels work per shard exactly as before), routed by run id or
  specification name.  ``store.session()`` hands back a normal
  :class:`~repro.api.ProvenanceSession`; every declarative query —
  point, batch, sweep, cross-run — runs unchanged and answers
  bit-identically to a single-file store built from the same runs
  (hypothesis-checked in ``tests/test_sharded_properties.py``).

Placement is a pure function of the spec name and the run id, fixed at
creation: there is no catalog to consult, so two handles (or processes)
on one directory cannot disagree about where a run lives.  Schema v4's
routing tables (``shard_routing``, ``run_routing``, ``shard_migrations``)
are still created, and nothing writes them; a directory whose shard 0
holds rows in them was rebalanced by an older build, and opening it
raises :class:`~repro.exceptions.StorageError` rather than silently
missing the relocated runs.

The store is strictly file-backed (``:memory:`` cannot be sharded); the
shard count is fixed at creation and recovered from the directory layout
on reopen.
"""

from __future__ import annotations

import sqlite3
import threading
import zlib
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Union

from repro.exceptions import StorageError
from repro.skeleton.skl import SkeletonLabeledRun
from repro.storage.database import connect
from repro.storage.store import (
    ProvenanceStore,
    RunLabelArrays,
    insert_labeled_run,
    insert_specification,
)
from repro.workflow.specification import WorkflowSpecification

__all__ = [
    "ShardedProvenanceStore",
    "open_store",
    "shard_of_spec",
    "shard_of_run",
    "DEFAULT_SHARDS",
    "MAX_SHARDS",
    "SHARD_FILE_FORMAT",
]

PathLike = Union[str, Path]

#: shard count when the caller does not pin one at creation
DEFAULT_SHARDS = 4

#: upper bound on the shard count — beyond this the per-shard files stop
#: buying write parallelism (cores bound it) and only multiply open files
MAX_SHARDS = 64

#: shard file naming inside the store directory; the shard count of an
#: existing store is recovered by counting these files
SHARD_FILE_FORMAT = "shard-{:02d}.db"


def _stored_schema_version(shard_file: Path) -> str:
    """The ``schema_version`` recorded in one shard file (for error messages)."""
    try:
        connection = sqlite3.connect(str(shard_file))
        try:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        finally:
            connection.close()
    except sqlite3.Error:
        return "unknown"
    return str(row[0]) if row is not None else "unknown"


def _refuse_routing_catalog(catalog: sqlite3.Connection, directory: Path) -> None:
    """Raise if shard 0 holds rows an older build's ``rebalance`` wrote.

    Such a build relocated specs away from their hash shard and recorded
    the moves in the schema v4 routing tables.  Placement here is the hash
    alone, so the moved runs would drop out of every query with no error.
    """
    specs = [
        f"{name!r} (shard {shard})"
        for name, shard in catalog.execute(
            "SELECT spec_name, shard FROM shard_routing ORDER BY spec_name"
        ).fetchall()
    ]
    (routed_runs,) = catalog.execute("SELECT COUNT(*) FROM run_routing").fetchone()
    migrations = [
        f"{name!r} ({state})"
        for name, state in catalog.execute(
            "SELECT spec_name, state FROM shard_migrations ORDER BY spec_name"
        ).fetchall()
    ]
    if not (specs or routed_runs or migrations):
        return
    half_done = (
        f"a migration was left half-done: {', '.join(migrations)}"
        if migrations
        else "no migration was left half-done"
    )
    raise StorageError(
        f"store at {directory} was rebalanced by an older build: routed "
        f"specifications {', '.join(specs) or '(none)'}, {routed_runs} routed "
        f"runs; {half_done}.  This build places every specification by the "
        "hash of its name and would miss the relocated runs; copy the runs "
        "into a fresh directory with the build that rebalanced them"
    )


def shard_of_spec(name: str, shards: int) -> int:
    """The shard owning specification *name* (stable across sessions/hosts).

    CRC-32 of the UTF-8 name: deterministic, platform-independent, and
    computed from the one identity a ``spec_id`` denotes (names are unique
    in the store), so placement never depends on insertion order.
    """
    return zlib.crc32(name.encode("utf-8")) % shards


def shard_of_run(run_id: int, shards: int) -> int:
    """The shard owning *run_id* (inverts the global id encoding)."""
    return (int(run_id) - 1) % shards


class ShardedProvenanceStore:
    """Workflow provenance sharded across N SQLite files, one query surface.

    Parameters
    ----------
    path:
        Directory holding the shard files (created if missing).  In-memory
        stores cannot be sharded.
    shards:
        Shard count for a **new** store (default :data:`DEFAULT_SHARDS`).
        Reopening an existing store recovers the count from the directory;
        passing a different one raises.
    """

    def __init__(self, path: PathLike, shards: Optional[int] = None) -> None:
        if str(path) == ":memory:":
            raise StorageError(
                "a sharded store needs real shard files; use ProvenanceStore "
                "for an in-memory database"
            )
        directory = Path(path)
        if directory.exists() and not directory.is_dir():
            raise StorageError(
                f"{directory} is a file, not a shard directory; a sharded "
                "store cannot be layered over a single-file database "
                "(re-ingest the runs into a fresh --shards directory instead)"
            )
        existing = sorted(directory.glob("shard-*.db")) if directory.exists() else []
        if existing:
            found = len(existing)
            if shards is not None and int(shards) != found:
                stored_version = _stored_schema_version(existing[0])
                raise StorageError(
                    f"store at {directory} has {found} shards "
                    f"(schema v{stored_version}); cannot reopen it with "
                    f"shards={shards} — pass shards={found} or drop --shards "
                    "to recover the stored count"
                )
            shards = found
        else:
            shards = DEFAULT_SHARDS if shards is None else int(shards)
        if not 1 <= shards <= MAX_SHARDS:
            raise StorageError(
                f"shard count must be between 1 and {MAX_SHARDS}, got {shards}"
            )
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory
        self.shard_count = int(shards)
        self._shard_paths = [
            directory / SHARD_FILE_FORMAT.format(index) for index in range(shards)
        ]
        # one writer lock per shard: serializes this process's writers of a
        # shard (batched ingest tasks, synchronous adds, deletes) so id
        # allocation never races; cross-process safety is SQLite's lock
        self._locks = [threading.Lock() for _ in range(shards)]
        self._stores = [
            ProvenanceStore(shard_path, journal_mode="WAL")
            for shard_path in self._shard_paths
        ]
        try:
            _refuse_routing_catalog(self._stores[0]._connection, directory)
        except StorageError:
            for store in self._stores:
                store.close()
            raise
        self._session = None
        self._closed = False
        # degradation events noted against the sharded layer itself (the
        # cross-run executor holds this store); shard-local events are
        # aggregated in from the shard stores by cache_stats
        self._degraded: dict[str, int] = {}

    # ------------------------------------------------------------------
    # placement (the CRC-32 spec hash and the run-id arithmetic)
    # ------------------------------------------------------------------
    def _shard_of_spec(self, name: str) -> int:
        return shard_of_spec(name, self.shard_count)

    def _shard_of_run(self, run_id: int) -> int:
        return shard_of_run(run_id, self.shard_count)

    def _store_of_run(self, run_id: int) -> ProvenanceStore:
        return self._stores[self._shard_of_run(run_id)]

    def _store_of_spec(self, name: str) -> ProvenanceStore:
        return self._stores[self._shard_of_spec(name)]

    def shard_path_of(self, run_id: int) -> Path:
        """The shard file holding *run_id* (what parallel workers open)."""
        return self._shard_paths[self._shard_of_run(run_id)]

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
        """Close every shard connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for store in self._stores:
            store.close()

    def __enter__(self) -> "ShardedProvenanceStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedProvenanceStore(path={str(self.path)!r}, "
            f"shards={self.shard_count})"
        )

    # ------------------------------------------------------------------
    # the parallel write path (the ingest service)
    # ------------------------------------------------------------------
    def _next_id(self, connection: sqlite3.Connection, table: str, column: str, shard: int) -> int:
        """Allocate the next shard-encoded global id for *table*.

        Monotonic per shard and congruent to ``shard + 1`` modulo the
        shard count, which is what :func:`shard_of_run` inverts.  The
        high-water mark comes from ``sqlite_sequence`` (both tables are
        ``AUTOINCREMENT``, so SQLite maintains it even for explicit-id
        inserts), not from ``MAX()`` — deleting the newest run must never
        hand its id to the next one.

        The congruence is re-derived from the high-water mark rather than
        assumed: an older build's rolled-back migration can leave a
        shard's ``sqlite_sequence`` in another shard's class, and rounding
        up to this shard's own class keeps fresh ids unique and routable.
        """
        row = connection.execute(
            "SELECT seq FROM sqlite_sequence WHERE name = ?", (table,)
        ).fetchone()
        highest = row[0] if row is not None else None
        if highest is None:
            row = connection.execute(f"SELECT MAX({column}) FROM {table}").fetchone()
            highest = row[0]
        if highest is None:
            return shard + 1
        candidate = int(highest) + 1
        return candidate + (shard - (candidate - 1)) % self.shard_count

    def _insert_specification(
        self, connection: sqlite3.Connection, shard: int, spec: WorkflowSpecification
    ) -> int:
        return insert_specification(
            connection,
            spec,
            spec_id=self._next_id(connection, "specifications", "spec_id", shard),
        )

    def _ingest_shard_batch(
        self, shard: int, batch: Sequence[SkeletonLabeledRun]
    ) -> list[int]:
        """Commit one shard's sub-batch in a single transaction.

        Runs on an ingest thread over a **private** WAL connection, so shard
        batches commit concurrently with each other and with readers; the
        per-shard lock keeps this process's writers of the shard serial.
        """
        with self._locks[shard]:
            self._require_open()
            connection = connect(self._shard_paths[shard], journal_mode="WAL")
            # manual transaction control: the write lock must be taken
            # BEFORE the id-allocating sqlite_sequence reads, or two
            # writers (a second store instance, another process) could
            # both read the same high-water mark and collide on the id
            connection.isolation_level = None
            current: Optional[SkeletonLabeledRun] = None
            spec_ids: dict[str, int] = {}
            try:
                connection.execute("BEGIN IMMEDIATE")
                try:
                    run_ids: list[int] = []
                    for labeled in batch:
                        current = labeled
                        spec = labeled.run.specification
                        spec_id = spec_ids.get(spec.name)
                        if spec_id is None:
                            # resolved once per spec per batch, not per run
                            spec_id = spec_ids[spec.name] = (
                                self._insert_specification(connection, shard, spec)
                            )
                        run_ids.append(
                            insert_labeled_run(
                                connection,
                                labeled,
                                spec_id,
                                run_id=self._next_id(connection, "runs", "run_id", shard),
                            )
                        )
                    connection.execute("COMMIT")
                    return run_ids
                except BaseException:
                    connection.execute("ROLLBACK")
                    raise
            except sqlite3.IntegrityError as exc:
                run = current.run if current is not None else batch[0].run
                raise StorageError(
                    f"a different run named {run.name!r} is already stored "
                    f"for specification {run.specification.name!r}; the "
                    f"whole shard-{shard} sub-batch was rolled back"
                ) from exc
            finally:
                connection.close()

    def add_labeled_runs(
        self, labeled_runs: Iterable[SkeletonLabeledRun]
    ) -> list[int]:
        """Store many labeled runs, committing per shard concurrently.

        The batch is grouped by owning shard; each shard's sub-batch is one
        task holding one transaction, on a thread pool of at most one thread
        per shard touched that closes before this returns, so N shards
        absorb up to N concurrent commits.  Returns the global run ids **in input
        order**.  A failing shard rolls back its whole sub-batch (other
        shards' commits stand) and the first error is re-raised after every
        task finished.
        """
        self._require_open()
        runs = list(labeled_runs)
        if not runs:
            return []
        groups: dict[int, list[int]] = {}
        for position, labeled in enumerate(runs):
            shard = self._shard_of_spec(labeled.run.specification.name)
            groups.setdefault(shard, []).append(position)
        if len(groups) == 1:
            # one shard: a thread round trip buys nothing, commit inline
            ((shard, positions),) = groups.items()
            run_ids = self._ingest_shard_batch(shard, runs)
            return list(run_ids)
        with ThreadPoolExecutor(
            max_workers=len(groups), thread_name_prefix="repro-ingest"
        ) as threads:
            futures = {
                shard: threads.submit(
                    self._ingest_shard_batch,
                    shard,
                    [runs[position] for position in positions],
                )
                for shard, positions in groups.items()
            }
        ids: list[Optional[int]] = [None] * len(runs)
        first_error: Optional[BaseException] = None
        for shard, positions in groups.items():
            try:
                shard_ids = futures[shard].result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
                continue
            if len(shard_ids) != len(positions):  # pragma: no cover - invariant
                raise StorageError(
                    f"shard {shard} returned {len(shard_ids)} ids for "
                    f"{len(positions)} runs; the input-order id guarantee "
                    "would be violated"
                )
            for position, run_id in zip(positions, shard_ids):
                ids[position] = run_id
        if first_error is not None:
            raise first_error
        # every slot is filled once no shard failed (checked above); the
        # cast keeps the input-order guarantee explicit
        return [run_id for run_id in ids if run_id is not None]

    def add_labeled_run(self, labeled: SkeletonLabeledRun) -> int:
        """Store one labeled run (routed to its spec's shard); returns its id."""
        return self.add_labeled_runs([labeled])[0]

    def add_specification(self, spec: WorkflowSpecification) -> int:
        """Store *spec* in its shard (idempotent by name); returns its id."""
        self._require_open()
        shard = self._shard_of_spec(spec.name)
        connection = self._stores[shard]._connection
        with self._locks[shard]:
            # BEGIN IMMEDIATE before the id-allocating read, like the
            # ingest path: the write lock, not the per-instance Python
            # lock, is what serializes concurrent store instances
            connection.execute("BEGIN IMMEDIATE")
            try:
                spec_id = self._insert_specification(connection, shard, spec)
                connection.execute("COMMIT")
                return spec_id
            except BaseException:
                connection.execute("ROLLBACK")
                raise

    # ------------------------------------------------------------------
    # specifications and runs (read side: routed delegation)
    # ------------------------------------------------------------------
    def get_specification(self, name: str) -> WorkflowSpecification:
        """Load the specification called *name* from its shard."""
        return self._store_of_spec(name).get_specification(name)

    def list_specifications(self) -> list[dict]:
        """Summaries of every stored specification, across all shards."""
        rows = [
            row for store in self._stores for row in store.list_specifications()
        ]
        rows.sort(key=lambda row: row["spec_id"])
        return rows

    def list_runs(self, specification: Optional[str] = None) -> list[dict]:
        """Summaries of stored runs; a named specification reads one shard."""
        if specification is not None:
            return self._store_of_spec(specification).list_runs(specification)
        rows = [row for store in self._stores for row in store.list_runs()]
        rows.sort(key=lambda row: row["run_id"])
        return rows

    def get_run(self, run_id: int):
        """Load the run graph with identifier *run_id*."""
        return self._store_of_run(run_id).get_run(run_id)

    def delete_run(self, run_id: int) -> None:
        """Remove a run and all dependent rows from its shard."""
        shard = self._shard_of_run(run_id)
        with self._locks[shard]:
            self._stores[shard].delete_run(run_id)

    def update_run_labels(self, run_id: int, labeled) -> int:
        """Persist a repaired label set into the run's owning shard.

        Routed form of :meth:`ProvenanceStore.update_run_labels`: the
        targeted ``UPDATE`` statements run under the shard's write lock, so
        a monitoring loop repairing one run never blocks ingest into the
        other shards.
        """
        shard = self._shard_of_run(run_id)
        with self._locks[shard]:
            return self._stores[shard].update_run_labels(run_id, labeled)

    # ------------------------------------------------------------------
    # labels and engines
    # ------------------------------------------------------------------
    def label_of(self, run_id: int, module: str, instance: int):
        """The stored run label of one module execution."""
        return self._store_of_run(run_id).label_of(run_id, module, instance)

    def labels_of_many(self, run_id: int, executions):
        """The stored labels of many executions, batched over the shard."""
        return self._store_of_run(run_id).labels_of_many(run_id, executions)

    def all_labels_of(self, run_id: int):
        """Every stored label of a run, in one shard round trip."""
        return self._store_of_run(run_id).all_labels_of(run_id)

    def spec_kernel(self, run_id: int):
        """The shard's compiled per-(spec, scheme) fall-through kernel."""
        return self._store_of_run(run_id).spec_kernel(run_id)

    def query_engine(self, run_id: int):
        """The engine over the run's resident columns in its shard."""
        return self._store_of_run(run_id).query_engine(run_id)

    def has_compiled_engine(self, run_id: int) -> bool:
        """Whether *run_id* is resident in its shard store."""
        return self._store_of_run(run_id).has_compiled_engine(run_id)

    def run_label_arrays(self, run_id: int) -> RunLabelArrays:
        """One run's streamed label columns (rows carry the global run id)."""
        return self._store_of_run(run_id).run_label_arrays(run_id)

    def run_label_arrays_many(
        self, run_ids: Sequence[int]
    ) -> dict[int, RunLabelArrays]:
        """Many runs' label columns, one chunked ordered scan per shard."""
        by_shard: dict[int, list[int]] = {}
        for run_id in run_ids:
            by_shard.setdefault(self._shard_of_run(run_id), []).append(run_id)
        arrays: dict[int, RunLabelArrays] = {}
        for shard, shard_run_ids in by_shard.items():
            arrays.update(self._stores[shard].run_label_arrays_many(shard_run_ids))
        return arrays

    # ------------------------------------------------------------------
    # the session surface (private plan entry points)
    # ------------------------------------------------------------------
    def session(self):
        """The sharded store's :class:`~repro.api.ProvenanceSession`."""
        self._require_open()
        if self._session is None:
            from repro.api.session import ProvenanceSession

            self._session = ProvenanceSession(self)
        return self._session

    def _reaches(self, run_id: int, source, target) -> bool:
        return self._store_of_run(run_id)._reaches(run_id, source, target)

    def _reaches_batch(self, run_id: int, pairs, *, load: bool = False) -> list[bool]:
        return self._store_of_run(run_id)._reaches_batch(run_id, pairs, load=load)

    def _dependency_sweep(self, run_id: int, execution, *, downstream: bool):
        return self._store_of_run(run_id)._dependency_sweep(
            run_id, execution, downstream=downstream
        )

    def _dependency_sweep_pushdown(self, run_id: int, execution, *, downstream: bool):
        return self._store_of_run(run_id)._dependency_sweep_pushdown(
            run_id, execution, downstream=downstream
        )

    def pushdown_profile(self, run_id: int):
        """``(spec_scheme, pushdown-capable)`` from the run's shard."""
        return self._store_of_run(run_id).pushdown_profile(run_id)

    def read_connection_for(self, run_id: int):
        """The owning shard's connection — pushdown scans run shard-locally."""
        return self._store_of_run(run_id).read_connection_for(run_id)

    def _note_sweep_path(
        self, scheme: str, *, pushdown: bool, run_id: Optional[int] = None
    ) -> None:
        # Sweeps executed by the sharded layer itself (the parallel
        # cross-run executor) are attributed to the shard that actually
        # served the run, so per-shard skew stays visible in cache_stats.
        # Only sweeps with no run context fall back to shard 0.
        shard_store = (
            self._store_of_run(run_id) if run_id is not None else self._stores[0]
        )
        shard_store._note_sweep_path(scheme, pushdown=pushdown)

    def note_degraded(self, kind: str) -> None:
        """Count one graceful-degradation event (see the single store's doc)."""
        self._degraded[kind] = self._degraded.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # data provenance (routed by run id)
    # ------------------------------------------------------------------
    def add_dataflow(self, run_id: int, dataflow) -> int:
        """Store the data items of *dataflow* in the run's shard."""
        shard = self._shard_of_run(run_id)
        with self._locks[shard]:
            return self._stores[shard].add_dataflow(run_id, dataflow)

    def data_depends_on_data(self, run_id: int, item_id: str, other_id: str) -> bool:
        """Does stored data item *item_id* depend on *other_id*?"""
        return self._store_of_run(run_id).data_depends_on_data(
            run_id, item_id, other_id
        )

    def data_depends_on_module(self, run_id: int, item_id: str, module) -> bool:
        """Does stored data item *item_id* depend on module execution *module*?"""
        return self._store_of_run(run_id).data_depends_on_module(
            run_id, item_id, module
        )

    def list_data_items(self, run_id: int) -> list[str]:
        """Identifiers of every data item stored for *run_id*."""
        return self._store_of_run(run_id).list_data_items(run_id)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def _shard_file_bytes(self, shard: int) -> int:
        """On-disk bytes of one shard (database + WAL + shared-memory index)."""
        base = str(self._shard_paths[shard])
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(base + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total

    def cache_stats(self) -> dict:
        """Cache occupancy and eviction counters aggregated across shards.

        The numeric counters of every shard store are summed (the session
        surfaces them unchanged); ``shards`` carries the **skew table** —
        per-shard spec count, run count, on-disk bytes and sweep hit
        counters — so an operator can see where the load sits.
        """
        totals = {
            "resident_runs": 0,
            "resident_bytes": 0,
            "budget_bytes": 0,
            "spec_kernels_cached": 0,
            "evictions": 0,
        }
        pushdown: dict[str, dict[str, int]] = {"sql": {}, "kernel": {}}
        degraded = dict(self._degraded)
        per_shard: list[dict] = []
        for index, store in enumerate(self._stores):
            shard_stats = store.cache_stats()
            for key in totals:
                totals[key] += int(shard_stats.get(key, 0))
            sweeps = {"sql": 0, "kernel": 0}
            for path, counts in shard_stats.get("pushdown", {}).items():
                merged = pushdown.setdefault(path, {})
                for scheme, count in counts.items():
                    merged[scheme] = merged.get(scheme, 0) + int(count)
                if path in sweeps:
                    sweeps[path] = sum(int(count) for count in counts.values())
            for kind, count in shard_stats.get("degraded", {}).items():
                degraded[kind] = degraded.get(kind, 0) + int(count)
            connection = store._connection
            per_shard.append(
                {
                    "shard": index,
                    "file": self._shard_paths[index].name,
                    "specs": int(
                        connection.execute(
                            "SELECT COUNT(*) FROM specifications"
                        ).fetchone()[0]
                    ),
                    "runs": int(
                        connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
                    ),
                    "file_bytes": self._shard_file_bytes(index),
                    "sweeps": sweeps,
                }
            )
        return {
            "shards": {"count": self.shard_count, "per_shard": per_shard},
            **totals,
            "pushdown": pushdown,
            "degraded": degraded,
        }

    def statistics(self) -> dict:
        """Row counts per table, summed across every shard."""
        totals: dict[str, int] = {}
        for store in self._stores:
            for table, count in store.statistics().items():
                totals[table] = totals.get(table, 0) + count
        return totals


def open_store(
    path: PathLike, shards: Optional[int] = None
) -> Union[ProvenanceStore, ShardedProvenanceStore]:
    """Open the right store for *path*: a sharded directory or a single file.

    An explicit *shards* (or an existing directory already holding
    ``shard-NN.db`` files) selects the sharded store; anything else opens
    the classic single-file :class:`~repro.storage.store.ProvenanceStore`.
    A pre-existing directory **without** shard files is refused rather
    than silently populated — a typo'd path must fail loudly, not gain
    four empty databases.  This is what the CLI routes every
    ``--database`` argument through, so sharded stores work with every
    query command transparently.
    """
    if shards is not None:
        return ShardedProvenanceStore(path, shards)
    if str(path) != ":memory:" and Path(path).is_dir():
        if not any(Path(path).glob("shard-*.db")):
            raise StorageError(
                f"{path} is a directory without shard files; pass shards= "
                "(CLI: --shards N) to create a sharded store there, or "
                "point at a database file"
            )
        return ShardedProvenanceStore(path)
    return ProvenanceStore(path)
