"""SQLite connection management for the provenance store."""

from __future__ import annotations

import functools
import sqlite3
import sys
from pathlib import Path
from typing import Union

from repro.exceptions import StorageError
from repro.faults import fault_point
from repro.storage.schema import (
    SCHEMA_INDEX_STATEMENTS,
    SCHEMA_MIGRATIONS,
    SCHEMA_STATEMENTS,
    SCHEMA_VERSION,
)

__all__ = [
    "connect",
    "initialize_schema",
    "LABEL_FETCH_CHUNK",
    "SQLITE_MAX_VARIABLE_NUMBER",
    "row_value_chunk",
    "iter_value_chunks",
]

PathLike = Union[str, Path]

#: how many (module, instance) executions one batched label SELECT resolves;
#: kept well under SQLite's default host-parameter limit (2 params each)
LABEL_FETCH_CHUNK = 400

#: SQLite's historical default for SQLITE_MAX_VARIABLE_NUMBER — the lowest
#: host-parameter limit a deployed SQLite is likely to enforce (3.32 raised
#: the default to 32766, but binaries built with the old limit are common)
SQLITE_MAX_VARIABLE_NUMBER = 999


def row_value_chunk(columns_per_row: int = 2, reserved: int = 1) -> int:
    """Largest row-value ``IN`` chunk whose parameters fit the SQLite limit.

    A chunk of ``k`` rows binds ``k * columns_per_row`` parameters plus
    *reserved* fixed ones (the ``run_id``).  The returned size is
    :data:`LABEL_FETCH_CHUNK` capped so that total never exceeds
    :data:`SQLITE_MAX_VARIABLE_NUMBER` — today's 2-column chunks of 400
    bind 801 parameters and pass untouched, but adding a column to the row
    value can no longer silently overflow the limit.
    """
    if columns_per_row < 1:
        raise ValueError("columns_per_row must be at least 1")
    if reserved < 0:
        raise ValueError("reserved must be non-negative")
    hard_cap = (SQLITE_MAX_VARIABLE_NUMBER - reserved) // columns_per_row
    if hard_cap < 1:
        raise ValueError(
            f"{columns_per_row} columns per row cannot fit SQLite's "
            f"{SQLITE_MAX_VARIABLE_NUMBER}-parameter limit"
        )
    return max(1, min(LABEL_FETCH_CHUNK, hard_cap))


def iter_value_chunks(values, *, columns_per_row: int = 1, reserved: int = 0):
    """Split *values* into ``IN``-list chunks under the host-parameter limit.

    The one chunking loop behind every batched ``IN`` in the store — the
    primary-key label lookups, the streaming array loader, and
    the SQL pushdown's run/module lists all size their chunks here.  Yields
    ``(chunk, placeholders)`` pairs where *placeholders* is the ready-made
    fragment for the ``IN (...)`` clause: ``"?, ?, ?"`` for single-column
    values, ``"(?, ?), (?, ?)"`` row values otherwise (for use with
    ``IN (VALUES ...)``).
    """
    values = list(values)
    chunk_size = row_value_chunk(columns_per_row=columns_per_row, reserved=reserved)
    if columns_per_row == 1:
        template = "?"
    else:
        template = "(" + ", ".join("?" * columns_per_row) + ")"
    for start in range(0, len(values), chunk_size):
        chunk = values[start : start + chunk_size]
        yield chunk, ", ".join([template] * len(chunk))


@functools.lru_cache(maxsize=None)
def _serialized_sqlite() -> bool:
    """Whether the SQLite library serializes all access to a connection.

    Python 3.11+ reports that as ``sqlite3.threadsafety == 3``, derived
    from the library's ``THREADSAFE=1`` compile option.  Older versions
    hard-code ``threadsafety = 1`` whatever the library, so ask the
    library for its compile options directly.
    """
    if sys.version_info >= (3, 11):
        return sqlite3.threadsafety == 3
    probe = sqlite3.connect(":memory:")
    try:
        options = {row[0] for row in probe.execute("PRAGMA compile_options")}
    finally:
        probe.close()
    return "THREADSAFE=1" in options


def connect(
    path: PathLike = ":memory:", *, journal_mode: str = "MEMORY"
) -> sqlite3.Connection:
    """Open a SQLite connection with the pragmas the store relies on.

    ``path`` may be ``":memory:"`` for an ephemeral store.  Foreign keys are
    enforced and rows are returned as :class:`sqlite3.Row` so columns can be
    accessed by name.

    ``journal_mode`` defaults to the single-file store's in-memory rollback
    journal; the sharded store opens its shard files in ``"WAL"`` mode so an
    ingest worker committing a batch never blocks the concurrent readers of
    the parallel query executor (``synchronous=NORMAL`` is the recommended
    — and still durable-on-app-crash — pairing for WAL commits).  A busy
    timeout covers the brief write-lock handovers between the shard's main
    connection and its ingest workers.
    """
    if journal_mode.upper() not in ("MEMORY", "WAL", "DELETE", "TRUNCATE", "PERSIST", "OFF"):
        raise StorageError(f"unsupported journal mode {journal_mode!r}")
    try:
        # deterministic fault injection (sql-kind faults land in the
        # sqlite3.Error handler below, so callers see the usual typed
        # StorageError); see repro.faults
        fault_point("store.connect")
        # when the SQLite library serializes all access itself (the norm
        # on CPython builds), the store's connections may be shared across
        # threads — a sharded store's readers then don't need a connection
        # per thread, and a server's event-loop thread may serve a store
        # its caller opened; other builds keep the per-thread guard
        connection = sqlite3.connect(
            str(path), check_same_thread=not _serialized_sqlite()
        )
    except sqlite3.Error as exc:
        raise StorageError(f"could not open provenance database {path!r}: {exc}") from exc
    connection.row_factory = sqlite3.Row
    connection.execute("PRAGMA foreign_keys = ON")
    connection.execute(f"PRAGMA journal_mode = {journal_mode.upper()}")
    if journal_mode.upper() == "WAL":
        connection.execute("PRAGMA synchronous = NORMAL")
    connection.execute("PRAGMA busy_timeout = 30000")
    return connection


def initialize_schema(connection: sqlite3.Connection) -> None:
    """Create all tables and indexes; safe to call on an existing database.

    Databases written by earlier schema versions are migrated in place:
    columns added since (see :data:`~repro.storage.schema.SCHEMA_MIGRATIONS`)
    are ``ALTER TABLE``-ed on, with ``NULL`` for pre-existing rows.
    """
    try:
        with connection:
            for statement in SCHEMA_STATEMENTS:
                connection.execute(statement)
            for table, column, declaration in SCHEMA_MIGRATIONS:
                existing = {
                    row[1]
                    for row in connection.execute(f"PRAGMA table_info({table})")
                }
                if column not in existing:
                    connection.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {declaration}"
                    )
            # index statements covering migrated columns must come after the
            # ALTER TABLEs so a version-1 database migrates cleanly
            for statement in SCHEMA_INDEX_STATEMENTS:
                connection.execute(statement)
            connection.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
    except sqlite3.Error as exc:
        raise StorageError(f"could not initialize provenance schema: {exc}") from exc
