"""SQLite schema for the provenance store.

The store keeps specifications, runs, run labels and data items in a single
SQLite database so that provenance queries can be answered long after the
workflow engine produced the run — the deployment scenario that motivates the
paper (labels are computed once at registration time and then compared at
query time without touching the graph).
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_STATEMENTS",
    "SCHEMA_INDEX_STATEMENTS",
    "SCHEMA_MIGRATIONS",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 4

SCHEMA_STATEMENTS: tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS specifications (
        spec_id   INTEGER PRIMARY KEY AUTOINCREMENT,
        name      TEXT NOT NULL UNIQUE,
        document  TEXT NOT NULL,
        n_modules INTEGER NOT NULL,
        n_edges   INTEGER NOT NULL,
        created_at TEXT NOT NULL DEFAULT (datetime('now'))
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        run_id    INTEGER PRIMARY KEY AUTOINCREMENT,
        spec_id   INTEGER NOT NULL REFERENCES specifications(spec_id) ON DELETE CASCADE,
        name      TEXT NOT NULL,
        document  TEXT NOT NULL,
        n_vertices INTEGER NOT NULL,
        n_edges    INTEGER NOT NULL,
        spec_scheme TEXT,
        created_at TEXT NOT NULL DEFAULT (datetime('now')),
        UNIQUE (spec_id, name)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS run_labels (
        run_id   INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
        module   TEXT NOT NULL,
        instance INTEGER NOT NULL,
        q1       INTEGER NOT NULL,
        q2       INTEGER NOT NULL,
        q3       INTEGER NOT NULL,
        skeleton TEXT NOT NULL,
        vertex_id INTEGER,
        PRIMARY KEY (run_id, module, instance)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS data_items (
        run_id   INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
        item_id  TEXT NOT NULL,
        producer_module   TEXT NOT NULL,
        producer_instance INTEGER NOT NULL,
        PRIMARY KEY (run_id, item_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS data_consumers (
        run_id   INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
        item_id  TEXT NOT NULL,
        consumer_module   TEXT NOT NULL,
        consumer_instance INTEGER NOT NULL,
        PRIMARY KEY (run_id, item_id, consumer_module, consumer_instance)
    )
    """,
    # -- schema v4: the shard routing catalog -------------------------------
    # Placement overrides and a migration journal that an older build's
    # online rebalance wrote into shard 0 of a sharded directory.  Nothing
    # writes them any more: placement is the spec-name hash, and opening a
    # directory whose shard 0 holds rows here raises (see
    # ``repro.storage.sharded``).  They stay so the schema is unchanged.
    """
    CREATE TABLE IF NOT EXISTS shard_routing (
        spec_name TEXT PRIMARY KEY,
        shard     INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS run_routing (
        run_id INTEGER PRIMARY KEY,
        shard  INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS shard_migrations (
        spec_name TEXT PRIMARY KEY,
        spec_id   INTEGER NOT NULL,
        source    INTEGER NOT NULL,
        target    INTEGER NOT NULL,
        state     TEXT NOT NULL,
        run_ids   TEXT NOT NULL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_run_labels_run ON run_labels(run_id)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_data_items_run ON data_items(run_id)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_data_consumers_item ON data_consumers(run_id, item_id)
    """,
)

#: Schema v3: covering indexes for the SQL pushdown path.  A dependency
#: sweep on a range-labeled scheme (interval, tree-cover, chain) is the
#: conjunction ``q1 > A1 AND q2 > A2 AND q3 < A3`` (flipped upstream) plus
#: a module-restricted residual on the skeleton mask — both answerable
#: from these indexes alone, without touching the table.  They live in a
#: separate statement list because they cover ``vertex_id``, a column that
#: on a version-1 database only exists after :data:`SCHEMA_MIGRATIONS`
#: runs — so :func:`~repro.storage.database.initialize_schema` creates
#: them *after* the column migrations.
SCHEMA_INDEX_STATEMENTS: tuple[str, ...] = (
    """
    CREATE INDEX IF NOT EXISTS idx_run_labels_pushdown_range
        ON run_labels(run_id, q1, q2, q3, module, instance, vertex_id)
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_run_labels_pushdown_module
        ON run_labels(run_id, module, q1, q2, q3, instance, vertex_id)
    """,
)

#: columns added after schema version 1, applied with ``ALTER TABLE`` when an
#: existing database predates them.  ``vertex_id`` (version 2) persists each
#: run vertex's interned handle — the id assigned by the labeled run's
#: :class:`~repro.graphs.handles.VertexInterner` — so a store reopened in a
#: later session hands out the *same* handles as the in-memory run it came
#: from.  Legacy rows keep ``NULL`` and fall back to a deterministic
#: ``(module, instance)`` ordering.
SCHEMA_MIGRATIONS: tuple[tuple[str, str, str], ...] = (
    ("run_labels", "vertex_id", "INTEGER"),
)
