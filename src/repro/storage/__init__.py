"""SQLite-backed persistence for labeled runs and data provenance.

Two store layouts share one query surface: the classic single-file
:class:`ProvenanceStore` and the write-scalable
:class:`ShardedProvenanceStore` (N WAL-mode shard files, specs routed by a
stable hash, each shard's runs of a batch committed concurrently on
their own thread).  :func:`open_store` picks the right one for a path.
"""

from repro.storage.database import connect, initialize_schema
from repro.storage.schema import SCHEMA_STATEMENTS, SCHEMA_VERSION
from repro.storage.sharded import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    ShardedProvenanceStore,
    open_store,
    shard_of_run,
    shard_of_spec,
)
from repro.storage.store import ProvenanceStore

__all__ = [
    "connect",
    "initialize_schema",
    "SCHEMA_STATEMENTS",
    "SCHEMA_VERSION",
    "ProvenanceStore",
    "ShardedProvenanceStore",
    "open_store",
    "shard_of_spec",
    "shard_of_run",
    "DEFAULT_SHARDS",
    "MAX_SHARDS",
]
