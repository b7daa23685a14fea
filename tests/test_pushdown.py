"""SQL pushdown: schema v3, capability flags, planner modes, wire plumbing.

The pushdown contract is bit-identity: a sweep answered as an indexed range
scan inside the shard's SQLite must return exactly what the streamed-kernel
path returns, in the same order.  These tests pin the v2 -> v3 in-place
migration (both store layouts, idempotent across double-open), the shared
chunking helper's 999-parameter budget, the per-scheme capability flags,
the planner's auto/always/never dispatch, the EXPLAIN QUERY PLAN shape of
the pushed-down statements (index searches only, no table scans), the
path counters, and the protocol-v2 wire plumbing end to end — local store,
sharded store, CLI and ``repro://`` remote alike.
"""

from __future__ import annotations

import sqlite3

import pytest

import repro.storage.database as database_module
from repro.api import (
    CrossRunQuery,
    DownstreamQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.cli import main
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import ProtocolError, QueryPlanError, StorageError
from repro.labeling.base import capabilities_of
from repro.labeling.registry import get_scheme
from repro.server import RemoteStore, ServerThread
from repro.server import protocol as wire
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.database import initialize_schema, iter_value_chunks
from repro.storage.pushdown import (
    module_branch_sql,
    range_branch_sql,
    scheme_supports_pushdown,
)
from repro.storage.schema import SCHEMA_VERSION
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size

PUSHDOWN_INDEXES = (
    "idx_run_labels_pushdown_range",
    "idx_run_labels_pushdown_module",
)


def forest_spec(name: str = "pushdown-forest", n_modules: int = 14, seed: int = 5):
    """A forest specification (the interval scheme only labels forests)."""
    return generate_specification(
        SyntheticSpecConfig(
            n_modules=n_modules,
            n_edges=n_modules - 1,
            hierarchy_size=4,
            hierarchy_depth=2,
            name=name,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def spec():
    return forest_spec()


@pytest.fixture(scope="module")
def labeled_runs(spec):
    labeler = SkeletonLabeler(spec, "interval")
    return [
        labeler.label_run(
            generate_run_with_size(spec, 60, seed=index, name=f"run-{index}").run
        )
        for index in range(3)
    ]


@pytest.fixture()
def store(tmp_path, labeled_runs):
    with ProvenanceStore(tmp_path / "pushdown.db") as opened:
        for item in labeled_runs:
            opened.add_labeled_run(item)
        yield opened


def _index_names(database) -> set[str]:
    connection = sqlite3.connect(database)
    try:
        return {
            row[1] for row in connection.execute("PRAGMA index_list(run_labels)")
        }
    finally:
        connection.close()


def _schema_version(database) -> str:
    connection = sqlite3.connect(database)
    try:
        (value,) = connection.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return value
    finally:
        connection.close()


def _downgrade_to_v2(database) -> None:
    """Rewind a freshly written store file to the v2 on-disk layout."""
    connection = sqlite3.connect(database)
    try:
        with connection:
            for name in PUSHDOWN_INDEXES:
                connection.execute(f"DROP INDEX {name}")
            connection.execute(
                "UPDATE meta SET value = '2' WHERE key = 'schema_version'"
            )
    finally:
        connection.close()


class TestSchemaV3Migration:
    def test_v2_single_file_store_migrates_in_place(self, tmp_path, labeled_runs, spec):
        database = tmp_path / "legacy.db"
        with ProvenanceStore(database) as writer:
            run_ids = [writer.add_labeled_run(item) for item in labeled_runs]
        _downgrade_to_v2(database)
        assert not _index_names(database) & set(PUSHDOWN_INDEXES)
        assert _schema_version(database) == "2"

        # reopening migrates; a second reopen must be a no-op (idempotent)
        for _ in range(2):
            with ProvenanceStore(database) as reopened:
                anchor = labeled_runs[0].run.vertices()[0]
                session = ProvenanceSession(reopened)
                sql = session.run(
                    DownstreamQuery(anchor, run_id=run_ids[0], pushdown="always")
                )
                kernel = session.run(
                    DownstreamQuery(anchor, run_id=run_ids[0], pushdown="never")
                )
                assert sql == kernel
            assert set(PUSHDOWN_INDEXES) <= _index_names(database)
            assert _schema_version(database) == str(SCHEMA_VERSION)

    def test_v2_sharded_store_migrates_every_shard(self, tmp_path, labeled_runs, spec):
        base = tmp_path / "legacy-sharded"
        with ShardedProvenanceStore(base, 2) as writer:
            writer.add_labeled_runs(labeled_runs)
        shard_files = sorted(base.glob("shard-*.db"))
        assert len(shard_files) == 2
        for shard in shard_files:
            _downgrade_to_v2(shard)
            assert _schema_version(shard) == "2"

        for _ in range(2):  # idempotent across a double-open
            with ShardedProvenanceStore(base, 2) as reopened:
                anchor_vertex = labeled_runs[0].run.vertices()[0]
                anchor = (anchor_vertex.module, anchor_vertex.instance)
                session = ProvenanceSession(reopened)
                sql = session.run(CrossRunQuery(spec.name, anchor, pushdown="always"))
                kernel = session.run(CrossRunQuery(spec.name, anchor, pushdown="never"))
                assert sql.per_run == kernel.per_run
                assert sql.skipped_runs == kernel.skipped_runs
            for shard in shard_files:
                assert set(PUSHDOWN_INDEXES) <= _index_names(shard)
                assert _schema_version(shard) == str(SCHEMA_VERSION)


class TestChunkBudget:
    def test_999_values_fit_one_chunk_and_1000_split(self, monkeypatch):
        # the helper caps at SQLite's 999-parameter budget even when the
        # configured chunk size is far larger
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 2_000)
        chunks = [chunk for chunk, _ in iter_value_chunks(range(999))]
        assert [len(chunk) for chunk in chunks] == [999]
        chunks = [chunk for chunk, _ in iter_value_chunks(range(1_000))]
        assert [len(chunk) for chunk in chunks] == [999, 1]

    def test_reserved_parameters_shrink_the_chunk(self, monkeypatch):
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 2_000)
        sizes = [
            len(chunk) for chunk, _ in iter_value_chunks(range(1_000), reserved=2)
        ]
        assert sizes == [997, 3]
        for chunk, placeholders in iter_value_chunks(range(1_000), reserved=2):
            assert placeholders.count("?") == len(chunk)
            assert len(chunk) + 2 <= database_module.SQLITE_MAX_VARIABLE_NUMBER

    def test_thousand_id_in_query_succeeds_under_the_cap(self, monkeypatch):
        monkeypatch.setattr(database_module, "LABEL_FETCH_CHUNK", 2_000)
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (x INTEGER PRIMARY KEY)")
        connection.executemany(
            "INSERT INTO t VALUES (?)", [(value,) for value in range(1_000)]
        )
        collected: list[int] = []
        for chunk, placeholders in iter_value_chunks(range(1_000), reserved=2):
            rows = connection.execute(
                f"SELECT x FROM t WHERE x IN ({placeholders}) AND ? = ?",
                (*chunk, 1, 1),
            ).fetchall()
            collected.extend(row[0] for row in rows)
        assert sorted(collected) == list(range(1_000))


class TestCapabilityFlags:
    def test_range_labeled_schemes_declare_pushdown(self):
        for name in ("interval", "tree-cover", "chain"):
            assert scheme_supports_pushdown(name), name
        for name in ("tcm", "bfs", "dfs", "2-hop"):
            assert not scheme_supports_pushdown(name), name

    def test_capabilities_of_surfaces_the_flag(self):
        assert capabilities_of(get_scheme("interval")).pushdown is True
        assert capabilities_of(get_scheme("tcm")).pushdown is False


class TestSingleRunPlanner:
    def test_always_equals_never_both_directions(self, store, labeled_runs):
        session = ProvenanceSession(store)
        for run_id, item in zip((1, 2, 3), labeled_runs):
            for vertex in item.run.vertices()[:8]:
                for query_type in (DownstreamQuery, UpstreamQuery):
                    sql = session.run(
                        query_type(vertex, run_id=run_id, pushdown="always")
                    )
                    kernel = session.run(
                        query_type(vertex, run_id=run_id, pushdown="never")
                    )
                    assert sql == kernel

    def test_always_on_incapable_scheme_raises(self, tmp_path, spec):
        other = forest_spec(name="pushdown-tcm", seed=6)
        labeler = SkeletonLabeler(other, "tcm")
        labeled = labeler.label_run(
            generate_run_with_size(other, 40, seed=0, name="tcm-run").run
        )
        with ProvenanceStore(tmp_path / "tcm.db") as opened:
            run_id = opened.add_labeled_run(labeled)
            session = ProvenanceSession(opened)
            anchor = labeled.run.vertices()[0]
            with pytest.raises(QueryPlanError, match="pushdown"):
                session.run(DownstreamQuery(anchor, run_id=run_id, pushdown="always"))
            # auto quietly keeps the kernel path instead
            session.run(DownstreamQuery(anchor, run_id=run_id, pushdown="auto"))
            paths = opened.cache_stats()["pushdown"]
            assert paths["kernel"].get("tcm", 0) >= 1
            assert not paths["sql"]

    def test_auto_keeps_kernel_below_the_size_floor(self, store, labeled_runs):
        # 60-vertex runs sit far below PUSHDOWN_MIN_ROWS
        session = ProvenanceSession(store)
        anchor = labeled_runs[0].run.vertices()[0]
        session.run(DownstreamQuery(anchor, run_id=1))
        paths = store.cache_stats()["pushdown"]
        assert paths["kernel"].get("interval", 0) >= 1
        session.run(DownstreamQuery(anchor, run_id=1, pushdown="always"))
        assert store.cache_stats()["pushdown"]["sql"].get("interval", 0) >= 1

    def test_query_override_beats_session_default(self, store, labeled_runs):
        session = ProvenanceSession(store, pushdown="never")
        assert session.cache_stats()["pushdown_mode"] == "never"
        anchor = labeled_runs[0].run.vertices()[0]
        session.run(DownstreamQuery(anchor, run_id=1, pushdown="always"))
        assert store.cache_stats()["pushdown"]["sql"].get("interval", 0) >= 1

    def test_invalid_modes_are_rejected(self, store):
        with pytest.raises(QueryPlanError, match="pushdown"):
            DownstreamQuery(("a", 1), run_id=1, pushdown="sometimes")
        with pytest.raises(QueryPlanError, match="pushdown"):
            ProvenanceSession(store, pushdown="sometimes")

    def test_unknown_anchor_raises_on_the_pushdown_path(self, store):
        session = ProvenanceSession(store)
        with pytest.raises(StorageError):
            session.run(DownstreamQuery(("ghost", 1), run_id=1, pushdown="always"))


class TestCrossRunPlanner:
    def test_always_equals_never_across_runs(self, store, spec, labeled_runs):
        session = ProvenanceSession(store)
        for vertex in labeled_runs[0].run.vertices()[:6]:
            anchor = (vertex.module, vertex.instance)
            for direction in ("downstream", "upstream"):
                sql = session.run(
                    CrossRunQuery(spec.name, anchor, direction, pushdown="always")
                )
                kernel = session.run(
                    CrossRunQuery(spec.name, anchor, direction, pushdown="never")
                )
                assert sql.per_run == kernel.per_run
                assert sorted(sql.skipped_runs) == sorted(kernel.skipped_runs)

    def test_parallel_scans_match_sequential_and_end_their_threads(
        self, store, spec, labeled_runs, monkeypatch
    ):
        import threading

        from repro.engine.parallel import CrossRunExecutor

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        before = set(threading.enumerate())
        for vertex in labeled_runs[0].run.vertices()[:4]:
            args = (spec.name, (vertex.module, vertex.instance))
            for direction in ("downstream", "upstream"):
                sequential = CrossRunExecutor(store, workers=1)
                want = sequential.sweep_pushdown(*args, direction)
                for workers in (2, 3):
                    executor = CrossRunExecutor(store, workers=workers)
                    assert executor.sweep_pushdown(*args, direction) == want
                    # the scans and the streamed kernel agree on every path
                    assert executor.sweep(*args, direction) == want
        assert set(threading.enumerate()) <= before

    def test_anchor_missing_everywhere_skips_all_runs(self, store, spec, labeled_runs):
        session = ProvenanceSession(store)
        anchor = (labeled_runs[0].run.vertices()[0].module, 999)
        sql = session.run(CrossRunQuery(spec.name, anchor, pushdown="always"))
        kernel = session.run(CrossRunQuery(spec.name, anchor, pushdown="never"))
        assert sql.per_run == {} == kernel.per_run
        assert sorted(sql.skipped_runs) == sorted(kernel.skipped_runs)
        assert len(sql.skipped_runs) == 3

    def test_sharded_store_answers_identically(self, tmp_path, spec, labeled_runs):
        with ShardedProvenanceStore(tmp_path / "sharded", 3) as sharded:
            sharded.add_labeled_runs(labeled_runs)
            session = ProvenanceSession(sharded)
            vertex = labeled_runs[0].run.vertices()[0]
            anchor = (vertex.module, vertex.instance)
            sql = session.run(CrossRunQuery(spec.name, anchor, pushdown="always"))
            kernel = session.run(CrossRunQuery(spec.name, anchor, pushdown="never"))
            assert sql.per_run == kernel.per_run
            assert sql.skipped_runs == kernel.skipped_runs
            paths = sharded.cache_stats()["pushdown"]
            assert paths["sql"].get("interval", 0) >= 1
            assert paths["kernel"].get("interval", 0) >= 1

    def test_always_on_incapable_spec_raises(self, tmp_path):
        other = forest_spec(name="pushdown-cross-tcm", seed=7)
        labeler = SkeletonLabeler(other, "tcm")
        with ProvenanceStore(tmp_path / "tcm.db") as opened:
            opened.add_labeled_run(
                labeler.label_run(
                    generate_run_with_size(other, 40, seed=0, name="tcm-run").run
                )
            )
            session = ProvenanceSession(opened)
            with pytest.raises(QueryPlanError, match="tcm"):
                session.run(CrossRunQuery(other.name, ("m0000", 1), pushdown="always"))


class TestExplainQueryPlan:
    @pytest.fixture()
    def connection(self):
        connection = database_module.connect(":memory:")
        initialize_schema(connection)
        yield connection
        connection.close()

    @pytest.mark.parametrize(
        "sql, params, expected_index",
        [
            (
                range_branch_sql(3, downstream=True),
                (1, 2, 3, "m", 1),
                "idx_run_labels_pushdown_range",
            ),
            (
                range_branch_sql(3, downstream=False),
                (1, 2, 3, "m", 1),
                "idx_run_labels_pushdown_range",
            ),
            (
                module_branch_sql(3, 5),
                (1, 2, 3, "m", 1, "a", "b", "c", "d", "e"),
                "idx_run_labels_pushdown_module",
            ),
        ],
    )
    def test_branches_ride_the_v3_indexes(self, connection, sql, params, expected_index):
        details = [
            row[3]
            for row in connection.execute("EXPLAIN QUERY PLAN " + sql, params)
        ]
        # every access path is an index search — a SCAN would mean SQLite
        # fell back to walking the table and the pushdown lost its point
        assert details and all(detail.startswith("SEARCH") for detail in details)
        assert any(expected_index in detail for detail in details)
        # the anchor seek rides the primary-key autoindex
        assert any("sqlite_autoindex_run_labels_1" in detail for detail in details)


class TestWireProtocol:
    def test_protocol_version_covers_pushdown_and_faults(self):
        # v2 added the pushdown byte; v3 the fault-tolerance handshake
        # (HELLO client id, ingest sequence tokens, the HEALTH op); v4 the
        # routing maintenance ops (REBALANCE/REPLICATE/ROUTING + skew); v5
        # deleted those three ops and the skew rows' routing fields; v6
        # deleted the client id, the sequence tokens and CROSS_BATCH's
        # workers slot
        assert wire.PROTOCOL_VERSION == 6

    @pytest.mark.parametrize("mode", [None, "auto", "always", "never"])
    def test_pushdown_mode_round_trips(self, mode):
        writer = wire.Writer()
        wire.put_pushdown(writer, mode)
        assert wire.read_pushdown(wire.Reader(writer.getvalue())) == mode

    def test_unknown_mode_and_byte_are_protocol_errors(self):
        with pytest.raises(ProtocolError):
            wire.put_pushdown(wire.Writer(), "sometimes")
        with pytest.raises(ProtocolError):
            wire.read_pushdown(wire.Reader(b"\x09"))


class TestRemotePushdown:
    @pytest.fixture()
    def served(self, tmp_path, spec, labeled_runs):
        store = ShardedProvenanceStore(tmp_path / "served", 2)
        run_ids = store.add_labeled_runs(labeled_runs)
        with ServerThread(store) as server:
            with RemoteStore(server.url) as client:
                yield store, run_ids, client

    def test_remote_sweep_agrees_with_local_for_every_mode(
        self, served, spec, labeled_runs
    ):
        store, run_ids, client = served
        local = ProvenanceSession(store)
        remote = client.session()
        anchor = labeled_runs[0].run.vertices()[0]
        for mode in (None, "auto", "always", "never"):
            query = DownstreamQuery(anchor, run_id=run_ids[0], pushdown=mode)
            assert remote.run(query) == local.run(query)
            sweep = CrossRunQuery(
                spec.name, (anchor.module, anchor.instance), pushdown=mode
            )
            assert remote.run(sweep).per_run == local.run(sweep).per_run

    def test_remote_pushdown_counters_flow_through_stats(
        self, served, spec, labeled_runs
    ):
        _, _, client = served
        vertex = labeled_runs[0].run.vertices()[0]
        client.session().run(
            CrossRunQuery(spec.name, (vertex.module, vertex.instance), pushdown="always")
        )
        stats = client.cache_stats()
        assert stats["pushdown"]["sql"].get("interval", 0) >= 1


class TestCLIPushdownFlag:
    @pytest.fixture()
    def database(self, tmp_path, labeled_runs):
        path = tmp_path / "cli.db"
        with ProvenanceStore(path) as opened:
            for item in labeled_runs:
                opened.add_labeled_run(item)
        return path

    def test_sweep_pushdown_modes_print_identical_answers(
        self, database, spec, labeled_runs, capsys
    ):
        import re

        vertex = labeled_runs[0].run.vertices()[0]
        outputs = {}
        for mode in ("always", "never"):
            exit_code = main([
                "sweep", "--database", str(database),
                "--spec", spec.name,
                "--source", f"{vertex.module}:{vertex.instance}",
                "--pushdown", mode,
            ])
            assert exit_code == 0
            # the summary line carries a wall-clock figure; everything else
            # (every per-run result line) must be byte-identical
            outputs[mode] = re.sub(
                r"in \d+\.\d+ ms", "in <t> ms", capsys.readouterr().out
            )
        assert outputs["always"] == outputs["never"]

    def test_unknown_pushdown_mode_is_a_usage_error(self, database, spec, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--database", str(database),
                "--spec", spec.name, "--source", "m0000:1",
                "--pushdown", "sometimes",
            ])
