"""Tests for the sharded provenance store and its parallel ingest service.

Covers hash placement and global-id allocation, the full
``ProvenanceStore`` surface parity through the session, the per-shard
batched write path (including input-order ids, duplicate detection and
reopen), the refusal of directories an older build rebalanced, two
handles ingesting into one directory, concurrent writer/reader stress,
shard-aware parallel execution, the per-shard skew table (``stats``,
``health``), and the CLI ``--shards`` flag.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import threading
from contextlib import closing

import pytest

from repro.api import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.engine.parallel import CrossRunExecutor
from repro.exceptions import StorageError
from repro.provenance.data import DataFlow
from repro.server import RemoteStore, ServerThread
from repro.server.protocol import PROTOCOL_VERSION
from repro.skeleton.skl import SkeletonLabeler
from repro.storage import sharded as sharded_module
from repro.storage.sharded import (
    DEFAULT_SHARDS,
    MAX_SHARDS,
    ShardedProvenanceStore,
    open_store,
    shard_of_run,
    shard_of_spec,
)
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex


@pytest.fixture()
def sharded_store(tmp_path):
    store = ShardedProvenanceStore(tmp_path / "sharded", 4)
    yield store
    store.close()


@pytest.fixture()
def labeled_batch(paper_spec, paper_labeler, paper_run):
    """The paper run plus three generated runs, all labeled with tcm+skl."""
    labeled = [paper_labeler.label_run(paper_run)]
    for seed in (1, 2, 3):
        generated = generate_run_with_size(
            paper_spec, 20, seed=seed, name=f"shard-{seed}"
        )
        labeled.append(paper_labeler.label_run(generated.run))
    return labeled


def _rival(labeled):
    """Another run under *labeled*'s name: a conflict, not a replay."""
    run = labeled.run
    rival = generate_run_with_size(run.specification, 30, seed=99, name=run.name)
    return SkeletonLabeler(run.specification, "tcm").label_run(rival.run)


def _synthetic_labeled_runs(
    prefix, count, *, modules=12, edges=16, hierarchy=3, seed=0, size=15
):
    """One tcm-labeled run of each of *count* small synthetic specifications."""
    labeled = []
    for i in range(count):
        spec = generate_specification(
            SyntheticSpecConfig(
                n_modules=modules,
                n_edges=edges,
                hierarchy_size=hierarchy,
                hierarchy_depth=2,
                name=f"{prefix}-{i}",
                seed=seed + i,
            )
        )
        run = generate_run_with_size(spec, size, seed=i, name="r").run
        labeled.append(SkeletonLabeler(spec, "tcm").label_run(run))
    return labeled


def _small_spec(name, seed):
    return generate_specification(
        SyntheticSpecConfig(
            n_modules=12,
            n_edges=14,
            hierarchy_size=2,
            hierarchy_depth=2,
            name=name,
            seed=seed,
        )
    )


def _name_on_shard(prefix, shard, shards):
    """A deterministic spec name the CRC-32 hash places on *shard*."""
    for index in range(10_000):
        candidate = f"{prefix}-{index}"
        if shard_of_spec(candidate, shards) == shard:
            return candidate
    raise AssertionError(f"no {prefix!r} candidate hashes onto shard {shard}")


def _spec_runs(name, seed, run_seeds):
    """tcm-labeled runs, one per entry of *run_seeds*, of one small spec."""
    spec = _small_spec(name, seed)
    labeler = SkeletonLabeler(spec, "tcm")
    return [
        labeler.label_run(generate_run_with_size(spec, 16, seed=s, name=f"r{s}").run)
        for s in run_seeds
    ]


def _query(database, sql):
    """Rows of *sql* read straight from one SQLite file."""
    with closing(sqlite3.connect(database)) as connection:
        return connection.execute(sql).fetchall()


SKEW_SHARDS = 4
HOT_RUNS = 6
COLD_RUNS = 2
#: the fields of one ``cache_stats()["shards"]["per_shard"]`` row
SKEW_FIELDS = {"shard", "file", "specs", "runs", "file_bytes", "sweeps"}


@pytest.fixture()
def skewed(tmp_path):
    """A 4-shard store whose hot and cold specs hash onto one shard."""
    hot = "skew-hot"
    hot_shard = shard_of_spec(hot, SKEW_SHARDS)
    cold = _name_on_shard("skew-cold", hot_shard, SKEW_SHARDS)
    labeled = []
    for name, seed, count in ((hot, 7, HOT_RUNS), (cold, 8, COLD_RUNS)):
        spec = _small_spec(name, seed)
        labeler = SkeletonLabeler(spec, "tcm")
        labeled += [
            labeler.label_run(
                generate_run_with_size(
                    spec, 24, seed=100 * seed + index, name=f"{name}-{index}"
                ).run
            )
            for index in range(count)
        ]
    directory = tmp_path / "skewed"
    store = ShardedProvenanceStore(directory, SKEW_SHARDS)
    store.add_labeled_runs(labeled)
    anchor = labeled[0].run.vertices()[0]
    yield {
        "store": store,
        "directory": directory,
        "hot": hot,
        "hot_shard": hot_shard,
        "anchor": (anchor.module, anchor.instance),
    }
    store.close()


class TestRouting:
    def test_spec_routing_is_stable(self):
        assert shard_of_spec("paper-example", 4) == shard_of_spec("paper-example", 4)
        assert 0 <= shard_of_spec("anything", 7) < 7

    def test_run_id_encoding_round_trips(self):
        # global id (local-1)*N + shard + 1 means the shard is recoverable
        # from the id alone, for every shard count
        for shards in (1, 2, 4, 64):
            for local in range(1, 6):
                for shard in range(shards):
                    global_id = (local - 1) * shards + shard + 1
                    assert shard_of_run(global_id, shards) == shard

    def test_one_shard_store_uses_single_file_numbering(self, tmp_path, labeled_batch):
        with ShardedProvenanceStore(tmp_path / "one", 1) as store:
            ids = store.add_labeled_runs(labeled_batch)
        assert ids == [1, 2, 3, 4]

    def test_all_runs_of_one_spec_share_a_shard(self, sharded_store, labeled_batch):
        ids = sharded_store.add_labeled_runs(labeled_batch)
        shard_paths = {sharded_store.shard_path_of(run_id) for run_id in ids}
        assert len(shard_paths) == 1

    def test_specs_spread_across_shards(self, tmp_path):
        # enough distinct names hit more than one of 4 shards
        shards = {shard_of_spec(f"spec-{i}", 4) for i in range(16)}
        assert len(shards) > 1

    def test_placement_survives_a_reopen(self, tmp_path):
        # the hash is the whole catalog: a fresh handle keeps every stored
        # run where it was and sends new runs of a spec to the same file
        names = [_name_on_shard("reopen", shard, 3) for shard in range(3)]
        runs = [_spec_runs(name, 30 + i, (1, 2, 3)) for i, name in enumerate(names)]
        directory = tmp_path / "reopened"
        with ShardedProvenanceStore(directory, 3) as store:
            first_ids = store.add_labeled_runs(r for rs in runs for r in rs[:2])
            listing = store.list_runs()
        with ShardedProvenanceStore(directory) as reopened:
            assert reopened.list_runs() == listing
            later_ids = reopened.add_labeled_runs(rs[2] for rs in runs)
        assert [shard_of_run(run_id, 3) for run_id in later_ids] == [0, 1, 2]
        assert min(later_ids) > max(first_ids)
        for shard, name in enumerate(names):
            assert _query(
                directory / f"shard-{shard:02d}.db",
                "SELECT s.name, COUNT(*) FROM runs JOIN specifications s "
                "USING (spec_id) GROUP BY s.name",
            ) == [(name, 3)]

    def test_delete_run_touches_only_its_hash_shard(self, tmp_path):
        directory = tmp_path / "deleting"
        names = [_name_on_shard("delete", shard, 3) for shard in range(3)]
        labeled = [
            run for i, name in enumerate(names) for run in _spec_runs(name, 40 + i, (1, 2))
        ]

        def rows_per_shard():
            sql = (
                "SELECT (SELECT COUNT(*) FROM runs), (SELECT COUNT(*) FROM run_labels)"
            )
            return [_query(directory / f"shard-{s:02d}.db", sql)[0] for s in range(3)]

        with ShardedProvenanceStore(directory, 3) as store:
            ids = store.add_labeled_runs(labeled)
            before = rows_per_shard()
            store.delete_run(ids[2])
            after = rows_per_shard()
            assert [row["run_id"] for row in store.list_runs()] == sorted(
                set(ids) - {ids[2]}
            )
        owner = shard_of_run(ids[2], 3)
        assert after[owner][0] == before[owner][0] - 1
        assert after[owner][1] < before[owner][1]
        others = [shard for shard in range(3) if shard != owner]
        assert [after[s] for s in others] == [before[s] for s in others]


class TestIdClassRoundUp:
    """``_next_id`` re-derives a shard's id class from its high-water mark.

    An older build's rolled-back migration can leave a shard's
    ``sqlite_sequence`` in another shard's class; fresh ids must still be
    unique and route back to the shard that issued them.
    """

    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("table", ["runs", "specifications"])
    def test_fresh_ids_round_up_to_the_shard_class(self, tmp_path, table, offset):
        name = "round-up"
        shard = shard_of_spec(name, 3)
        spec_runs = _spec_runs(name, 21, (1, 2))
        directory = tmp_path / "round-up"
        with ShardedProvenanceStore(directory, 3) as store:
            store.add_labeled_run(spec_runs[0])
        foreign = (shard + offset) % 3
        highest = 31 + foreign  # (highest - 1) % 3 == foreign
        shard_file = directory / f"shard-{shard:02d}.db"
        with closing(sqlite3.connect(shard_file)) as connection, connection:
            assert connection.execute(
                "UPDATE sqlite_sequence SET seq = ? WHERE name = ?", (highest, table)
            ).rowcount == 1
        # a second run of the spec allocates a run id; a run of another
        # spec on the shard allocates a spec id too
        fresh = spec_runs[1]
        if table == "specifications":
            (fresh,) = _spec_runs(_name_on_shard("round-up-other", shard, 3), 22, (2,))
        with ShardedProvenanceStore(directory) as store:
            run_id = store.add_labeled_run(fresh)
            (row,) = [row for row in store.list_runs() if row["run_id"] == run_id]
            new_id = run_id if table == "runs" else row["spec_id"]
            assert highest < new_id <= highest + 3
            assert shard_of_run(new_id, 3) == shard == shard_of_run(run_id, 3)
            assert store.get_run(run_id).vertex_count == fresh.run.vertex_count


class TestConstruction:
    def test_memory_store_rejected(self):
        with pytest.raises(StorageError):
            ShardedProvenanceStore(":memory:")

    def test_shard_count_validated(self, tmp_path):
        with pytest.raises(StorageError):
            ShardedProvenanceStore(tmp_path / "bad", 0)
        with pytest.raises(StorageError):
            ShardedProvenanceStore(tmp_path / "bad", MAX_SHARDS + 1)

    def test_default_shard_count(self, tmp_path):
        with ShardedProvenanceStore(tmp_path / "default") as store:
            assert store.shard_count == DEFAULT_SHARDS

    def test_reopen_recovers_shard_count(self, tmp_path, labeled_batch):
        with ShardedProvenanceStore(tmp_path / "reopen", 3) as store:
            ids = store.add_labeled_runs(labeled_batch)
        with ShardedProvenanceStore(tmp_path / "reopen") as store:
            assert store.shard_count == 3
            assert [row["run_id"] for row in store.list_runs()] == sorted(ids)
        with pytest.raises(StorageError):
            ShardedProvenanceStore(tmp_path / "reopen", 5)

    def test_open_store_picks_the_layout(self, tmp_path, labeled_batch):
        sharded_path = tmp_path / "auto"
        with open_store(sharded_path, shards=2) as store:
            assert isinstance(store, ShardedProvenanceStore)
            store.add_labeled_runs(labeled_batch)
        with open_store(sharded_path) as store:
            assert isinstance(store, ShardedProvenanceStore)
            assert store.shard_count == 2
        with open_store(tmp_path / "plain.db") as store:
            assert isinstance(store, ProvenanceStore)


class TestIngest:
    def test_ids_in_input_order(self, sharded_store, labeled_batch):
        ids = sharded_store.add_labeled_runs(labeled_batch)
        assert len(ids) == len(labeled_batch)
        names = {row["run_id"]: row["name"] for row in sharded_store.list_runs()}
        assert [names[run_id] for run_id in ids] == [
            item.run.name for item in labeled_batch
        ]

    def test_empty_batch(self, sharded_store):
        assert sharded_store.add_labeled_runs([]) == []

    def test_duplicate_run_raises(self, sharded_store, labeled_batch):
        sharded_store.add_labeled_runs(labeled_batch)
        with pytest.raises(StorageError):
            sharded_store.add_labeled_run(_rival(labeled_batch[0]))

    def test_failed_shard_batch_rolls_back(self, sharded_store, labeled_batch):
        sharded_store.add_labeled_run(_rival(labeled_batch[0]))
        before = sharded_store.statistics()
        # the whole sub-batch shares one transaction: the fresh runs in it
        # must roll back alongside the conflicting one
        with pytest.raises(StorageError):
            sharded_store.add_labeled_runs(labeled_batch)
        assert sharded_store.statistics() == before

    def test_multi_spec_batch_spreads_and_answers(self, tmp_path, monkeypatch):
        labeled = _synthetic_labeled_runs(
            "multi", 6, modules=20, edges=30, seed=20, size=25
        )
        ingest = ShardedProvenanceStore._ingest_shard_batch
        committers = set()

        def recording_ingest(self, shard, batch):
            committers.add(threading.current_thread())
            return ingest(self, shard, batch)

        monkeypatch.setattr(
            ShardedProvenanceStore, "_ingest_shard_batch", recording_ingest
        )
        with ShardedProvenanceStore(tmp_path / "multi", 4) as store:
            before = set(threading.enumerate())
            ids = store.add_labeled_runs(labeled)
            touched = {store.shard_path_of(run_id) for run_id in ids}
            assert len(touched) > 1, "expected the specs to spread over shards"
            # the shard sub-batches committed on at most one thread per
            # shard touched, and every one of them ended with the call
            assert 1 <= len(committers) <= len(touched)
            assert threading.current_thread() not in committers
            assert not any(thread.is_alive() for thread in committers)
            assert set(threading.enumerate()) <= before
            for run_id, item in zip(ids, labeled):
                assert store.all_labels_of(run_id) == item.labels()

    def test_single_shard_batch_commits_inline(
        self, sharded_store, labeled_batch, monkeypatch
    ):
        import repro.storage.sharded as sharded_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a single-shard batch opened a thread pool")

        ingest = ShardedProvenanceStore._ingest_shard_batch
        committers = []

        def recording_ingest(self, shard, batch):
            committers.append(threading.current_thread())
            return ingest(self, shard, batch)

        monkeypatch.setattr(sharded_module, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(
            ShardedProvenanceStore, "_ingest_shard_batch", recording_ingest
        )
        # every run of the batch shares one spec, hence one shard
        ids = sharded_store.add_labeled_runs(labeled_batch)
        assert len(ids) == len(labeled_batch)
        assert committers == [threading.current_thread()]

    def test_failing_shard_keeps_the_other_shards_commits(
        self, sharded_store, labeled_batch, paper_spec
    ):
        paper_shard = shard_of_spec(paper_spec.name, 4)
        fresh = next(
            item
            for item in _synthetic_labeled_runs("other", 4)
            if shard_of_spec(item.run.specification.name, 4) != paper_shard
        )
        sharded_store.add_labeled_run(_rival(labeled_batch[0]))
        before = set(threading.enumerate())
        # the paper shard's sub-batch reuses a stored run's name with
        # other content and rolls back;
        # the other shard's commit stands, and the error surfaces only
        # after both tasks finished on a pool that ended with the call
        with pytest.raises(StorageError):
            sharded_store.add_labeled_runs([fresh, *labeled_batch])
        assert set(threading.enumerate()) <= before
        assert len(sharded_store.list_runs(fresh.run.specification.name)) == 1
        assert len(sharded_store.list_runs(paper_spec.name)) == 1

    def test_add_specification_idempotent(self, sharded_store, paper_spec):
        first = sharded_store.add_specification(paper_spec)
        assert sharded_store.add_specification(paper_spec) == first
        assert sharded_store.get_specification(paper_spec.name).name == paper_spec.name


class TestSurfaceParity:
    """Every query type answers exactly like a single-file store."""

    @pytest.fixture()
    def both_stores(self, tmp_path, labeled_batch):
        single = ProvenanceStore(tmp_path / "single.db")
        sharded = ShardedProvenanceStore(tmp_path / "parity", 4)
        single_ids = [single.add_labeled_run(item) for item in labeled_batch]
        sharded_ids = sharded.add_labeled_runs(labeled_batch)
        yield single, single_ids, sharded, sharded_ids
        single.close()
        sharded.close()

    def test_labels_and_point_batch_sweeps(self, both_stores, paper_run):
        single, single_ids, sharded, sharded_ids = both_stores
        vertices = paper_run.vertices()[:6]
        pairs = [(u, v) for u in vertices for v in vertices]
        single_session = ProvenanceSession(single)
        sharded_session = ProvenanceSession(sharded)
        run_s, run_h = single_ids[0], sharded_ids[0]
        assert single.all_labels_of(run_s) == sharded.all_labels_of(run_h)
        assert single.label_of(run_s, "a", 1) == sharded.label_of(run_h, "a", 1)
        assert single_session.run(
            BatchQuery(pairs=pairs, run_id=run_s)
        ) == sharded_session.run(BatchQuery(pairs=pairs, run_id=run_h))
        for u, v in pairs[:8]:
            assert single_session.run(
                PointQuery(u, v, run_id=run_s)
            ) == sharded_session.run(PointQuery(u, v, run_id=run_h))
        assert single_session.run(
            DownstreamQuery(("a", 1), run_id=run_s)
        ) == sharded_session.run(DownstreamQuery(("a", 1), run_id=run_h))
        assert single_session.run(
            UpstreamQuery(("h", 1), run_id=run_s)
        ) == sharded_session.run(UpstreamQuery(("h", 1), run_id=run_h))

    def test_cross_run_queries_match(self, both_stores, paper_spec):
        single, _, sharded, _ = both_stores
        for workers in (1, 2):
            single_sweep = ProvenanceSession(single).run(
                CrossRunQuery(paper_spec.name, ("a", 1), workers=workers)
            )
            sharded_sweep = ProvenanceSession(sharded).run(
                CrossRunQuery(paper_spec.name, ("a", 1), workers=workers)
            )
            assert list(single_sweep.per_run.values()) == list(
                sharded_sweep.per_run.values()
            )
        pairs = [(("a", 1), ("h", 1)), (("h", 1), ("a", 1))]
        single_batch = ProvenanceSession(single).run(
            CrossRunBatchQuery(paper_spec.name, pairs)
        )
        sharded_batch = ProvenanceSession(sharded).run(
            CrossRunBatchQuery(paper_spec.name, pairs)
        )
        assert list(single_batch.per_run.values()) == list(
            sharded_batch.per_run.values()
        )

    def test_per_run_queries_delegate_to_the_owning_shard(self, both_stores):
        _, _, sharded, sharded_ids = both_stores
        run_id = sharded_ids[0]
        session = sharded.session()
        assert session.run(PointQuery(("a", 1), ("h", 1), run_id=run_id)) is True
        batch = BatchQuery(pairs=[(("a", 1), ("h", 1))], run_id=run_id)
        assert session.run(batch) == [True]
        assert session.run(DownstreamQuery(("a", 1), run_id=run_id))
        assert session.run(UpstreamQuery(("h", 1), run_id=run_id))

    def test_close_is_idempotent(self, tmp_path):
        store = ShardedProvenanceStore(tmp_path / "close-twice", 2)
        assert not store.closed
        store.close()
        store.close()
        assert store.closed

    def test_operations_after_close_raise_cleanly(self, tmp_path, labeled_batch):
        store = ShardedProvenanceStore(tmp_path / "closed-ops", 2)
        store.add_labeled_runs(labeled_batch[:1])
        store.close()
        for operation in (
            lambda: store.add_labeled_runs(labeled_batch[1:]),
            lambda: store.add_labeled_run(labeled_batch[1]),
            lambda: store.list_runs(),
            lambda: store.statistics(),
            lambda: store.session(),
        ):
            with pytest.raises(StorageError, match="store is closed"):
                operation()

    def test_dataflow_queries(self, both_stores, paper_run):
        _, _, sharded, sharded_ids = both_stores
        run_id = sharded_ids[0]
        flow = DataFlow(paper_run)
        flow.attach(RunVertex("a", 1), RunVertex("b", 1), ["item-a"])
        # item-a is read by b1, which reaches c1 — the producer of item-b
        flow.attach(RunVertex("c", 1), RunVertex("b", 2), ["item-b"])
        assert sharded.add_dataflow(run_id, flow) == 2
        assert sharded.list_data_items(run_id) == ["item-a", "item-b"]
        session = ProvenanceSession(sharded)
        assert session.run(
            DataDependencyQuery("item-b", on_item="item-a", run_id=run_id)
        )
        assert session.run(
            DataDependencyQuery("item-b", on_module=("a", 1), run_id=run_id)
        )

    def test_get_run_and_delete(self, both_stores):
        _, _, sharded, sharded_ids = both_stores
        run_id = sharded_ids[1]
        assert sharded.get_run(run_id).vertex_count > 0
        sharded.delete_run(run_id)
        with pytest.raises(StorageError):
            sharded.get_run(run_id)
        remaining = {row["run_id"] for row in sharded.list_runs()}
        assert run_id not in remaining and len(remaining) == len(sharded_ids) - 1

    def test_unknown_run_and_spec_errors(self, sharded_store):
        with pytest.raises(StorageError):
            sharded_store.get_run(999)
        with pytest.raises(StorageError):
            sharded_store.get_specification("ghost")
        with pytest.raises(StorageError):
            sharded_store.run_label_arrays(999)


class TestCacheStatsAndSession:
    def test_cache_stats_aggregates(self, sharded_store, labeled_batch):
        ids = sharded_store.add_labeled_runs(labeled_batch)
        session = sharded_store.session()
        assert session is sharded_store.session()
        session.run(BatchQuery(pairs=[(("a", 1), ("h", 1))] * 600, run_id=ids[0]))
        stats = session.cache_stats()
        assert stats["target_kind"] == "store"
        assert stats["shards"]["count"] == 4
        assert len(stats["shards"]["per_shard"]) == 4
        assert stats["resident_runs"] >= 1
        assert 0 < stats["resident_bytes"] <= stats["budget_bytes"]

    def test_run_label_arrays_many_across_shards(self, tmp_path):
        labeled = _synthetic_labeled_runs(
            "arrays", 4, modules=15, edges=20, hierarchy=2, seed=40, size=18
        )
        with ShardedProvenanceStore(tmp_path / "arrays", 3) as store:
            ids = store.add_labeled_runs(labeled)
            arrays = store.run_label_arrays_many(ids)
            assert sorted(arrays) == sorted(ids)
            for run_id in ids:
                single = store.run_label_arrays(run_id)
                assert arrays[run_id].executions == single.executions
                assert list(arrays[run_id].q1) == list(single.q1)


class TestConcurrentWritersAndReaders:
    def test_ingest_while_sweeping(self, tmp_path, paper_spec, paper_labeler):
        """Writers batching runs in while readers sweep must never trip.

        WAL shards keep readers unblocked during commits; the final state
        must contain every run exactly once and answer like a cold store.
        """
        store = ShardedProvenanceStore(tmp_path / "stress", 4)
        seed_run = generate_run_with_size(paper_spec, 20, seed=99, name="seed")
        store.add_labeled_run(paper_labeler.label_run(seed_run.run))
        batches = [
            [
                paper_labeler.label_run(
                    generate_run_with_size(
                        paper_spec, 20, seed=batch * 10 + offset,
                        name=f"stress-{batch}-{offset}",
                    ).run
                )
                for offset in range(3)
            ]
            for batch in range(4)
        ]
        errors: list[BaseException] = []
        ingested: list[int] = []

        def writer():
            try:
                for batch in batches:
                    ingested.extend(store.add_labeled_runs(batch))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader():
            # each reader holds its own store handle (the connection-per-
            # worker pattern of a query server); WAL lets it read while
            # the writer's shard batches commit
            try:
                with ShardedProvenanceStore(tmp_path / "stress") as reader_store:
                    executor = CrossRunExecutor(reader_store, workers=2)
                    for _ in range(12):
                        per_run, _ = executor.sweep(paper_spec.name, ("a", 1))
                        assert per_run, "the seed run must always be visible"
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        total_runs = 1 + sum(len(batch) for batch in batches)
        assert len(set(ingested)) == total_runs - 1
        assert store.statistics()["runs"] == total_runs
        # a cold reopen agrees with what the hot store ingested
        store.close()
        with ShardedProvenanceStore(tmp_path / "stress") as reopened:
            assert reopened.statistics()["runs"] == total_runs
            per_run, skipped = CrossRunExecutor(reopened, workers=1).sweep(
                paper_spec.name, ("a", 1)
            )
            assert len(per_run) + len(skipped) == total_runs


class TestShardedCLI:
    def _base_files(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        assert main([
            "generate-spec", "--modules", "30", "--edges", "60", "--regions", "5",
            "--depth", "3", "--seed", "4", "--output", str(spec_path),
        ]) == 0
        assert main([
            "generate-run", "--spec", str(spec_path), "--size", "60",
            "--seed", "1", "--output", str(run_path),
        ]) == 0
        return spec_path, run_path

    def test_label_with_shards_then_query_and_sweep(self, tmp_path, capsys):
        import json

        from repro.cli import main

        spec_path, run_path = self._base_files(tmp_path)
        database = tmp_path / "prov"
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database), "--shards", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "of 3" in output and "run_id=" in output
        run_id = output.split("run_id=")[1].split()[0]
        assert sorted(p.name for p in database.glob("shard-*.db")) == [
            "shard-00.db", "shard-01.db", "shard-02.db",
        ]
        vertices = json.loads(run_path.read_text())["vertices"]
        source = f"{vertices[0][0]}:{vertices[0][1]}"
        # a second label call auto-detects the sharded layout (no --shards)
        run2_path = tmp_path / "run2.json"
        assert main([
            "generate-run", "--spec", str(spec_path), "--size", "60",
            "--seed", "2", "--name", "run2", "--output", str(run2_path),
        ]) == 0
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run2_path),
            "--database", str(database),
        ]) == 0
        capsys.readouterr()
        exit_code = main([
            "query", "--database", str(database), "--run-id", run_id,
            "--source", source, "--target", source,
        ])
        assert exit_code in (0, 1)  # a valid answer either way
        capsys.readouterr()
        assert main([
            "sweep", "--database", str(database), "--spec", "synthetic",
            "--source", source, "--summary-only", "--workers", "2",
        ]) == 0
        assert "swept 2 runs" in capsys.readouterr().out

    def test_label_shard_count_mismatch_errors(self, tmp_path, capsys):
        from repro.cli import main

        spec_path, run_path = self._base_files(tmp_path)
        database = tmp_path / "prov"
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database), "--shards", "2",
        ]) == 0
        capsys.readouterr()
        run2_path = tmp_path / "run2.json"
        assert main([
            "generate-run", "--spec", str(spec_path), "--size", "40",
            "--seed", "3", "--name", "other", "--output", str(run2_path),
        ]) == 0
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run2_path),
            "--database", str(database), "--shards", "5",
        ]) == 2
        assert "2 shards" in capsys.readouterr().err


class TestReviewRegressions:
    """Fixes from review: id reuse, file-path errors, duplicate messages."""

    def test_deleted_max_id_is_never_reused(self, sharded_store, labeled_batch):
        ids = sharded_store.add_labeled_runs(labeled_batch[:3])
        newest = max(ids)
        sharded_store.delete_run(newest)
        replacement = sharded_store.add_labeled_run(labeled_batch[3])
        assert replacement > newest, "a deleted id must never be handed out again"

    def test_sharding_over_a_file_path_raises_storage_error(
        self, tmp_path, labeled_batch
    ):
        single_path = tmp_path / "prov.db"
        with ProvenanceStore(single_path) as store:
            store.add_labeled_run(labeled_batch[0])
        with pytest.raises(StorageError, match="file, not a shard directory"):
            ShardedProvenanceStore(single_path, 4)

    def test_duplicate_error_names_the_offending_run(self, tmp_path, labeled_batch):
        with ShardedProvenanceStore(tmp_path / "dup", 2) as store:
            store.add_labeled_run(_rival(labeled_batch[2]))
            with pytest.raises(StorageError, match="'shard-2'"):
                store.add_labeled_runs(labeled_batch)

    def test_explicit_worker_cap_bounds_pool_tasks(
        self, tmp_path, paper_spec, paper_labeler, monkeypatch
    ):
        import time

        import repro.engine.parallel as parallel

        store = ShardedProvenanceStore(tmp_path / "cap", 1)
        runs = [
            paper_labeler.label_run(
                generate_run_with_size(paper_spec, 18, seed=s, name=f"cap-{s}").run
            )
            for s in range(12)
        ]
        store.add_labeled_runs(runs)
        sequential = CrossRunExecutor(store, workers=1).sweep(paper_spec.name, ("a", 1))
        fetch = parallel._fetch_chunk_arrays
        lock = threading.Lock()
        running = [0]
        most = [0]

        def counted_fetch(db_path, run_ids):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(0.01)  # hold the slot so overlapping chunks show
                return fetch(db_path, run_ids)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(parallel, "_fetch_chunk_arrays", counted_fetch)
        executor = CrossRunExecutor(store, workers=2)
        assert executor.sweep(paper_spec.name, ("a", 1)) == sequential
        # 12 runs in 3 chunks at workers=2: never more than 2 chunks at once
        assert 1 <= most[0] <= 2
        store.close()

    def test_worker_chunks_group_runs_by_shard_file(self, tmp_path, labeled_batch):
        labeled = _synthetic_labeled_runs("group", 6) + labeled_batch
        with ShardedProvenanceStore(tmp_path / "groups", 4) as store:
            run_ids = store.add_labeled_runs(labeled)
            groups = CrossRunExecutor(store, workers=2)._path_groups(run_ids)
            paths = [path for path, _ in groups]
            assert len(paths) == len(set(paths)) > 1
            # each group names the one file every run in it lives in, and
            # together the groups hold every run once
            for path, group_runs in groups:
                assert {str(store.shard_path_of(r)) for r in group_runs} == {path}
            assert sorted(r for _, group in groups for r in group) == sorted(run_ids)

    def test_open_store_refuses_unrelated_directories(self, tmp_path):
        plain_dir = tmp_path / "not-a-store"
        plain_dir.mkdir()
        (plain_dir / "notes.txt").write_text("hello")
        with pytest.raises(StorageError, match="without shard files"):
            open_store(plain_dir)
        assert sorted(p.name for p in plain_dir.iterdir()) == ["notes.txt"]


class TestSkewTable:
    def test_per_shard_skew_table_shape(self, skewed):
        store = skewed["store"]
        CrossRunExecutor(store, workers=2).sweep(skewed["hot"], skewed["anchor"])
        shards = store.cache_stats()["shards"]
        assert shards["count"] == SKEW_SHARDS
        assert len(shards["per_shard"]) == SKEW_SHARDS
        for row in shards["per_shard"]:
            assert set(row) == SKEW_FIELDS
        assert sum(row["runs"] for row in shards["per_shard"]) == (
            HOT_RUNS + COLD_RUNS
        )
        hot_row = shards["per_shard"][skewed["hot_shard"]]
        assert hot_row["file"] == f"shard-{skewed['hot_shard']:02d}.db"
        assert hot_row["specs"] == 2
        assert hot_row["runs"] == HOT_RUNS + COLD_RUNS
        assert hot_row["file_bytes"] > 0
        assert hot_row["sweeps"]["kernel"] + hot_row["sweeps"]["sql"] >= 1

    def test_stats_prints_the_skew_table(self, skewed, capsys):
        from repro.cli import main

        skewed["store"].close()
        database = str(skewed["directory"])
        assert main(["stats", "--database", database]) == 0
        out = capsys.readouterr().out
        assert f"{database}: {SKEW_SHARDS} shards" in out
        assert "file_bytes" in out and "sweeps sql" in out
        assert "replicas" not in out and "routed" not in out
        assert main(["stats", "--database", database, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shards"]["count"] == SKEW_SHARDS
        hot_row = stats["shards"]["per_shard"][skewed["hot_shard"]]
        assert hot_row["runs"] == HOT_RUNS + COLD_RUNS

    def test_stats_on_a_single_file_store(self, tmp_path, capsys, labeled_batch):
        from repro.cli import main

        database = tmp_path / "single.db"
        with ProvenanceStore(database) as single:
            single.add_labeled_run(labeled_batch[0])
        assert main(["stats", "--database", str(database)]) == 0
        out = capsys.readouterr().out
        assert f"{database}: single-file store" in out
        assert "file_bytes" not in out

    def test_health_carries_the_skew_table_over_the_wire(self, skewed):
        store = skewed["store"]
        with ServerThread(store) as server, RemoteStore(server.url) as client:
            health = client.health()
        assert health["protocol"] == PROTOCOL_VERSION == 6
        assert health["shards_total"] == health["shards_reachable"] == SKEW_SHARDS
        rows = health["shards"]["per_shard"]
        assert health["shards"]["count"] == SKEW_SHARDS
        assert [row["runs"] for row in rows] == [
            row["runs"] for row in store.cache_stats()["shards"]["per_shard"]
        ]
        assert set(rows[0]) == SKEW_FIELDS


#: one row per schema v4 routing table, as an older build's rebalance
#: wrote them into shard 0
_ROUTING_ROWS = {
    "shard_routing": (
        "INSERT INTO shard_routing (spec_name, shard) VALUES (?, ?)",
        ("moved-spec", 2),
    ),
    "run_routing": (
        "INSERT INTO run_routing (run_id, shard) VALUES (?, ?)",
        (5, 2),
    ),
    "shard_migrations": (
        "INSERT INTO shard_migrations "
        "(spec_name, spec_id, source, target, state, run_ids) "
        "VALUES (?, ?, ?, ?, ?, ?)",
        ("moved-spec", 1, 0, 2, "copying", "[5]"),
    ),
}


def _write_rows(database, tables):
    with closing(sqlite3.connect(database)) as connection, connection:
        for table in tables:
            connection.execute(*_ROUTING_ROWS[table])


class TestRebalancedDirectoryIsRefused:
    @pytest.mark.parametrize("table", sorted(_ROUTING_ROWS))
    def test_a_routing_row_in_shard_zero_refuses_the_open(
        self, tmp_path, labeled_batch, monkeypatch, table
    ):
        directory = tmp_path / "rebalanced"
        with ShardedProvenanceStore(directory, 3) as store:
            store.add_labeled_runs(labeled_batch)
        _write_rows(directory / "shard-00.db", [table])
        opened = []

        class RecordingStore(ProvenanceStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(sharded_module, "ProvenanceStore", RecordingStore)
        with pytest.raises(StorageError, match="rebalanced by an older build") as info:
            ShardedProvenanceStore(directory)
        message = str(info.value)
        if table == "shard_routing":
            assert "'moved-spec' (shard 2)" in message
        if table == "run_routing":
            assert "1 routed runs" in message
        if table == "shard_migrations":
            assert "half-done: 'moved-spec' (copying)" in message
        else:
            assert "no migration was left half-done" in message
        # every shard connection the refused open made is closed again
        assert len(opened) == 3
        assert all(store.closed for store in opened)
        with pytest.raises(StorageError, match="older build"):
            open_store(directory)

    def test_an_untouched_v4_directory_opens(self, tmp_path, labeled_batch):
        directory = tmp_path / "untouched"
        with ShardedProvenanceStore(directory, 3) as store:
            ids = store.add_labeled_runs(labeled_batch)
        with closing(sqlite3.connect(directory / "shard-00.db")) as connection:
            version = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()[0]
            counts = [
                connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in sorted(_ROUTING_ROWS)
            ]
        assert version == "4"
        assert counts == [0, 0, 0]
        with ShardedProvenanceStore(directory) as reopened:
            assert [row["run_id"] for row in reopened.list_runs()] == sorted(ids)

    def test_a_single_file_store_is_unaffected(self, tmp_path, labeled_batch):
        database = tmp_path / "single.db"
        with ProvenanceStore(database) as store:
            run_id = store.add_labeled_run(labeled_batch[0])
        _write_rows(database, sorted(_ROUTING_ROWS))
        with open_store(database) as reopened:
            assert isinstance(reopened, ProvenanceStore)
            assert [row["run_id"] for row in reopened.list_runs()] == [run_id]


def _by_run_name(result, name_of):
    """A ``(per_run, skipped)`` executor answer keyed by run name, not id."""
    per_run, skipped = result
    return (
        {name_of[run_id]: answer for run_id, answer in per_run.items()},
        sorted(name_of[run_id] for run_id in skipped),
    )


class TestTwoHandlesOneDirectory:
    """Two handles on one directory contend only through SQLite's lock.

    Each handle has its own per-shard locks, so two threads driving two
    handles interleave their ``BEGIN IMMEDIATE`` ingest transactions the
    way two processes would.  Placement is the spec-name hash, so both
    handles agree on where every run lives without sharing any state.
    """

    SHARDS = 3
    RUNS_PER_HANDLE = 8

    @pytest.mark.parametrize("layout", ["one-shard", "two-shards"])
    def test_interleaved_ingest_lands_once_in_the_hash_shard(self, tmp_path, layout):
        shards = self.SHARDS
        first = "handles-a"
        first_shard = shard_of_spec(first, shards)
        offset = 0 if layout == "one-shard" else 1
        second = _name_on_shard("handles-b", (first_shard + offset) % shards, shards)
        specs = {first: _small_spec(first, 11), second: _small_spec(second, 12)}
        labelers = {name: SkeletonLabeler(spec, "tcm") for name, spec in specs.items()}
        per_handle = [
            [
                labelers[name].label_run(
                    generate_run_with_size(
                        specs[name], 20, seed=100 * handle + index,
                        name=f"h{handle}-{index}",
                    ).run
                )
                for index, name in zip(
                    range(self.RUNS_PER_HANDLE), [first, second] * self.RUNS_PER_HANDLE
                )
            ]
            for handle in range(2)
        ]
        directory = tmp_path / "shared"
        ShardedProvenanceStore(directory, shards).close()
        handles = [ShardedProvenanceStore(directory) for _ in range(2)]
        start = threading.Barrier(2)
        ids: list[list[int]] = [[], []]
        errors: list[BaseException] = []

        def drive(handle):
            try:
                start.wait(timeout=10)
                for item in per_handle[handle]:
                    ids[handle].append(handles[handle].add_labeled_run(item))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=drive, args=(h,)) for h in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so the handles interleave
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            all_ids = ids[0] + ids[1]
            assert len(set(all_ids)) == len(all_ids) == 2 * self.RUNS_PER_HANDLE
            name_of = {}
            for handle_runs, handle_ids in zip(per_handle, ids):
                for item, run_id in zip(handle_runs, handle_ids):
                    spec_shard = shard_of_spec(item.run.specification.name, shards)
                    assert shard_of_run(run_id, shards) == spec_shard
                    name_of[run_id] = item.run.name
            # each shard file holds exactly the runs its id class names
            stored = []
            for index in range(shards):
                with closing(sqlite3.connect(directory / f"shard-{index:02d}.db")) as c:
                    shard_ids = [row[0] for row in c.execute("SELECT run_id FROM runs")]
                assert all(shard_of_run(r, shards) == index for r in shard_ids)
                stored += shard_ids
            assert sorted(stored) == sorted(all_ids)
            listings = [handle.list_runs() for handle in handles]
            assert listings[0] == listings[1]
            assert [row["run_id"] for row in listings[0]] == sorted(all_ids)

            specs_first_run = {first: per_handle[0][0], second: per_handle[0][1]}
            with ProvenanceStore(tmp_path / "oracle.db") as oracle:
                oracle_name_of = {
                    oracle.add_labeled_run(item): item.run.name
                    for item in per_handle[0] + per_handle[1]
                }
                for name in (first, second):
                    vertices = specs_first_run[name].run.vertices()
                    anchor = (vertices[0].module, vertices[0].instance)
                    ends = [(v.module, v.instance) for v in vertices[:3]]
                    pairs = [(u, v) for u in ends for v in ends]
                    want_sweep = _by_run_name(
                        CrossRunExecutor(oracle, workers=1).sweep(name, anchor),
                        oracle_name_of,
                    )
                    want_batch = _by_run_name(
                        CrossRunExecutor(oracle, workers=1).batch(name, pairs),
                        oracle_name_of,
                    )
                    # both handles' runs of the spec are in the answer
                    assert len(want_sweep[0]) + len(want_sweep[1]) == (
                        self.RUNS_PER_HANDLE
                    )
                    for handle in handles:
                        for workers in (1, 2):
                            executor = CrossRunExecutor(handle, workers=workers)
                            assert _by_run_name(
                                executor.sweep(name, anchor), name_of
                            ) == want_sweep
                            assert _by_run_name(
                                executor.batch(name, pairs), name_of
                            ) == want_batch
        finally:
            for handle in handles:
                handle.close()
