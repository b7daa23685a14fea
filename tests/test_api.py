"""Tests for the unified declarative query API (repro.api)."""

from __future__ import annotations

import pytest

from repro.api import (
    BatchQuery,
    CrossRunQuery,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
    read_pair_workload,
    write_pair_workload,
)
from repro.engine import QueryEngine, compile_spec_kernel
from repro.exceptions import QueryPlanError, SerializationError, StorageError
from repro.labeling.base import capabilities_of
from repro.labeling.registry import build_index
from repro.skeleton.online import OnlineRun
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex
from repro.workflow.specification import WorkflowSpecification


@pytest.fixture()
def paper_labeled(paper_spec, paper_run):
    return SkeletonLabeler(paper_spec, "tcm").label_run(paper_run)


@pytest.fixture()
def multi_run_store(paper_spec, paper_run):
    labeler = SkeletonLabeler(paper_spec, "tcm")
    store = ProvenanceStore()
    run_ids = [store.add_labeled_run(labeler.label_run(paper_run))]
    for seed in (1, 2):
        generated = generate_run_with_size(
            paper_spec, 20, seed=seed, name=f"gen-{seed}"
        )
        run_ids.append(store.add_labeled_run(labeler.label_run(generated.run)))
    yield store, run_ids
    store.close()


class TestQueryValidation:
    def test_batch_query_needs_exactly_one_form(self):
        with pytest.raises(QueryPlanError):
            BatchQuery()
        with pytest.raises(QueryPlanError):
            BatchQuery(pairs=[(1, 2)], source_ids=[1], target_ids=[2])
        with pytest.raises(QueryPlanError):
            BatchQuery(source_ids=[1])  # target_ids missing

    def test_cross_run_direction_validated(self):
        with pytest.raises(QueryPlanError):
            CrossRunQuery("spec", ("a", 1), "sideways")

    def test_data_dependency_needs_exactly_one_subject(self):
        with pytest.raises(QueryPlanError):
            DataDependencyQuery("item")
        with pytest.raises(QueryPlanError):
            DataDependencyQuery("item", on_item="x", on_module=("a", 1))


class TestSessionConstruction:
    def test_sniffs_store_index_and_online(self, paper_spec, paper_labeled):
        assert ProvenanceSession(ProvenanceStore()).target_kind == "store"
        assert ProvenanceSession(paper_labeled).target_kind == "index"
        assert (
            ProvenanceSession(OnlineRun(paper_spec)).target_kind == "online"
        )
        index = build_index("tcm", paper_labeled.run.graph)
        assert ProvenanceSession(index).target_kind == "index"

    def test_rejects_unknown_targets(self):
        with pytest.raises(QueryPlanError):
            ProvenanceSession(object())
        with pytest.raises(QueryPlanError):
            ProvenanceSession(None)

    def test_run_id_rejected_off_store(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        with pytest.raises(QueryPlanError):
            session.run(PointQuery(("a", 1), ("h", 1), run_id=1))

    def test_run_id_required_on_store(self, multi_run_store):
        store, _ = multi_run_store
        with pytest.raises(QueryPlanError):
            store.session().run(PointQuery(("a", 1), ("h", 1)))

    def test_store_session_is_cached(self, multi_run_store):
        store, _ = multi_run_store
        assert store.session() is store.session()


class TestIndexSession:
    def test_point_and_batch_match_object_path(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        vertices = paper_labeled.run.vertices()
        pairs = [(u, v) for u in vertices[:6] for v in vertices[:6]]
        batch = session.run(BatchQuery(pairs=pairs))
        for (u, v), answer in zip(pairs, batch):
            assert bool(answer) == paper_labeled.reaches(u, v)
            assert session.run(PointQuery(u, v)) == paper_labeled.reaches(u, v)

    def test_sweeps_match_object_path(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        anchor = RunVertex("a", 1)
        down = session.run(DownstreamQuery(anchor))
        up = session.run(UpstreamQuery(RunVertex("h", 1)))
        assert sorted(down) == sorted(paper_labeled.downstream_of(anchor))
        assert sorted(up) == sorted(paper_labeled.upstream_of(RunVertex("h", 1)))

    def test_direct_index_sweep(self, paper_labeled):
        index = build_index("tcm", paper_labeled.run.graph)
        session = ProvenanceSession.for_index(index)
        down = session.run(DownstreamQuery(RunVertex("a", 1)))
        expected = [
            v
            for v in index.graph.vertices()
            if v != RunVertex("a", 1) and index.reaches(RunVertex("a", 1), v)
        ]
        assert sorted(down) == sorted(expected)

    def test_compiled_plan_is_reusable(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        plan = session.compile(PointQuery(("a", 1), ("h", 1)))
        assert plan.execute() is True
        assert plan.execute() is True

    def test_data_dependency_unplannable_on_index(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        with pytest.raises(QueryPlanError):
            session.run(DataDependencyQuery("item", on_item="other"))

    def test_run_many_fuses_and_preserves_order(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        queries = [
            PointQuery(("a", 1), ("h", 1)),
            DownstreamQuery(("a", 1)),
            PointQuery(("h", 1), ("a", 1)),
            PointQuery(("b", 1), ("c", 1)),
        ]
        answers = session.run_many(queries)
        assert answers[0] is True and answers[2] is False
        assert answers[3] == paper_labeled.reaches(RunVertex("b", 1), RunVertex("c", 1))
        assert sorted(answers[1]) == sorted(
            paper_labeled.downstream_of(RunVertex("a", 1))
        )


class TestStoreSession:
    def test_handle_native_batch(self, multi_run_store):
        store, run_ids = multi_run_store
        session = store.session()
        engine = store.query_engine(run_ids[0])
        run = store.get_run(run_ids[0])
        vertices = run.vertices()
        pairs = [(u, v) for u in vertices[:5] for v in vertices[:5]]
        source_ids, target_ids = engine.intern_pairs(pairs)
        by_ids = session.run(
            BatchQuery(
                source_ids=source_ids, target_ids=target_ids, run_id=run_ids[0]
            )
        )
        by_pairs = session.run(BatchQuery(pairs=pairs, run_id=run_ids[0]))
        assert list(map(bool, by_ids)) == list(map(bool, by_pairs))

    def test_unknown_execution_is_storage_error(self, multi_run_store):
        store, run_ids = multi_run_store
        session = store.session()
        store.query_engine(run_ids[0])  # force the cached-engine batch path
        with pytest.raises(StorageError):
            session.run(
                BatchQuery(pairs=[(("ghost", 1), ("h", 1))], run_id=run_ids[0])
            )

    def test_cross_run_matches_per_run_sweeps(self, multi_run_store):
        store, run_ids = multi_run_store
        result = store.session().run(
            CrossRunQuery("paper-example", ("a", 1), "downstream")
        )
        assert sorted(result.per_run) == sorted(run_ids)
        assert result.skipped_runs == []
        for run_id in run_ids:
            expected = store._dependency_sweep(run_id, ("a", 1), downstream=True)
            assert sorted(result.per_run[run_id]) == sorted(expected)
        assert result.run_count == len(run_ids)
        assert result.affected_count == sum(
            len(found) for found in result.per_run.values()
        )

    def test_cross_run_upstream(self, multi_run_store):
        store, run_ids = multi_run_store
        result = store.session().run(
            CrossRunQuery("paper-example", ("h", 1), "upstream")
        )
        for run_id in run_ids:
            expected = store._dependency_sweep(run_id, ("h", 1), downstream=False)
            assert sorted(result.per_run[run_id]) == sorted(expected)

    def test_cross_run_skips_runs_without_the_anchor(self, multi_run_store):
        store, run_ids = multi_run_store
        # b:3 exists in the Figure 3 run (two L2 iterations plus a second
        # fork copy) but not necessarily in the small generated runs
        result = store.session().run(
            CrossRunQuery("paper-example", ("b", 99), "downstream")
        )
        assert result.per_run == {}
        assert sorted(result.skipped_runs) == sorted(run_ids)

    def test_cross_run_unknown_spec_raises(self, multi_run_store):
        store, _ = multi_run_store
        with pytest.raises(StorageError):
            store.session().run(CrossRunQuery("nope", ("a", 1)))

    def test_cross_run_unplannable_off_store(self, paper_labeled):
        session = ProvenanceSession.for_index(paper_labeled)
        with pytest.raises(QueryPlanError):
            session.run(CrossRunQuery("paper-example", ("a", 1)))

    def test_cross_run_mixed_schemes(self, paper_spec, paper_run):
        # runs of one specification labeled under different spec schemes
        # each sweep through their own shared kernel
        store = ProvenanceStore()
        ids = {}
        for scheme in ("tcm", "tree-cover"):
            labeler = SkeletonLabeler(paper_spec, scheme)
            generated = generate_run_with_size(
                paper_spec, 18, seed=3, name=f"{scheme}-run"
            )
            ids[scheme] = store.add_labeled_run(labeler.label_run(generated.run))
        result = store.session().run(
            CrossRunQuery("paper-example", ("a", 1), "downstream")
        )
        for scheme, run_id in ids.items():
            expected = store._dependency_sweep(run_id, ("a", 1), downstream=True)
            assert sorted(result.per_run[run_id]) == sorted(expected)
        store.close()

    def test_data_dependency_on_store(self, paper_spec, paper_run):
        from repro.provenance.data import DataFlow

        labeled = SkeletonLabeler(paper_spec, "tcm").label_run(paper_run)
        store = ProvenanceStore()
        run_id = store.add_labeled_run(labeled)
        flow = DataFlow(paper_run)
        flow.attach(RunVertex("a", 1), RunVertex("b", 1), ["d-ab"])
        flow.attach(RunVertex("b", 1), RunVertex("c", 1), ["d-bc"])
        store.add_dataflow(run_id, flow)
        session = store.session()
        assert session.run(
            DataDependencyQuery("d-bc", on_item="d-ab", run_id=run_id)
        )
        assert session.run(
            DataDependencyQuery("d-bc", on_module=("a", 1), run_id=run_id)
        )
        assert not session.run(
            DataDependencyQuery("d-ab", on_item="d-bc", run_id=run_id)
        )
        store.close()


class TestOnlineSession:
    def test_answers_track_appends(self, paper_spec):
        online = OnlineRun(paper_spec)
        session = ProvenanceSession.for_online(online)
        root = online.root_scope
        a1 = root.execute("a")
        d1 = root.execute("d")
        online.connect(a1, d1)
        assert session.run(PointQuery(a1, d1)) is True
        kernel = session._target.engine()

        # the incremental kernel persists across appends; an execution in a
        # newly nonempty scope (positions shift) triggers a rebuild, not a
        # new engine, and answers stay fresh
        rebuilds_before = kernel.stats.rebuilds
        l1 = root.begin_execution("L1")
        e1 = l1.new_copy().execute("e")
        online.connect(d1, e1)
        assert session.run(PointQuery(a1, e1)) is True
        assert session._target.engine() is kernel
        assert kernel.stats.rebuilds == rebuilds_before + 1

        # an append into an already-nonempty scope extends the arrays in
        # place instead of recompiling
        a2 = root.execute("a")
        assert session.run(PointQuery(a2, e1)) == online.reaches(a2, e1)
        assert kernel.stats.rebuilds == rebuilds_before + 1
        assert kernel.stats.extensions >= 1

    def test_batch_and_sweeps_match_object_path(self, paper_spec):
        online = OnlineRun(paper_spec)
        session = ProvenanceSession.for_online(online)
        root = online.root_scope
        a1 = root.execute("a")
        d1 = root.execute("d")
        online.connect(a1, d1)
        l1 = root.begin_execution("L1")
        copy1 = l1.new_copy()
        e1 = copy1.execute("e")
        online.connect(d1, e1)
        copy2 = l1.new_copy()
        e2 = copy2.execute("e")
        recorded = [a1, d1, e1, e2]
        pairs = [(u, v) for u in recorded for v in recorded]
        batch = session.run(BatchQuery(pairs=pairs))
        for (u, v), answer in zip(pairs, batch):
            assert bool(answer) == online.reaches(u, v)
        down = session.run(DownstreamQuery(a1))
        expected = [v for v in recorded if v != a1 and online.reaches(a1, v)]
        assert sorted(down) == sorted(expected)

    def test_online_data_dependency(self, paper_spec):
        online = OnlineRun(paper_spec)
        session = ProvenanceSession.for_online(online)
        root = online.root_scope
        a1 = root.execute("a")
        d1 = root.execute("d")
        online.connect(a1, d1)
        online.attach_data(a1, d1, ["item-ad"])
        assert session.run(
            DataDependencyQuery("item-ad", on_module=("a", 1))
        )

    def test_capability_flags_of_online_view(self, paper_spec):
        online = OnlineRun(paper_spec)
        online.root_scope.execute("a")
        view = online.query_view()
        caps = capabilities_of(view)
        assert caps.stable_labels is False
        assert caps.handles is True and caps.sweep_domain is True
        assert caps.kernel_hint is None
        assert caps.batch is True


class TestSharedSpecKernel:
    def test_engines_share_one_spec_kernel(self, paper_spec):
        labeler = SkeletonLabeler(paper_spec, "tree-cover")
        spec_kernel = compile_spec_kernel(labeler.spec_index)
        answers = []
        for seed in (1, 2):
            generated = generate_run_with_size(paper_spec, 20, seed=seed)
            labeled = labeler.label_run(generated.run)
            shared = QueryEngine(labeled, spec_kernel=spec_kernel)
            private = QueryEngine(labeled)
            vertices = generated.run.vertices()
            pairs = [(u, v) for u in vertices[:8] for v in vertices[:8]]
            assert shared.reaches_batch(pairs) == private.reaches_batch(pairs)
            answers.append(shared.kernel_name)
        assert answers == ["numpy-skl", "numpy-skl"]

    def test_mismatched_spec_kernel_is_ignored(self, paper_spec):
        other_spec = WorkflowSpecification.from_edges(
            edges=[("x", "y"), ("y", "z")], forks=[], loops=[], name="other"
        )
        foreign = compile_spec_kernel(SkeletonLabeler(other_spec, "tcm").spec_index)
        labeler = SkeletonLabeler(paper_spec, "tcm")
        generated = generate_run_with_size(paper_spec, 15, seed=4)
        labeled = labeler.label_run(generated.run)
        engine = QueryEngine(labeled, spec_kernel=foreign)
        vertices = generated.run.vertices()
        expected = [labeled.reaches(u, v) for u in vertices[:5] for v in vertices[:5]]
        got = engine.reaches_batch(
            [(u, v) for u in vertices[:5] for v in vertices[:5]]
        )
        assert list(map(bool, got)) == expected

    def test_store_caches_spec_kernel_per_spec_and_scheme(self, multi_run_store):
        store, run_ids = multi_run_store
        kernels = {store.spec_kernel(run_id) for run_id in run_ids}
        assert len(kernels) == 1  # same spec, same scheme -> one shared kernel


class TestBinaryWorkload:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.bin"
        count = write_pair_workload(path, [0, 5, 17], [3, 2, 9], run_id=7)
        assert count == 3
        # 16-byte header (magic + run id) + 16 bytes per pair
        assert path.stat().st_size == 16 + 3 * 16
        run_id, source_ids, target_ids = read_pair_workload(path)
        assert run_id == 7
        assert list(source_ids) == [0, 5, 17]
        assert list(target_ids) == [3, 2, 9]

    def test_little_endian_on_disk(self, tmp_path):
        from repro.api.workload import WORKLOAD_MAGIC

        path = tmp_path / "pairs.bin"
        write_pair_workload(path, [1], [258], run_id=4)
        data = path.read_bytes()
        assert data[:8] == WORKLOAD_MAGIC
        assert data[8:16] == (4).to_bytes(8, "little")
        assert data[16:24] == (1).to_bytes(8, "little")
        assert data[24:32] == (258).to_bytes(8, "little")

    def test_wrong_run_rejected(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_pair_workload(path, [0], [1], run_id=1)
        run_id, _, _ = read_pair_workload(path, expect_run_id=1)
        assert run_id == 1
        with pytest.raises(SerializationError):
            read_pair_workload(path, expect_run_id=2)

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            write_pair_workload(tmp_path / "x.bin", [1, 2], [3], run_id=1)

    def test_headerless_bytes_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x01" * 32)  # right length, wrong magic
        with pytest.raises(SerializationError):
            read_pair_workload(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        write_pair_workload(path, [1], [2], run_id=1)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SerializationError):
            read_pair_workload(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            read_pair_workload(tmp_path / "nope.bin")

    def test_zero_pair_file_round_trips(self, tmp_path):
        # a header-only workload is legal: zero pairs, not an error
        path = tmp_path / "empty.bin"
        assert write_pair_workload(path, [], [], run_id=3) == 0
        assert path.stat().st_size == 16
        run_id, source_ids, target_ids = read_pair_workload(path, expect_run_id=3)
        assert run_id == 3
        assert len(source_ids) == 0 and len(target_ids) == 0

    def test_truncated_header_rejected(self, tmp_path):
        from repro.api.workload import WORKLOAD_MAGIC

        path = tmp_path / "short.bin"
        # the magic alone, without the run-id half of the header
        path.write_bytes(WORKLOAD_MAGIC)
        with pytest.raises(SerializationError):
            read_pair_workload(path)
        path.write_bytes(b"")
        with pytest.raises(SerializationError):
            read_pair_workload(path)

    def test_mismatched_run_id_message_names_both_runs(self, tmp_path):
        path = tmp_path / "pairs.bin"
        write_pair_workload(path, [0], [1], run_id=12)
        with pytest.raises(SerializationError, match=r"run 12.*run 7"):
            read_pair_workload(path, expect_run_id=7)

    def test_encode_matches_written_file(self, tmp_path):
        from repro.api.workload import encode_pair_workload

        path = tmp_path / "pairs.bin"
        write_pair_workload(path, [0, 5, 17], [3, 2, 9], run_id=7)
        blob = encode_pair_workload([0, 5, 17], [3, 2, 9], run_id=7)
        assert blob == path.read_bytes()

    def test_decode_hand_built_little_endian_bytes(self):
        # the format is little-endian by construction, not by host: a blob
        # assembled byte by byte must decode identically everywhere
        from repro.api.workload import WORKLOAD_MAGIC, decode_pair_workload

        blob = (
            WORKLOAD_MAGIC
            + (4).to_bytes(8, "little")
            + (1).to_bytes(8, "little", signed=True)
            + (258).to_bytes(8, "little", signed=True)
            + (-6).to_bytes(8, "little", signed=True)
            + (2**40).to_bytes(8, "little", signed=True)
        )
        run_id, source_ids, target_ids = decode_pair_workload(blob)
        assert run_id == 4
        assert list(source_ids) == [1, -6]
        assert list(target_ids) == [258, 2**40]

    def test_workload_codec_encodes_little_endian(self):
        # the encoder writes the same little-endian bytes on any host
        from repro.api.workload import (
            WORKLOAD_MAGIC,
            decode_pair_workload,
            encode_pair_workload,
        )

        encoded = encode_pair_workload([1, -6], [258, 2**40], run_id=4)
        assert encoded[:8] == WORKLOAD_MAGIC
        assert encoded[8:16] == (4).to_bytes(8, "little", signed=True)
        assert encoded[16:] == b"".join(
            value.to_bytes(8, "little", signed=True) for value in (1, 258, -6, 2**40)
        )
        run_id, source_ids, target_ids = decode_pair_workload(encoded)
        assert run_id == 4
        assert list(source_ids) == [1, -6]
        assert list(target_ids) == [258, 2**40]
