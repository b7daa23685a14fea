"""Integration tests for the provenance network service.

Covers the wire protocol codecs, the HELLO handshake, bit-identical
answers for every query op against an in-process session, recoverable vs
fatal error handling (malformed and truncated frames must produce a
protocol error and a closed connection, never a hang), the buffered
ingest path (explicit flush, auto-flush threshold, flush-at-disconnect,
a rejected flush that leaves the client usable),
pipelined requests answered in order, concurrent clients against a
sharded store, ingest-during-query consistency, clean shutdown with
requests in flight or an idle client connected, and the CLI's
``repro://`` routing.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time

import pytest

from repro.api import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunPointQuery,
    CrossRunQuery,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.exceptions import ProtocolError, QueryPlanError, ReproError, StorageError
from repro.faults import suppressed
from repro.provenance.data import DataFlow
from repro.server import (
    PROTOCOL_VERSION,
    ProvenanceServer,
    RemoteStore,
    ServerThread,
    is_remote_target,
    parse_url,
)
from repro.server import protocol as wire
from repro.server.protocol import Reader, Writer, frame
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size
from repro.workflow.run import RunVertex


@pytest.fixture()
def served(tmp_path, paper_spec, paper_labeler, paper_run):
    """A sharded store with three runs behind a ServerThread, plus a client."""
    store = ShardedProvenanceStore(tmp_path / "served", 2)
    labeled = [paper_labeler.label_run(paper_run)]
    for seed in (1, 2):
        generated = generate_run_with_size(
            paper_spec, 24, seed=seed, name=f"served-{seed}"
        )
        labeled.append(paper_labeler.label_run(generated.run))
    run_ids = store.add_labeled_runs(labeled)
    with ServerThread(store) as server:
        with RemoteStore(server.url) as client:
            yield store, run_ids, server, client
    store.close()


def _hello():
    """The handshake frame: the protocol version alone."""
    return frame(bytes([wire.OP_HELLO]) + Writer().put_u32(PROTOCOL_VERSION).getvalue())


def _raw_exchange(server, payloads, *, read_responses=1):
    """Speak raw bytes to the server; returns the response frames read."""
    responses = []
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        # handshake first, so the failure under test is the interesting frame
        sock.sendall(_hello())
        _read_frame(sock)
        for payload in payloads:
            sock.sendall(payload)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        for _ in range(read_responses):
            responses.append(_read_frame(sock))
        # after a fatal frame the server must close: recv returns EOF,
        # it does not hang
        assert sock.recv(4096) == b""
    return responses


def _read_frame(sock):
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        assert chunk, "server closed before sending a full frame"
        prefix += chunk
    (length,) = struct.unpack("<I", prefix)
    payload = b""
    while len(payload) < length:
        chunk = sock.recv(length - len(payload))
        assert chunk, "server closed mid-frame"
        payload += chunk
    return payload


def _stop_in_time(server):
    """Stop a ServerThread from a helper thread; fail if it takes 10 s."""
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive(), "ServerThread.stop() hung"


def _asyncio_errors(caplog):
    return [
        record.getMessage()
        for record in caplog.records
        if record.name.startswith("asyncio") and record.levelno >= logging.ERROR
    ]


class TestWireCodecs:
    def test_frame_round_trip(self):
        payload = b"\x01hello"
        framed = frame(payload)
        assert wire.split_frame_length(framed[:4]) == len(payload)
        assert framed[4:] == payload

    def test_oversized_frame_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            wire.split_frame_length(struct.pack("<I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError):
            wire.split_frame_length(b"\x01\x02")

    def test_writer_reader_round_trip(self):
        writer = (
            Writer()
            .put_u8(7)
            .put_bool(True)
            .put_u32(1234)
            .put_i64(-99)
            .put_str("héllo")
            .put_bools([True, False, True])
            .put_executions([("m1", 2), ("m2", 3)])
        )
        reader = Reader(writer.getvalue())
        assert reader.u8() == 7
        assert reader.bool() is True
        assert reader.u32() == 1234
        assert reader.i64() == -99
        assert reader.str() == "héllo"
        assert reader.bools() == [True, False, True]
        assert reader.executions() == [("m1", 2), ("m2", 3)]
        reader.expect_end()

    def test_run_maps_and_workers_round_trip(self):
        writer = Writer()
        wire.put_run_map_executions(writer, {3: [("a", 1)], 9: []})
        wire.put_run_map_bools(writer, {3: [True, False]})
        wire.put_skipped(writer, [5, 6])
        wire.put_workers(writer, None)
        wire.put_workers(writer, 4)
        reader = Reader(writer.getvalue())
        assert wire.read_run_map_executions(reader) == {3: [("a", 1)], 9: []}
        assert wire.read_run_map_bools(reader) == {3: [True, False]}
        assert wire.read_skipped(reader) == [5, 6]
        assert wire.read_workers(reader) is None
        assert wire.read_workers(reader) == 4

    def test_truncated_payload_raises_protocol_error(self):
        reader = Reader(Writer().put_u32(10).getvalue())
        with pytest.raises(ProtocolError, match="truncated"):
            reader.str()

    def test_trailing_bytes_raise(self):
        reader = Reader(b"\x01\x02")
        reader.u8()
        with pytest.raises(ProtocolError, match="trailing"):
            reader.expect_end()

    def test_invalid_utf8_raises(self):
        blob = Writer().put_u32(2).getvalue() + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="UTF-8"):
            Reader(blob).str()

    def test_execution_list_prefixes_are_truncated(self):
        blob = (
            Writer().put_executions([("m1", 2), ("mödule", -3), ("m1", 9)]).getvalue()
        )
        for end in range(len(blob)):
            with pytest.raises(ProtocolError, match="truncated"):
                Reader(blob[:end]).executions()

    def test_execution_list_with_invalid_utf8_raises(self):
        # a count of two: one valid execution, then a name that is not UTF-8
        blob = Writer().put_u32(2).put_str("ok").put_i64(1).put_u32(2).getvalue()
        blob += b"\xff\xfe" + Writer().put_i64(1).getvalue()
        with pytest.raises(ProtocolError, match="UTF-8"):
            Reader(blob).executions()

    def test_repeated_module_names_round_trip(self):
        executions = [("m", 1), ("n", 2), ("m", 3), ("m", 1), ("n", -5)]
        writer = Writer().put_executions(executions)
        # byte-for-byte the field-by-field encoding
        expected = Writer().put_u32(len(executions))
        for module, instance in executions:
            expected.put_str(module).put_i64(instance)
        assert writer.getvalue() == expected.getvalue()
        reader = Reader(writer.getvalue())
        assert reader.executions() == executions
        reader.expect_end()

    def test_url_helpers(self):
        assert is_remote_target("repro://host:1/") and not is_remote_target("/a/b")
        assert parse_url("repro://example:4321/") == ("example", 4321)
        assert parse_url("repro://example/") == ("example", wire.DEFAULT_PORT)
        with pytest.raises(ProtocolError):
            parse_url("http://example/")


class TestHandshakeAndSurface:
    def test_hello_pins_version_and_reports_store(self, served):
        _, _, server, client = served
        assert client.server_protocol == PROTOCOL_VERSION
        assert client.path.startswith(f"repro://{server.host}:{server.port}")
        assert client.sharded is True

    def test_version_mismatch_is_fatal(self, served):
        _, _, server, _ = served
        bad_hello = frame(bytes([wire.OP_HELLO]) + struct.pack("<I", 999))
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(bad_hello)
            response = _read_frame(sock)
            assert response[0] == wire.STATUS_FATAL
            assert sock.recv(4096) == b""

    def test_a_protocol_v5_client_is_refused_by_name(self, served):
        # v6 dropped the HELLO client id and the ingest sequence tokens, so
        # a v5 client's full HELLO (version and client id) is refused with
        # both versions named
        _, _, server, _ = served
        v5_hello = frame(
            bytes([wire.OP_HELLO]) + Writer().put_u32(5).put_str("v5").getvalue()
        )
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(v5_hello)
            response = _read_frame(sock)
            assert response[0] == wire.STATUS_FATAL
            reader = Reader(response[1:])
            assert reader.str() == "ProtocolError"
            assert "client speaks 5, server speaks 6" in reader.str()
            assert sock.recv(4096) == b""

    def test_store_surface_matches(self, served):
        store, _, _, client = served
        assert client.list_runs() == store.list_runs()
        assert client.list_runs("paper-example") == store.list_runs("paper-example")
        assert client.list_specifications() == store.list_specifications()
        assert client.statistics() == store.statistics()
        stats = client.cache_stats()
        assert stats["server"]["connections"] >= 1

    def test_every_query_op_is_bit_identical(self, served, paper_run, paper_spec):
        store, run_ids, _, client = served
        local = ProvenanceSession(store)
        remote = client.session()
        run_id = run_ids[0]
        vertices = paper_run.vertices()
        pairs = [(u, v) for u in vertices[:5] for v in vertices[:5]]

        for source, target in pairs[:8]:
            query = PointQuery(source, target, run_id=run_id)
            assert remote.run(query) == local.run(query)
        batch = BatchQuery(pairs=pairs, run_id=run_id)
        assert remote.run(batch) == local.run(batch)
        engine = store.query_engine(run_id)
        source_ids, target_ids = engine.intern_pairs(
            [((u.module, u.instance), (v.module, v.instance)) for u, v in pairs]
        )
        handles = BatchQuery(
            source_ids=source_ids, target_ids=target_ids, run_id=run_id
        )
        assert remote.run(handles) == local.run(handles)
        for query in (
            DownstreamQuery(("a", 1), run_id=run_id),
            UpstreamQuery(("h", 1), run_id=run_id),
        ):
            assert remote.run(query) == local.run(query)
        sweep = CrossRunQuery(paper_spec.name, ("a", 1))
        assert remote.run(sweep) == local.run(sweep)
        cross_batch = CrossRunBatchQuery(paper_spec.name, pairs[:4])
        assert remote.run(cross_batch) == local.run(cross_batch)
        cross_point = CrossRunPointQuery(paper_spec.name, ("a", 1), ("h", 1))
        assert remote.run(cross_point) == local.run(cross_point)

    def test_data_dependency_over_the_wire(self, served, paper_run):
        store, run_ids, _, client = served
        flow = DataFlow(run=paper_run)
        flow.attach(RunVertex("a", 1), RunVertex("b", 1), ["item-a"])
        flow.attach(RunVertex("c", 1), RunVertex("b", 2), ["item-b"])
        store.add_dataflow(run_ids[0], flow)
        local = ProvenanceSession(store)
        remote = client.session()
        for query in (
            DataDependencyQuery("item-b", on_item="item-a", run_id=run_ids[0]),
            DataDependencyQuery("item-b", on_module=("a", 1), run_id=run_ids[0]),
        ):
            assert remote.run(query) == local.run(query)

    def test_run_many_and_compiled_plan(self, served):
        _, run_ids, _, client = served
        session = client.session()
        queries = [
            PointQuery(("a", 1), ("h", 1), run_id=run_ids[0]),
            DownstreamQuery(("a", 1), run_id=run_ids[0]),
        ]
        first, second = session.run_many(queries)
        plan = session.compile(queries[0])
        assert plan.execute() == first
        assert session.run(queries[1]) == second

    def test_remote_session_rejects_non_queries(self, served):
        _, _, _, client = served
        with pytest.raises(QueryPlanError):
            client.session().run(object())
        with pytest.raises(QueryPlanError):
            client.session().compile("nope")

    def test_missing_run_id_raises_before_any_round_trip(self, served):
        _, _, _, client = served
        with pytest.raises(QueryPlanError, match="needs a run_id"):
            client.session().run(PointQuery(("a", 1), ("h", 1)))


class TestErrorHandling:
    def test_store_errors_are_recoverable(self, served):
        _, run_ids, _, client = served
        session = client.session()
        with pytest.raises(StorageError):
            session.run(PointQuery(("a", 1), ("h", 1), run_id=999_999))
        # the connection survives a recoverable error
        assert session.run(PointQuery(("a", 1), ("h", 1), run_id=run_ids[0])) is True

    def test_error_class_is_rehydrated(self, served):
        _, _, _, client = served
        with pytest.raises(StorageError):
            client.session().run(PointQuery(("a", 1), ("h", 1), run_id=999_999))

    def test_unknown_opcode_is_fatal_not_a_hang(self, served):
        _, _, server, _ = served
        (response,) = _raw_exchange(server, [frame(bytes([255]))])
        assert response[0] == wire.STATUS_FATAL
        reader = Reader(response[1:])
        assert reader.str() == "ProtocolError"
        assert "opcode" in reader.str()

    @pytest.mark.parametrize(
        "opcode", [16, 17, 18], ids=["rebalance", "replicate", "routing"]
    )
    def test_retired_routing_opcodes_are_fatal(self, served, opcode):
        # protocol v4's REBALANCE/REPLICATE/ROUTING numbers are unassigned
        # in v5: such a frame ends its connection and the daemon serves on
        store, _, server, client = served
        assert opcode not in wire.OP_NAMES
        (response,) = _raw_exchange(
            server, [frame(bytes([opcode]) + Writer().put_str("spec").getvalue())]
        )
        assert response[0] == wire.STATUS_FATAL
        reader = Reader(response[1:])
        assert reader.str() == "ProtocolError"
        assert reader.str() == f"unknown opcode {opcode}"
        assert client.list_runs() == store.list_runs()

    def test_truncated_frame_is_fatal_not_a_hang(self, served):
        _, _, server, _ = served
        # announce 100 payload bytes, deliver 5, then half-close
        (response,) = _raw_exchange(
            server, [struct.pack("<I", 100) + b"\x01\x02\x03\x04\x05"]
        )
        assert response[0] == wire.STATUS_FATAL

    def test_oversized_announced_frame_is_fatal(self, served):
        _, _, server, _ = served
        (response,) = _raw_exchange(server, [struct.pack("<I", 0xFFFFFFFF)])
        assert response[0] == wire.STATUS_FATAL

    def test_malformed_op_body_is_fatal(self, served):
        _, _, server, _ = served
        # OP_POINT with a truncated body: the Reader hits the end mid-field
        (response,) = _raw_exchange(server, [frame(bytes([wire.OP_POINT, 1, 2]))])
        assert response[0] == wire.STATUS_FATAL

    def test_bad_batch_blob_is_fatal(self, served):
        _, _, server, _ = served
        (response,) = _raw_exchange(
            server, [frame(bytes([wire.OP_BATCH]) + b"not-a-workload")]
        )
        assert response[0] == wire.STATUS_FATAL

    def test_pipelined_requests_are_answered_in_order(self, served, paper_run):
        store, run_ids, server, _ = served
        vertices = paper_run.vertices()
        pairs = [(u, v) for u in vertices[:4] for v in vertices[:4]]
        local = ProvenanceSession(store)
        expected = [
            local.run(PointQuery(u, v, run_id=run_ids[0])) for u, v in pairs
        ]
        assert True in expected and False in expected  # order is observable
        frames = [
            frame(
                bytes([wire.OP_POINT])
                + Writer()
                .put_i64(run_ids[0])
                .put_str(u.module)
                .put_i64(u.instance)
                .put_str(v.module)
                .put_i64(v.instance)
                .getvalue()
            )
            for u, v in pairs
        ]
        # every request leaves in one write, before any answer is read;
        # the unknown opcode at the end is answered fatally after them all
        responses = _raw_exchange(
            server,
            [b"".join(frames) + frame(bytes([255]))],
            read_responses=len(pairs) + 1,
        )
        answers = []
        for response in responses[:-1]:
            assert response[0] == wire.STATUS_OK
            reader = Reader(response[1:])
            answers.append(reader.bool())
            reader.expect_end()
        assert answers == expected
        assert responses[-1][0] == wire.STATUS_FATAL

    def test_server_survives_a_fatal_connection(self, served):
        _, run_ids, server, client = served
        _raw_exchange(server, [frame(bytes([255]))])
        # existing and new connections keep working
        assert client.session().run(
            PointQuery(("a", 1), ("h", 1), run_id=run_ids[0])
        ) is True
        with RemoteStore(server.url) as fresh:
            assert fresh.list_runs() == client.list_runs()

    def test_closed_client_raises_cleanly(self, served):
        _, run_ids, server, _ = served
        client = RemoteStore(server.url)
        session = client.session()
        client.close()
        with pytest.raises(ProtocolError, match="closed"):
            session.run(PointQuery(("a", 1), ("h", 1), run_id=run_ids[0]))

    def test_connect_to_dead_server_raises(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(ProtocolError, match="could not connect"):
            RemoteStore(host="127.0.0.1", port=port, timeout=2.0)


class TestIngest:
    def test_immediate_ingest_returns_input_order_ids(
        self, served, paper_spec, paper_labeler
    ):
        store, _, _, client = served
        labeled = [
            paper_labeler.label_run(
                generate_run_with_size(
                    paper_spec, 20, seed=50 + index, name=f"pushed-{index}"
                ).run
            )
            for index in range(3)
        ]
        before = len(store.list_runs())
        run_ids = client.add_labeled_runs(labeled)
        assert len(run_ids) == 3
        names = {row["run_id"]: row["name"] for row in store.list_runs()}
        assert [names[run_id] for run_id in run_ids] == [
            "pushed-0",
            "pushed-1",
            "pushed-2",
        ]
        assert len(store.list_runs()) == before + 3
        # the ingested runs answer queries like locally stored ones
        local = ProvenanceSession(store)
        remote = client.session()
        anchor = labeled[0].run.vertices()[0]
        query = DownstreamQuery(anchor, run_id=run_ids[0])
        assert remote.run(query) == local.run(query)

    def test_buffered_ingest_flushes_on_request(
        self, served, paper_spec, paper_labeler
    ):
        store, _, _, client = served
        labeled = paper_labeler.label_run(
            generate_run_with_size(paper_spec, 20, seed=60, name="buffered").run
        )
        before = len(store.list_runs())
        # a faulted buffered ingest reconnects, and the daemon rightly
        # commits the closed connection's buffer: buffer without faults,
        # then flush under whatever plan is active
        with suppressed():
            assert client.ingest([labeled], flush=False) == []
            assert client.pending_ingest == 1
            assert len(store.list_runs()) == before  # not committed yet
        (run_id,) = client.flush()
        assert client.pending_ingest == 0
        assert any(row["run_id"] == run_id for row in store.list_runs())

    def test_auto_flush_at_threshold(self, tmp_path, paper_spec, paper_labeler):
        store = ShardedProvenanceStore(tmp_path / "auto", 2)
        labeled = [
            paper_labeler.label_run(
                generate_run_with_size(
                    paper_spec, 20, seed=70 + index, name=f"auto-{index}"
                ).run
            )
            for index in range(2)
        ]
        with ServerThread(store, ingest_flush_after=2) as server:
            with RemoteStore(server.url) as client:
                assert client.ingest([labeled[0]], flush=False) == []
                # the second entry fills the buffer: both commit, in order
                run_ids = client.ingest([labeled[1]], flush=False)
                assert len(run_ids) == 2
                names = {row["run_id"]: row["name"] for row in client.list_runs()}
                assert [names[run_id] for run_id in run_ids] == ["auto-0", "auto-1"]
        store.close()

    def test_a_rejected_flush_does_not_wedge_the_client(
        self, served, paper_spec, paper_labeler
    ):
        store, _, _, client = served
        # "served-1" is stored; this run takes its name with other content
        conflicting = paper_labeler.label_run(
            generate_run_with_size(paper_spec, 20, seed=90, name="served-1").run
        )
        fresh = paper_labeler.label_run(
            generate_run_with_size(paper_spec, 20, seed=91, name="r1").run
        )
        with pytest.raises(StorageError, match="'served-1'"):
            client.ingest([conflicting])
        # the server dropped the rejected entry, and so did the client
        assert client.pending_ingest == 0
        (run_id,) = client.ingest([fresh])
        names = {row["run_id"]: row["name"] for row in store.list_runs()}
        assert names[run_id] == "r1"
        assert list(names.values()).count("served-1") == 1

    def test_disconnect_flushes_buffered_ingest(
        self, served, paper_spec, paper_labeler
    ):
        store, _, server, _ = served
        labeled = paper_labeler.label_run(
            generate_run_with_size(paper_spec, 20, seed=80, name="orphaned").run
        )
        with RemoteStore(server.url) as writer:
            writer.ingest([labeled], flush=False)
        # the flush happens on the server's event-loop thread after
        # disconnect; observe it through a second client so all store
        # access stays on that thread
        with RemoteStore(server.url) as probe:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if any(row["name"] == "orphaned" for row in probe.list_runs()):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("buffered ingest was dropped at disconnect")


class TestConcurrencyAndShutdown:
    def test_concurrent_clients_are_bit_identical(self, served, paper_run):
        store, run_ids, server, _ = served
        local = ProvenanceSession(store)
        vertices = paper_run.vertices()
        pairs = [(u, v) for u in vertices[:4] for v in vertices[:4]]
        expected_batch = local.run(BatchQuery(pairs=pairs, run_id=run_ids[0]))
        expected_sweep = local.run(DownstreamQuery(("a", 1), run_id=run_ids[0]))
        failures = []

        def worker(index):
            try:
                with RemoteStore(server.url) as client:
                    session = client.session()
                    for _ in range(5):
                        got = session.run(BatchQuery(pairs=pairs, run_id=run_ids[0]))
                        if got != expected_batch:
                            raise AssertionError("batch diverged")
                        got = session.run(
                            DownstreamQuery(("a", 1), run_id=run_ids[0])
                        )
                        if got != expected_sweep:
                            raise AssertionError("sweep diverged")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures

    def test_queries_stay_consistent_during_ingest(
        self, served, paper_spec, paper_labeler, paper_run
    ):
        store, run_ids, server, client = served
        local = ProvenanceSession(store)
        expected = local.run(DownstreamQuery(("a", 1), run_id=run_ids[0]))
        labeled = [
            paper_labeler.label_run(
                generate_run_with_size(
                    paper_spec, 20, seed=90 + index, name=f"during-{index}"
                ).run
            )
            for index in range(4)
        ]

        def writer_worker():
            with RemoteStore(server.url) as writer:
                for item in labeled:
                    writer.add_labeled_run(item)

        thread = threading.Thread(target=writer_worker)
        thread.start()
        session = client.session()
        while thread.is_alive():
            assert session.run(
                DownstreamQuery(("a", 1), run_id=run_ids[0])
            ) == expected
        thread.join(timeout=60)
        names = {row["name"] for row in client.list_runs()}
        assert {f"during-{index}" for index in range(4)} <= names

    def test_clean_shutdown_answers_inflight_requests(
        self, tmp_path, paper_labeler, paper_run
    ):
        store = ShardedProvenanceStore(tmp_path / "drain", 2)
        (run_id,) = store.add_labeled_runs([paper_labeler.label_run(paper_run)])
        server = ServerThread(store).start()
        client = RemoteStore(server.url)
        session = client.session()
        expected = session.run(DownstreamQuery(("a", 1), run_id=run_id))
        answers, errors = [], []

        def hammer():
            try:
                for _ in range(200):
                    answers.append(
                        session.run(DownstreamQuery(("a", 1), run_id=run_id))
                    )
            except ProtocolError:
                # the server stopped accepting: fine, but never a hang and
                # never a wrong answer
                pass
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        # stop once requests are flowing; a faulted first request may spend
        # its retry backoff before any answer arrives
        deadline = time.monotonic() + 5
        while not answers and thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.005)
        server.stop()
        thread.join(timeout=60)
        assert not thread.is_alive(), "shutdown hung an inflight client"
        assert not errors
        assert answers and all(answer == expected for answer in answers)
        client.close()
        store.close()

    def test_stop_returns_with_an_idle_client_connected(
        self, tmp_path, paper_labeler, paper_run, caplog
    ):
        caplog.set_level(logging.WARNING, logger="asyncio")
        store = ProvenanceStore(tmp_path / "idle.db")
        store.add_labeled_run(paper_labeler.label_run(paper_run))
        server = ServerThread(store).start()
        client = RemoteStore(server.url)
        try:
            assert client.list_runs()
            _stop_in_time(server)
        finally:
            client.close()
        assert not _asyncio_errors(caplog)
        store.close()

    def test_stop_returns_when_a_client_stops_reading(
        self, tmp_path, paper_spec, paper_labeler, monkeypatch, caplog
    ):
        import repro.server.daemon as daemon

        monkeypatch.setattr(daemon, "DRAIN_GRACE_SECONDS", 0.5)
        caplog.set_level(logging.WARNING, logger="asyncio")
        store = ProvenanceStore(tmp_path / "stalled.db")
        run = generate_run_with_size(paper_spec, 2000, seed=3, name="wide").run
        run_id = store.add_labeled_run(paper_labeler.label_run(run))
        # everything is downstream of the source: ~26 KB per answer
        body = Writer().put_i64(run_id).put_bool(True).put_str("a").put_i64(1)
        wire.put_pushdown(body, None)
        sweep = frame(bytes([wire.OP_SWEEP]) + body.getvalue())
        server = ServerThread(store).start()
        with socket.socket() as sock:
            # a small receive window that is never read: the server's
            # responses back up until its drain() blocks
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(10)
            sock.connect((server.host, server.port))
            sock.sendall(_hello())
            _read_frame(sock)
            # ~26 MB of answers, more than the socket buffers hold
            sock.sendall(sweep * 1000)
            time.sleep(0.2)  # let the server block writing answers
            _stop_in_time(server)
        assert not _asyncio_errors(caplog)
        store.close()


class TestLifecycle:
    def test_server_takes_exactly_one_of_store_or_path(self, tmp_path):
        with pytest.raises(ValueError):
            ProvenanceServer()
        store = ProvenanceStore(tmp_path / "both.db")
        with pytest.raises(ValueError):
            ProvenanceServer(store, path=tmp_path / "other.db")
        with pytest.raises(ValueError):
            ProvenanceServer(store, ingest_flush_after=0)
        store.close()

    def test_path_owned_store_opens_and_closes_with_the_server(
        self, tmp_path, paper_labeler, paper_run
    ):
        path = tmp_path / "owned"
        with ServerThread(path=path, shards=2) as server:
            with RemoteStore(server.url) as client:
                client.add_labeled_run(paper_labeler.label_run(paper_run))
                assert client.sharded is True
        # the server closed its store on stop; the data is on disk and the
        # layout is reusable directly
        from repro.storage.sharded import open_store

        with open_store(path) as reopened:
            assert [row["name"] for row in reopened.list_runs()] == ["figure-3"]

    def test_caller_owned_store_stays_open_after_stop(
        self, tmp_path, paper_labeler, paper_run
    ):
        store = ShardedProvenanceStore(tmp_path / "kept", 2)
        store.add_labeled_runs([paper_labeler.label_run(paper_run)])
        with ServerThread(store):
            pass
        assert not store.closed
        assert len(store.list_runs()) == 1
        store.close()

    def test_cli_routes_repro_urls(self, served, capsys):
        from repro.cli import main

        _, run_ids, server, _ = served
        assert (
            main(
                [
                    "query",
                    "--database",
                    server.url,
                    "--run-id",
                    str(run_ids[0]),
                    "--source",
                    "a:1",
                    "--target",
                    "h:1",
                ]
            )
            == 0
        )
        assert "reaches" in capsys.readouterr().out
        assert (
            main(
                [
                    "sweep",
                    "--database",
                    server.url,
                    "--spec",
                    "paper-example",
                    "--source",
                    "a:1",
                    "--summary-only",
                ]
            )
            == 0
        )
        assert "swept" in capsys.readouterr().out

    def test_cli_pack_workload_rejects_remote_targets(self, served, capsys):
        from repro.cli import main

        _, _, server, _ = served
        assert (
            main(
                [
                    "pack-workload",
                    "--database",
                    server.url,
                    "--run-id",
                    "1",
                    "--pairs",
                    "-",
                    "--output",
                    "ignored.bin",
                ]
            )
            == 2
        )
        assert "interner" in capsys.readouterr().err
