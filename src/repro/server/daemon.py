"""The asyncio provenance daemon: ``open_store`` behind a TCP socket.

:class:`ProvenanceServer` fronts one provenance store — single-file or
sharded, exactly what :func:`repro.storage.sharded.open_store` returns —
with the length-prefixed binary protocol of
:mod:`repro.server.protocol`.  The design follows three rules:

* **The event-loop thread is the store thread.**  The store's caches
  (resident label columns, spec kernels) are plain dicts with no locking, so every store operation — queries, ingest
  flushes, opening the store when the server was given a path — runs
  inline on the one thread that runs the event loop.  Concurrency across
  connections comes from asyncio interleaving at the request boundary,
  not from racing the caches; the parallel machinery *inside* an
  operation (per-shard ingest commits, cross-run sweep chunks) still
  fans out, on threads that live only as long as that operation.  A long
  operation (an ingest flush, a cross-run sweep) holds up every other
  connection until it returns.
* **Per-connection session state.**  Each connection owns a
  :class:`~repro.api.ProvenanceSession` that lives as long as the
  connection; the store's resident runs and compiled ``SpecKernel``
  cache are shared by every connection and stay warm across requests —
  a monitoring client re-asking the same run pays its load once, like
  an in-process session would.  Ingest requests buffer per connection and
  flush through ``add_labeled_runs`` (the sharded store's concurrent
  per-shard commit path) when the client asks or the buffer reaches
  ``ingest_flush_after``; whatever is still buffered at disconnect is
  flushed then.  The daemon keeps no ingest identity of its own: a
  client replaying entries whose acknowledgment it lost gets the stored
  ids back from the store's ``(specification, name)`` key, which
  outlives connections and server restarts alike.
* **One coroutine per connection.**  It reads a frame, answers it,
  writes and drains the response, and only then reads the next frame:
  responses leave in request order, and a client that sends faster than
  it reads meets TCP backpressure, not a server-side queue.  A malformed
  or truncated frame gets a ``STATUS_FATAL`` error frame and the
  connection closes; store-level errors
  (:class:`~repro.exceptions.ReproError`) are reported recoverably and
  the connection lives on.  :meth:`ProvenanceServer.stop` stops
  accepting, closes every connection, lets each connection commit its
  buffered ingest, and closes a server-owned store before returning.

:class:`ServerThread` wraps the daemon in a background thread with its
own event loop for tests, examples and benches; the CLI's ``serve``
command runs :meth:`ProvenanceServer.serve_forever` in the foreground.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Any, Optional

from repro.faults import fault_point

from repro.api.queries import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    UpstreamQuery,
)
from repro.api.session import ProvenanceSession
from repro.api.workload import decode_pair_workload
from repro.exceptions import ProtocolError, ReproError
from repro.server import protocol as wire
from repro.server.protocol import Reader, Writer, frame

__all__ = [
    "ProvenanceServer",
    "ServerThread",
    "INGEST_FLUSH_AFTER_DEFAULT",
]

#: buffered ingest entries per connection before an automatic flush
INGEST_FLUSH_AFTER_DEFAULT = 32

#: how long stop() waits for closed connections' coroutines to finish
#: before it aborts their transports
DRAIN_GRACE_SECONDS = 10.0


class _Connection:
    """Everything one TCP connection owns on the server side."""

    def __init__(
        self, session: ProvenanceSession, writer: asyncio.StreamWriter
    ) -> None:
        self.session = session
        self.writer = writer
        #: the coroutine serving this connection; stop() awaits it
        self.task = asyncio.current_task()
        #: buffered (scheme, spec_json, run_json) ingest entries
        self.ingest_buffer: list[tuple[str, str, str]] = []
        #: labelers reused across this connection's ingest flushes
        self.labelers: dict[tuple[str, str], Any] = {}


class ProvenanceServer:
    """Serve one provenance store over the binary wire protocol.

    Every request runs on the event-loop thread, one connection's
    requests strictly in order (see the module docstring).

    Parameters
    ----------
    store:
        An already-open store (single-file or sharded).  The caller keeps
        ownership: :meth:`stop` will NOT close it.  Its connections must
        allow use from the event-loop thread, which
        :func:`repro.storage.database.connect` provides wherever the
        SQLite library is built serialized.
    path / shards:
        Alternatively, where to ``open_store``.  The store is then opened
        by :meth:`start` on the event-loop thread and closed by
        :meth:`stop`.
    host / port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    ingest_flush_after:
        The ingest buffer threshold.
    """

    def __init__(
        self,
        store: Any = None,
        *,
        path: Any = None,
        shards: Optional[int] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ingest_flush_after: int = INGEST_FLUSH_AFTER_DEFAULT,
    ) -> None:
        if (store is None) == (path is None):
            raise ValueError("ProvenanceServer takes exactly one of store or path")
        if ingest_flush_after < 1:
            raise ValueError(
                f"ingest_flush_after must be positive, got {ingest_flush_after}"
            )
        self._store = store
        self._owns_store = store is None
        self._path = path
        self._shards = shards
        self.host = host
        self.port = port
        self.ingest_flush_after = int(ingest_flush_after)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[_Connection] = set()
        self._stopped = False
        self._handlers = {
            wire.OP_HELLO: self._op_hello,
            wire.OP_POINT: self._op_point,
            wire.OP_BATCH: self._op_batch,
            wire.OP_BATCH_PAIRS: self._op_batch_pairs,
            wire.OP_SWEEP: self._op_sweep,
            wire.OP_CROSS_SWEEP: self._op_cross_sweep,
            wire.OP_CROSS_BATCH: self._op_cross_batch,
            wire.OP_DATA_DEP: self._op_data_dep,
            wire.OP_INGEST: self._op_ingest,
            wire.OP_FLUSH: self._op_flush,
            wire.OP_CACHE_STATS: self._op_cache_stats,
            wire.OP_STATISTICS: self._op_statistics,
            wire.OP_LIST_RUNS: self._op_list_runs,
            wire.OP_LIST_SPECS: self._op_list_specs,
            wire.OP_HEALTH: self._op_health,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Open a path-given store, bind, and start accepting.

        Returns the bound ``(host, port)``.
        """
        if self._store is None:
            from repro.storage.sharded import open_store

            self._store = open_store(self._path, shards=self._shards)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def url(self) -> str:
        return f"repro://{self.host}:{self.port}/"

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's foreground mode), then stop.

        Waits on a future of its own rather than
        ``asyncio.Server.serve_forever``, whose cancellation path awaits
        ``wait_closed()`` — since Python 3.12.1 that waits for every
        client to hang up before :meth:`stop` could close them.
        """
        if self._server is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, close every connection, release the store.

        Each connection's coroutine sees its transport close, commits its
        buffered ingest and ends; one still running after
        :data:`DRAIN_GRACE_SECONDS` (a peer that stopped reading keeps a
        closing transport's write buffer full) has its transport aborted
        and is awaited to its end too, so no buffer is left behind.  Only
        then does this wait for the listening server to close — since
        Python 3.12.1 that waits for every connection.  A server-owned
        store (opened from a path) is closed; a caller-provided store is
        left open for its owner.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
        for connection in self._connections:
            connection.writer.close()
        pending = {connection.task for connection in self._connections}
        if pending:
            _, pending = await asyncio.wait(pending, timeout=DRAIN_GRACE_SECONDS)
        if pending:
            for connection in self._connections:
                connection.writer.transport.abort()
            # an aborted transport wakes its coroutine's drain() at once
            await asyncio.wait(pending)
        if self._server is not None:
            await self._server.wait_closed()
        if self._owns_store and self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = _Connection(ProvenanceSession(self._store), writer)
        self._connections.add(state)
        try:
            # a connection accepted just before stop() starts after stop()
            # closed the others, and must not outlive it
            while not (self._stopped or writer.is_closing()):
                # an injected connection fault here takes the
                # (ConnectionError, OSError) path below: the connection
                # dies, buffered ingest still flushes in the finally
                fault_point("server.read")
                try:
                    prefix = await reader.readexactly(4)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        raise ProtocolError(
                            f"truncated frame length: got {len(exc.partial)} "
                            "of 4 prefix bytes"
                        ) from None
                    break  # clean EOF between frames
                length = wire.split_frame_length(prefix)
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    raise ProtocolError(
                        f"truncated frame: announced {length} payload bytes, "
                        f"got {len(exc.partial)}"
                    ) from None
                await self._send(writer, self._serve_one(state, payload))
        except ProtocolError as exc:
            try:
                await self._send(writer, _error_frame(wire.STATUS_FATAL, exc))
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            # the peer is gone, or an injected server.read/server.write
            # fault: close below so the client sees EOF now instead of
            # waiting out its timeout
            pass
        finally:
            self._connections.discard(state)
            writer.close()
            # disconnect: whatever ingest the client buffered but never
            # flushed is committed now, not dropped; no client is left to
            # hear of a store-level rejection
            try:
                self._flush_ingest(state)
            except ReproError:
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, response: bytes) -> None:
        fault_point("server.write")
        writer.write(response)
        await writer.drain()

    # ------------------------------------------------------------------
    # dispatch (event-loop thread)
    # ------------------------------------------------------------------
    def _serve_one(self, state: _Connection, payload: bytes) -> bytes:
        """Decode, execute and encode one request; returns the frame.

        A :class:`~repro.exceptions.ProtocolError` (a malformed request)
        propagates, because it ends the connection; every other error
        becomes a recoverable ``STATUS_ERROR`` frame.
        """
        try:
            reader = Reader(payload)
            opcode = reader.u8()
            handler = self._handlers.get(opcode)
            if handler is None:
                raise ProtocolError(f"unknown opcode {opcode}")
            body = handler(state, reader)
            return frame(bytes([wire.STATUS_OK]) + body)
        except ProtocolError:
            raise
        except Exception as exc:  # noqa: BLE001 - report, don't kill the daemon
            return _error_frame(wire.STATUS_ERROR, exc)

    # ------------------------------------------------------------------
    # op handlers (event-loop thread; Reader is positioned past the opcode)
    # ------------------------------------------------------------------
    def _op_hello(self, state: _Connection, reader: Reader) -> bytes:
        client_version = reader.u32()
        # version is checked before the end of the body, so an older
        # client's longer HELLO (v3-v5 appended a client id) gets the
        # mismatch message, not a trailing-bytes error
        if client_version != wire.PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: client speaks {client_version}, "
                f"server speaks {wire.PROTOCOL_VERSION}"
            )
        reader.expect_end()
        writer = Writer()
        writer.put_u32(wire.PROTOCOL_VERSION)
        writer.put_str(str(self._store.path))
        writer.put_bool(hasattr(self._store, "shard_count"))
        return writer.getvalue()

    def _op_point(self, state: _Connection, reader: Reader) -> bytes:
        run_id = reader.i64()
        source = (reader.str(), reader.i64())
        target = (reader.str(), reader.i64())
        reader.expect_end()
        answer = state.session.run(PointQuery(source, target, run_id=run_id))
        return Writer().put_bool(answer).getvalue()

    def _op_batch(self, state: _Connection, reader: Reader) -> bytes:
        # the body IS a binary pair workload: magic + run-id header + two
        # LE int64 handle columns, straight off disk or a client array
        try:
            run_id, source_ids, target_ids = decode_pair_workload(reader.rest())
        except ReproError as exc:
            raise ProtocolError(f"bad batch body: {exc}") from None
        answers = state.session.run(
            BatchQuery(source_ids=source_ids, target_ids=target_ids, run_id=run_id)
        )
        return Writer().put_bools(answers).getvalue()

    def _op_batch_pairs(self, state: _Connection, reader: Reader) -> bytes:
        run_id = reader.i64()
        count = reader.u32()
        pairs = [
            ((reader.str(), reader.i64()), (reader.str(), reader.i64()))
            for _ in range(count)
        ]
        reader.expect_end()
        answers = state.session.run(BatchQuery(pairs=pairs, run_id=run_id))
        return Writer().put_bools(answers).getvalue()

    def _op_sweep(self, state: _Connection, reader: Reader) -> bytes:
        run_id = reader.i64()
        downstream = reader.bool()
        execution = (reader.str(), reader.i64())
        pushdown = wire.read_pushdown(reader)
        reader.expect_end()
        query = (
            DownstreamQuery(execution, run_id=run_id, pushdown=pushdown)
            if downstream
            else UpstreamQuery(execution, run_id=run_id, pushdown=pushdown)
        )
        return Writer().put_executions(state.session.run(query)).getvalue()

    def _op_cross_sweep(self, state: _Connection, reader: Reader) -> bytes:
        specification = reader.str()
        execution = (reader.str(), reader.i64())
        direction = "downstream" if reader.bool() else "upstream"
        workers = wire.read_workers(reader)
        pushdown = wire.read_pushdown(reader)
        reader.expect_end()
        result = state.session.run(
            CrossRunQuery(
                specification,
                execution,
                direction,
                workers=workers,
                pushdown=pushdown,
            )
        )
        writer = Writer()
        wire.put_run_map_executions(writer, result.per_run)
        wire.put_skipped(writer, result.skipped_runs)
        return writer.getvalue()

    def _op_cross_batch(self, state: _Connection, reader: Reader) -> bytes:
        specification = reader.str()
        count = reader.u32()
        pairs = [
            ((reader.str(), reader.i64()), (reader.str(), reader.i64()))
            for _ in range(count)
        ]
        reader.expect_end()
        result = state.session.run(CrossRunBatchQuery(specification, pairs))
        writer = Writer()
        wire.put_run_map_bools(writer, result.per_run)
        wire.put_skipped(writer, result.skipped_runs)
        return writer.getvalue()

    def _op_data_dep(self, state: _Connection, reader: Reader) -> bytes:
        run_id = reader.i64()
        item = reader.str()
        on_module = reader.bool()
        if on_module:
            query = DataDependencyQuery(
                item, on_module=(reader.str(), reader.i64()), run_id=run_id
            )
        else:
            query = DataDependencyQuery(item, on_item=reader.str(), run_id=run_id)
        reader.expect_end()
        return Writer().put_bool(state.session.run(query)).getvalue()

    def _op_ingest(self, state: _Connection, reader: Reader) -> bytes:
        flush_requested = reader.bool()
        count = reader.u32()
        for _ in range(count):
            state.ingest_buffer.append((reader.str(), reader.str(), reader.str()))
        reader.expect_end()
        run_ids: list[int] = []
        flushed = flush_requested or (
            len(state.ingest_buffer) >= self.ingest_flush_after
        )
        if flushed:
            run_ids = self._flush_ingest(state)
        writer = Writer().put_bool(flushed).put_u32(len(run_ids))
        for run_id in run_ids:
            writer.put_i64(run_id)
        return writer.getvalue()

    def _op_flush(self, state: _Connection, reader: Reader) -> bytes:
        reader.expect_end()
        run_ids = self._flush_ingest(state)
        writer = Writer().put_u32(len(run_ids))
        for run_id in run_ids:
            writer.put_i64(run_id)
        return writer.getvalue()

    def _flush_ingest(self, state: _Connection) -> list[int]:
        """Label and commit the connection's buffered runs, in buffer order.

        The buffer is swapped out before anything is labeled, so an entry
        the store rejects is gone from the server either way.  Replays —
        a reconnecting client resending entries whose acknowledgment it
        never received — need no bookkeeping here: the store answers a run
        it already holds under the same specification and name with the
        stored id (:func:`repro.storage.store.insert_labeled_run`).
        """
        if not state.ingest_buffer:
            return []
        from repro.skeleton.skl import SkeletonLabeler
        from repro.workflow.serialization import (
            run_from_json,
            specification_from_json,
        )

        entries, state.ingest_buffer = state.ingest_buffer, []
        labeled = []
        for scheme, spec_json, run_json in entries:
            key = (scheme, spec_json)
            labeler = state.labelers.get(key)
            if labeler is None:
                spec = specification_from_json(spec_json)
                labeler = state.labelers[key] = SkeletonLabeler(spec, scheme)
            run = run_from_json(run_json, labeler.specification)
            labeled.append(labeler.label_run(run))
        add_many = getattr(self._store, "add_labeled_runs", None)
        if add_many is not None:
            # the sharded store's ingest service: per-shard sub-batches
            # commit concurrently, one thread per shard touched
            return list(add_many(labeled))
        return [self._store.add_labeled_run(item) for item in labeled]

    def _op_cache_stats(self, state: _Connection, reader: Reader) -> bytes:
        reader.expect_end()
        stats = dict(state.session.cache_stats())
        stats["server"] = {
            "connections": len(self._connections),
            "ingest_flush_after": self.ingest_flush_after,
            "ingest_buffered": len(state.ingest_buffer),
        }
        return Writer().put_str(json.dumps(stats, default=str)).getvalue()

    def _op_statistics(self, state: _Connection, reader: Reader) -> bytes:
        reader.expect_end()
        return Writer().put_str(json.dumps(self._store.statistics())).getvalue()

    def _op_list_runs(self, state: _Connection, reader: Reader) -> bytes:
        specification = reader.str() if reader.bool() else None
        reader.expect_end()
        runs = self._store.list_runs(specification)
        return Writer().put_str(json.dumps(runs)).getvalue()

    def _op_list_specs(self, state: _Connection, reader: Reader) -> bytes:
        reader.expect_end()
        specs = self._store.list_specifications()
        return Writer().put_str(json.dumps(specs)).getvalue()

    def _op_health(self, state: _Connection, reader: Reader) -> bytes:
        """Liveness report (protocol v3): shard reachability and counters.

        Runs on the event-loop thread like every other op — a wedged
        store operation therefore makes HEALTH hang too, which is exactly
        the signal a prober wants (the accept loop alone proving nothing).
        """
        reader.expect_end()
        store = self._store
        shard_stores = list(getattr(store, "_stores", None) or [store])
        reachable = 0
        for shard in shard_stores:
            try:
                shard._connection.execute("SELECT 1").fetchone()
                reachable += 1
            except Exception:  # noqa: BLE001 - any failure means unreachable
                pass
        health = {
            "status": "ok" if reachable == len(shard_stores) else "degraded",
            "protocol": wire.PROTOCOL_VERSION,
            "shards_total": len(shard_stores),
            "shards_reachable": reachable,
            "connections": len(self._connections),
            "ingest_buffered": len(state.ingest_buffer),
            "degraded": store.cache_stats().get("degraded", {}),
        }
        shards = store.cache_stats().get("shards")
        if isinstance(shards, dict):
            # the sharded store's skew table: per-shard spec and run
            # counts, file bytes and sweep hits — where the load sits
            health["shards"] = shards
        return Writer().put_str(json.dumps(health, default=str)).getvalue()


def _error_frame(status: int, exc: BaseException) -> bytes:
    writer = Writer()
    writer.put_u8(status)
    writer.put_str(type(exc).__name__)
    writer.put_str(str(exc))
    return frame(writer.getvalue())


class ServerThread:
    """A daemon running on a background thread with its own event loop.

    The convenience wrapper tests, examples and the throughput bench use::

        with ServerThread(path=db_path) as server:
            store = RemoteStore(server.url)
            ...

    ``stop()`` (or leaving the ``with`` block) performs the daemon's
    clean shutdown — connections close, and their buffered ingest is
    committed before the store is released.
    """

    def __init__(self, store: Any = None, **server_kwargs: Any) -> None:
        self._server = ProvenanceServer(store, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return self._server.url

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            await self._server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        await self._shutdown.wait()
        await self._server.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
