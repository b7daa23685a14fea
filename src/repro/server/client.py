"""The blocking provenance client: a store/session duck type over TCP.

:class:`RemoteStore` connects to a :class:`~repro.server.daemon.ProvenanceServer`
and exposes the slice of the store surface the CLI and examples rely on
(``session()``, ``list_runs``, ``statistics``, ``add_labeled_run(s)``,
``close``); :class:`RemoteSession` mirrors the
:class:`~repro.api.ProvenanceSession` duck type — ``run`` / ``run_many`` /
``compile`` / ``cache_stats`` / ``target_kind`` — so code written against
an in-process session runs unchanged against ``repro://host:port/``
targets.  Answers are **bit-identical** to an in-process session over the
same store: the session state lives server-side, pinned to this
connection, and the store's resident runs and compiled kernels are the
server's.

Batch queries take the fast lane: a handle-native
:class:`~repro.api.BatchQuery` is encoded with
:func:`repro.api.workload.encode_pair_workload` — the same bytes a packed
workload file holds — so the server replays it with zero parsing.

The client is deliberately blocking (one request, one response, a lock
around the pair): the concurrency story is many clients, not many
threads sharing one socket.  Ingest can be buffered server-side
(:meth:`RemoteStore.ingest` with ``flush=False``); the server commits
through ``add_labeled_runs`` when the buffer fills, on an explicit
:meth:`RemoteStore.flush`, or at disconnect.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Any, Callable, Iterable, Optional, Sequence
from urllib.parse import urlsplit

import repro.exceptions as _exceptions
from repro.exceptions import CircuitOpenError
from repro.faults import fault_point
from repro.api.queries import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunBatchResult,
    CrossRunPointQuery,
    CrossRunPointResult,
    CrossRunQuery,
    CrossRunSweepResult,
    DataDependencyQuery,
    DownstreamQuery,
    PointQuery,
    UpstreamQuery,
)
from repro.api.workload import encode_pair_workload
from repro.exceptions import ProtocolError, QueryPlanError, ReproError
from repro.server import protocol as wire
from repro.server.protocol import Reader, Writer, frame
from repro.workflow.run import RunVertex

__all__ = ["RemoteStore", "RemoteSession", "parse_url", "is_remote_target"]


def is_remote_target(target: Any) -> bool:
    """Whether a ``--database`` argument names a server, not a file."""
    return isinstance(target, str) and target.startswith("repro://")


def parse_url(url: str) -> tuple[str, int]:
    """Split ``repro://host[:port]/`` into ``(host, port)``."""
    parts = urlsplit(url)
    if parts.scheme != "repro" or not parts.hostname:
        raise ProtocolError(
            f"not a provenance server URL: {url!r} (expected repro://host:port/)"
        )
    return parts.hostname, parts.port or wire.DEFAULT_PORT


def _as_execution(value: Any) -> tuple:
    """The session's endpoint coercion, applied before encoding."""
    if isinstance(value, RunVertex):
        return (value.module, value.instance)
    return (str(value[0]), int(value[1]))


class _TransportError(ProtocolError):
    """The connection died mid-exchange (EOF before a complete response).

    Internal retry classification: unlike a server-reported error, the
    request may or may not have executed, so only exchanges that are
    idempotent on replay go through the retry loop that catches this:
    every query, and ingest, whose replayed runs the store answers with
    their stored ids.
    """


class _ConnectError(ProtocolError):
    """TCP connect (or the HELLO exchange's transport) failed; retryable."""


class RemoteStore:
    """One TCP connection to a provenance daemon, store-shaped.

    Accepts a ``repro://host:port/`` URL or an explicit host/port pair.
    The HELLO handshake pins the protocol version at connect time.

    Fault tolerance: a transport failure — refused connect, dropped
    connection, truncated response, socket timeout — triggers up to
    *retries* transparent re-attempts with bounded exponential backoff
    and jitter; each attempt reconnects and re-runs the HELLO handshake
    if needed.  Every retried operation is idempotent on replay: queries
    are read-only, and the store answers a replayed ingest entry — a run
    it already holds under the same specification and name, with the
    same content and scheme — with the stored id, so a flush whose
    acknowledgment was lost can never double-insert, even across a
    server restart.  After
    *breaker_threshold* consecutive exhausted exchanges the circuit
    breaker opens and requests fast-fail with
    :class:`~repro.exceptions.CircuitOpenError` for *breaker_reset*
    seconds; the first request after that probes the server (half-open)
    and either closes the breaker or re-opens it.  :attr:`fault_stats`
    counts retries, reconnects, transport errors and breaker trips.
    """

    def __init__(
        self,
        url: Optional[str] = None,
        *,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 30.0,
        retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        retry_seed: Optional[int] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
    ) -> None:
        if url is not None:
            host, port = parse_url(url)
        elif host is None:
            raise ProtocolError("RemoteStore needs a repro:// URL or a host")
        port = wire.DEFAULT_PORT if port is None else int(port)
        self.host, self.port = host, port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_reset = float(breaker_reset)
        self._rng = random.Random(retry_seed)
        self._lock = threading.Lock()
        self._closed = False
        self._socket: Optional[socket.socket] = None
        #: (scheme, spec_json, run_json) entries not yet acknowledged as
        #: flushed; replayed after a reconnect
        self._unflushed: list[tuple[str, str, str]] = []
        #: how many leading _unflushed entries the live connection already
        #: buffered server-side (0 after every reconnect, so the rebuild
        #: closure resends what a dead connection may have lost)
        self._delivered = 0
        self._consecutive_failures = 0
        self._breaker_open_until = 0.0
        self._connects = 0
        #: lifetime fault-handling counters (observable, like cache_stats)
        self.fault_stats = {
            "retries": 0,
            "reconnects": 0,
            "transport_errors": 0,
            "breaker_opens": 0,
            "circuit_rejections": 0,
        }
        with self._lock:
            last: Optional[BaseException] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    self.fault_stats["retries"] += 1
                    time.sleep(self._backoff(attempt))
                try:
                    self._connect_locked()
                    break
                except (_ConnectError, _TransportError, OSError) as exc:
                    self.fault_stats["transport_errors"] += 1
                    self._drop_socket()
                    last = exc
            else:
                if isinstance(last, ProtocolError):
                    raise last
                raise ProtocolError(
                    f"could not connect to provenance server at "
                    f"{host}:{port}: {last}"
                ) from last
        self._session: Optional[RemoteSession] = None

    # ------------------------------------------------------------------
    # the wire round trip
    # ------------------------------------------------------------------
    def _request(self, opcode: int, body: bytes = b"") -> Reader:
        """One request/response exchange; returns a Reader over the answer."""
        return self._exchange(opcode, lambda: body)

    def _exchange(self, opcode: int, rebuild: Callable[[], bytes]) -> Reader:
        """The retrying request loop shared by every operation.

        *rebuild* produces the request body per attempt — ingest uses it
        to include exactly the entries not yet delivered over the current
        connection, so a replay after reconnect resends what the dead
        connection may have lost and nothing else.
        """
        with self._lock:
            if self._closed:
                raise ProtocolError("client connection is closed")
            self._check_breaker_locked()
            last: Optional[BaseException] = None
            response: Optional[bytes] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    self.fault_stats["retries"] += 1
                    time.sleep(self._backoff(attempt))
                try:
                    if self._socket is None:
                        self._connect_locked()
                    payload = bytes([opcode]) + rebuild()
                    fault_point("client.send")
                    self._socket.sendall(frame(payload))
                    response = self._read_frame()
                    break
                except (_ConnectError, _TransportError, OSError) as exc:
                    self.fault_stats["transport_errors"] += 1
                    self._drop_socket()
                    last = exc
            if response is None:
                self._note_failure_locked()
                if isinstance(last, ProtocolError):
                    raise last
                raise ProtocolError(
                    f"connection to {self.host}:{self.port} failed: {last}"
                ) from last
            # any complete response frame proves the server reachable
            self._consecutive_failures = 0
        reader = Reader(response)
        status = reader.u8()
        if status == wire.STATUS_OK:
            return reader
        error_class = reader.str()
        message = reader.str()
        with self._lock:
            if status == wire.STATUS_FATAL:
                # the server is about to close the connection; drop the
                # socket (the next request reconnects — the client object
                # stays usable)
                self._drop_socket()
            elif opcode == wire.OP_INGEST:
                # the server swapped its ingest buffer out before labeling
                # it: a rejected flush leaves nothing to resend
                self._unflushed.clear()
                self._delivered = 0
        raise _rebuild_error(error_class, message)

    def _connect_locked(self) -> None:
        """Connect and complete the HELLO handshake (under the lock)."""
        try:
            self._socket = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            self._socket = None
            raise _ConnectError(
                f"could not connect to provenance server at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._delivered = 0
        if self._connects:
            self.fault_stats["reconnects"] += 1
        self._connects += 1
        hello = Writer().put_u32(wire.PROTOCOL_VERSION).getvalue()
        try:
            self._socket.sendall(frame(bytes([wire.OP_HELLO]) + hello))
            response = self._read_frame()
        except OSError as exc:
            self._drop_socket()
            raise _ConnectError(
                f"could not connect to provenance server at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        reader = Reader(response)
        status = reader.u8()
        if status != wire.STATUS_OK:
            error_class = reader.str()
            message = reader.str()
            self._drop_socket()
            # a handshake rejection (e.g. version mismatch) is permanent,
            # not transient: _rebuild_error yields a plain ProtocolError,
            # which the retry loop deliberately does not catch
            raise _rebuild_error(error_class, message)
        self.server_protocol = reader.u32()
        #: the server-side store path (so ``store.path`` reads sensibly)
        self.path = f"repro://{self.host}:{self.port}{reader.str()}"
        self.sharded = reader.bool()

    def _backoff(self, attempt: int) -> float:
        """Bounded exponential backoff with jitter before attempt *attempt*."""
        base = min(self.backoff_max, self.backoff_base * (2 ** (attempt - 1)))
        return base * (0.5 + self._rng.random() / 2)

    def _check_breaker_locked(self) -> None:
        if self._breaker_open_until <= 0:
            return
        now = time.monotonic()
        if now < self._breaker_open_until:
            self.fault_stats["circuit_rejections"] += 1
            raise CircuitOpenError(
                f"circuit breaker open for {self.host}:{self.port} after "
                f"{self._consecutive_failures} consecutive failures; "
                f"retrying in {self._breaker_open_until - now:.2f}s"
            )
        # half-open: this request probes the server; failure re-opens
        self._breaker_open_until = 0.0

    def _note_failure_locked(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.breaker_threshold:
            self._breaker_open_until = time.monotonic() + self.breaker_reset
            self.fault_stats["breaker_opens"] += 1

    def _read_frame(self) -> bytes:
        fault_point("client.recv")
        prefix = self._read_exactly(4)
        return self._read_exactly(wire.split_frame_length(prefix))

    def _read_exactly(self, count: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < count:
            chunk = self._socket.recv(count - len(chunks))
            if not chunk:
                raise _TransportError(
                    "server closed the connection mid-response "
                    f"({len(chunks)} of {count} bytes)"
                )
            chunks += chunk
        return bytes(chunks)

    def _drop_socket(self) -> None:
        """Close the socket without closing the client (reconnects later)."""
        sock, self._socket = self._socket, None
        self._delivered = 0
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters twice
                pass

    def close(self) -> None:
        """Close the connection (flushing any server-side ingest buffer)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._drop_socket()

    def __enter__(self) -> "RemoteStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "connected"
        return f"RemoteStore({self.path!r}, {state})"

    # ------------------------------------------------------------------
    # the store surface
    # ------------------------------------------------------------------
    def session(self) -> "RemoteSession":
        """The connection's query session (state lives server-side)."""
        if self._session is None:
            self._session = RemoteSession(self)
        return self._session

    def list_runs(self, specification: Optional[str] = None) -> list[dict]:
        """Summaries of stored runs, optionally filtered by specification."""
        writer = Writer().put_bool(specification is not None)
        if specification is not None:
            writer.put_str(specification)
        return json.loads(self._request(wire.OP_LIST_RUNS, writer.getvalue()).str())

    def list_specifications(self) -> list[dict]:
        """Summaries of every stored specification."""
        return json.loads(self._request(wire.OP_LIST_SPECS).str())

    def statistics(self) -> dict:
        """Row counts per table on the server's store."""
        return json.loads(self._request(wire.OP_STATISTICS).str())

    def cache_stats(self) -> dict:
        """The server-side session/store cache statistics."""
        return json.loads(self._request(wire.OP_CACHE_STATS).str())

    def health(self) -> dict:
        """The server's HEALTH report: shard reachability and counters (v3)."""
        return json.loads(self._request(wire.OP_HEALTH).str())

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, labeled_runs: Iterable[Any], *, flush: bool = True) -> list[int]:
        """Ship labeled runs to the server's per-connection ingest buffer.

        With ``flush=True`` (the default) the buffer — these runs plus
        anything previously buffered — commits now and the assigned run
        ids come back in buffer order.  With ``flush=False`` the server
        holds them until the buffer reaches its threshold, an explicit
        :meth:`flush`, or disconnect; the returned list is then empty
        unless this request tripped the automatic flush.

        A reconnect mid exchange replays the unacknowledged entries, and
        the store answers each run it already holds under the same
        specification and name with the stored id, so no disconnect
        ordering can drop or double-insert a run.  A run whose name is
        taken by a different run (other content or scheme, or a stored
        run since relabeled) raises
        :class:`~repro.exceptions.StorageError`; the rejected flush is
        dropped on both sides, so later ingests are unaffected.
        """
        from repro.workflow.serialization import run_to_json, specification_to_json

        encoded = []
        for labeled in labeled_runs:
            encoded.append(
                (
                    labeled.spec_index.scheme_name,
                    specification_to_json(labeled.run.specification),
                    run_to_json(labeled.run),
                )
            )
        with self._lock:
            self._unflushed.extend(encoded)
        return self._ingest_exchange(flush)

    def _ingest_exchange(self, flush: bool) -> list[int]:
        """One INGEST round trip covering every unacknowledged entry."""

        sent = 0

        def rebuild() -> bytes:
            # runs under the exchange lock, once per attempt: after a
            # reconnect _delivered is 0, so everything unflushed — including
            # what the dead connection buffered — ships again, and the store
            # answers the runs that already committed with their ids
            nonlocal sent
            sent = len(self._unflushed)
            fresh = self._unflushed[self._delivered : sent]
            writer = Writer().put_bool(flush).put_u32(len(fresh))
            for scheme, spec_json, run_json in fresh:
                writer.put_str(scheme).put_str(spec_json).put_str(run_json)
            return writer.getvalue()

        reader = self._exchange(wire.OP_INGEST, rebuild)
        flushed = reader.bool()
        run_ids = [reader.i64() for _ in range(reader.u32())]
        with self._lock:
            if flushed:
                del self._unflushed[:sent]
                self._delivered = 0
            else:
                self._delivered = sent
        return run_ids

    def flush(self) -> list[int]:
        """Commit the server-side ingest buffer; returns the new run ids.

        Routed through INGEST with zero new entries, so entries a dead
        connection buffered but never committed ride along (the store
        answers any that its disconnect-flush already committed with
        their stored ids).
        """
        return self._ingest_exchange(True)

    def add_labeled_runs(self, labeled_runs: Iterable[Any]) -> list[int]:
        """Store many labeled runs (synchronous: commits before returning).

        Any previously buffered ingest flushes first so the returned ids
        correspond to *labeled_runs* alone, in input order.
        """
        if self._unflushed:
            self.flush()
        return self.ingest(labeled_runs, flush=True)

    def add_labeled_run(self, labeled: Any) -> int:
        """Store one labeled run and return its id."""
        return self.add_labeled_runs([labeled])[0]

    @property
    def pending_ingest(self) -> int:
        """Client-side count of runs buffered but not yet flushed."""
        return len(self._unflushed)


class _RemotePlan:
    """The compile-once handle of the remote session (re-sends on execute)."""

    def __init__(self, session: "RemoteSession", query: Any) -> None:
        self.session = session
        self.query = query

    def execute(self):
        return self.session.run(self.query)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_RemotePlan(query={self.query!r})"


class RemoteSession:
    """The :class:`~repro.api.ProvenanceSession` duck type over the wire.

    Each declarative query maps to one protocol op; the server answers it
    through a real per-connection session, so resident runs and kernel
    state accumulate exactly as they would in-process.  ``compile`` returns a
    plan that re-sends the query — the expensive compiled state the plan
    represents lives (and persists) server-side.
    """

    target_kind = "store"

    def __init__(self, store: RemoteStore) -> None:
        self._store = store

    def run(self, query: Any):
        """Execute one declarative query on the server."""
        runner = self._RUNNERS.get(type(query))
        if runner is None:
            raise QueryPlanError(
                f"not a declarative query object: {type(query).__name__!r}"
            )
        return runner(self, query)

    def run_many(self, queries: Iterable[Any]) -> list:
        """Execute several queries in order (one round trip each)."""
        return [self.run(query) for query in queries]

    def compile(self, query: Any) -> _RemotePlan:
        """A reusable plan; the compiled state it reuses lives server-side."""
        if type(query) not in self._RUNNERS:
            raise QueryPlanError(
                f"not a declarative query object: {type(query).__name__!r}"
            )
        return _RemotePlan(self, query)

    def cache_stats(self) -> dict:
        """The server-side session statistics for this connection."""
        return self._store.cache_stats()

    # ------------------------------------------------------------------
    # per-query encoders
    # ------------------------------------------------------------------
    def _require_run_id(self, query: Any) -> int:
        if query.run_id is None:
            raise QueryPlanError(
                f"{type(query).__name__} against a store-backed session "
                "needs a run_id"
            )
        return int(query.run_id)

    def _run_point(self, query: PointQuery) -> bool:
        writer = Writer().put_i64(self._require_run_id(query))
        for module, instance in (
            _as_execution(query.source),
            _as_execution(query.target),
        ):
            writer.put_str(module).put_i64(instance)
        return self._store._request(wire.OP_POINT, writer.getvalue()).bool()

    def _run_batch(self, query: BatchQuery) -> list[bool]:
        run_id = self._require_run_id(query)
        if query.handle_native:
            # the zero-parse lane: the body is a pair-workload blob
            body = encode_pair_workload(
                query.source_ids, query.target_ids, run_id=run_id
            )
            return self._store._request(wire.OP_BATCH, body).bools()
        writer = Writer().put_i64(run_id).put_u32(len(query.pairs))
        for source, target in query.pairs:
            for module, instance in (_as_execution(source), _as_execution(target)):
                writer.put_str(module).put_i64(instance)
        return self._store._request(wire.OP_BATCH_PAIRS, writer.getvalue()).bools()

    def _run_sweep(self, query: Any, *, downstream: bool) -> list[tuple]:
        module, instance = _as_execution(query.execution)
        writer = (
            Writer()
            .put_i64(self._require_run_id(query))
            .put_bool(downstream)
            .put_str(module)
            .put_i64(instance)
        )
        wire.put_pushdown(writer, query.pushdown)
        return self._store._request(wire.OP_SWEEP, writer.getvalue()).executions()

    def _run_cross_sweep(self, query: CrossRunQuery) -> CrossRunSweepResult:
        anchor = _as_execution(query.execution)
        writer = Writer().put_str(query.specification)
        writer.put_str(anchor[0]).put_i64(anchor[1])
        writer.put_bool(query.direction == "downstream")
        wire.put_workers(writer, query.workers)
        wire.put_pushdown(writer, query.pushdown)
        reader = self._store._request(wire.OP_CROSS_SWEEP, writer.getvalue())
        return CrossRunSweepResult(
            specification=query.specification,
            execution=anchor,
            direction=query.direction,
            per_run=wire.read_run_map_executions(reader),
            skipped_runs=wire.read_skipped(reader),
        )

    def _cross_batch_round_trip(
        self, specification: str, pairs: Sequence[tuple]
    ) -> tuple[dict, list[int]]:
        writer = Writer().put_str(specification).put_u32(len(pairs))
        for source, target in pairs:
            for module, instance in (source, target):
                writer.put_str(module).put_i64(instance)
        reader = self._store._request(wire.OP_CROSS_BATCH, writer.getvalue())
        return wire.read_run_map_bools(reader), wire.read_skipped(reader)

    def _run_cross_batch(self, query: CrossRunBatchQuery) -> CrossRunBatchResult:
        pairs = [
            (_as_execution(source), _as_execution(target))
            for source, target in query.pairs
        ]
        per_run, skipped = self._cross_batch_round_trip(query.specification, pairs)
        return CrossRunBatchResult(
            specification=query.specification,
            pairs=pairs,
            per_run=per_run,
            skipped_runs=skipped,
        )

    def _run_cross_point(self, query: CrossRunPointQuery) -> CrossRunPointResult:
        # mirrors the in-process plan: a single-pair cross-run batch
        source = _as_execution(query.source)
        target = _as_execution(query.target)
        per_run, skipped = self._cross_batch_round_trip(
            query.specification, [(source, target)]
        )
        return CrossRunPointResult(
            specification=query.specification,
            source=source,
            target=target,
            per_run={run_id: bool(answers[0]) for run_id, answers in per_run.items()},
            skipped_runs=skipped,
        )

    def _run_data_dep(self, query: DataDependencyQuery) -> bool:
        writer = Writer().put_i64(self._require_run_id(query)).put_str(query.item)
        if query.on_module is not None:
            module, instance = _as_execution(query.on_module)
            writer.put_bool(True).put_str(module).put_i64(instance)
        else:
            writer.put_bool(False).put_str(query.on_item)
        return self._store._request(wire.OP_DATA_DEP, writer.getvalue()).bool()

    _RUNNERS = {
        PointQuery: _run_point,
        BatchQuery: _run_batch,
        DownstreamQuery: lambda self, query: self._run_sweep(query, downstream=True),
        UpstreamQuery: lambda self, query: self._run_sweep(query, downstream=False),
        CrossRunQuery: _run_cross_sweep,
        CrossRunBatchQuery: _run_cross_batch,
        CrossRunPointQuery: _run_cross_point,
        DataDependencyQuery: _run_data_dep,
    }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteSession(over {self._store.path!r})"


def _rebuild_error(error_class: str, message: str) -> ReproError:
    """Rehydrate a server-reported error as the matching local exception."""
    candidate = getattr(_exceptions, error_class, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        try:
            return candidate(message)
        except TypeError:  # pragma: no cover - exotic constructor signatures
            pass
    return ReproError(f"{error_class}: {message}")

