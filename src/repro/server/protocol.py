"""The provenance wire protocol: framing and request/response codecs.

Everything on the wire is a **frame**: a 4-byte little-endian unsigned
length followed by that many payload bytes (length excludes itself,
:data:`MAX_FRAME_BYTES` bounds it so a garbage peer cannot make the
server buffer gigabytes).  A request payload is one opcode byte plus an
op-specific body; a response payload is one status byte
(:data:`STATUS_OK` / :data:`STATUS_ERROR` / :data:`STATUS_FATAL`) plus
either the op's answer or an error record (exception class name +
message).  ``STATUS_ERROR`` keeps the connection usable — the store
rejected the operation, not the peer; ``STATUS_FATAL`` means the peer
violated the protocol and the connection closes after the frame.

Scalar encodings match the binary pair-workload format next door
(:mod:`repro.api.workload`): integers are little-endian signed 64-bit,
strings are a u32 byte length plus UTF-8, booleans one byte each.  The
**batch** op goes further and reuses that format outright — its request
body *is* a pair-workload blob (magic, run-id header, two interleaved
LE int64 handle columns), so a workload packed on disk replays over a
connection with zero re-encoding and zero parsing beyond the header.

The codec helpers here are shared by the asyncio daemon
(:mod:`repro.server.daemon`) and the blocking client
(:mod:`repro.server.client`); keeping both sides on one set of
functions is what makes the bit-identical answer guarantee testable.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from repro.exceptions import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_FATAL",
    "OP_HELLO",
    "OP_POINT",
    "OP_BATCH",
    "OP_BATCH_PAIRS",
    "OP_SWEEP",
    "OP_CROSS_SWEEP",
    "OP_CROSS_BATCH",
    "OP_DATA_DEP",
    "OP_INGEST",
    "OP_FLUSH",
    "OP_CACHE_STATS",
    "OP_STATISTICS",
    "OP_LIST_RUNS",
    "OP_LIST_SPECS",
    "OP_HEALTH",
    "OP_NAMES",
    "Writer",
    "Reader",
    "frame",
    "split_frame_length",
]

#: bumped on any incompatible change; exchanged in the HELLO handshake.
#: Version 2 appends a pushdown-mode byte to the SWEEP and CROSS_SWEEP
#: request bodies (see :func:`put_pushdown`).
#: Version 3 adds fault tolerance: the HELLO request carries a client id
#: string after the version, every INGEST entry is prefixed with an i64
#: sequence token (the server deduplicated a client's tokens in memory, so
#: a reconnecting client could replay unacknowledged entries), and the
#: HEALTH op reports shard reachability and pool liveness.
#: Version 4 adds the shard routing subsystem: the REBALANCE, REPLICATE
#: and ROUTING maintenance opcodes (sharded stores only), and the HEALTH
#: report gains the per-shard skew table (spec/run counts, file bytes,
#: sweep hits, replicas) from ``cache_stats()["shards"]``.
#: Version 5 deletes the routing subsystem: opcodes 16-18 are gone (1-15
#: keep their numbers), and the HEALTH skew rows lose their ``replicas``
#: and ``routed_specs`` fields.
#: Version 6 moves ingest idempotence into the store, whose
#: ``(specification, name)`` key answers a replayed run with its stored
#: id: the HELLO request carries only the version, an INGEST entry is
#: three strings (scheme, spec, run) with no sequence token, and
#: CROSS_BATCH loses its ``workers`` slot, which had no effect.
PROTOCOL_VERSION = 6

#: default TCP port of ``repro-provenance serve`` and ``repro://`` URLs
DEFAULT_PORT = 9763

#: hard per-frame ceiling — larger announced lengths are a protocol error
MAX_FRAME_BYTES = 64 * 1024 * 1024

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_FATAL = 2

(
    OP_HELLO,
    OP_POINT,
    OP_BATCH,
    OP_BATCH_PAIRS,
    OP_SWEEP,
    OP_CROSS_SWEEP,
    OP_CROSS_BATCH,
    OP_DATA_DEP,
    OP_INGEST,
    OP_FLUSH,
    OP_CACHE_STATS,
    OP_STATISTICS,
    OP_LIST_RUNS,
    OP_LIST_SPECS,
    OP_HEALTH,
) = range(1, 16)

#: opcode -> display name (error messages and the bench's op mix report)
OP_NAMES = {
    OP_HELLO: "hello",
    OP_POINT: "point",
    OP_BATCH: "batch",
    OP_BATCH_PAIRS: "batch-pairs",
    OP_SWEEP: "sweep",
    OP_CROSS_SWEEP: "cross-sweep",
    OP_CROSS_BATCH: "cross-batch",
    OP_DATA_DEP: "data-dep",
    OP_INGEST: "ingest",
    OP_FLUSH: "flush",
    OP_CACHE_STATS: "cache-stats",
    OP_STATISTICS: "statistics",
    OP_LIST_RUNS: "list-runs",
    OP_LIST_SPECS: "list-specs",
    OP_HEALTH: "health",
}

_LEN = struct.Struct("<I")
_I64 = struct.Struct("<q")


def frame(payload: bytes) -> bytes:
    """Wrap *payload* in its length prefix (the unit everything ships as)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return _LEN.pack(len(payload)) + payload


def split_frame_length(prefix: bytes) -> int:
    """Decode and validate one 4-byte length prefix."""
    if len(prefix) != 4:
        raise ProtocolError(
            f"truncated frame length: got {len(prefix)} of 4 prefix bytes"
        )
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return length


class Writer:
    """Builds one payload; every ``put_*`` matches a ``Reader`` getter."""

    def __init__(self) -> None:
        self._parts = bytearray()

    def put_u8(self, value: int) -> "Writer":
        self._parts.append(value & 0xFF)
        return self

    def put_bool(self, value: bool) -> "Writer":
        return self.put_u8(1 if value else 0)

    def put_u32(self, value: int) -> "Writer":
        self._parts += _LEN.pack(value)
        return self

    def put_i64(self, value: int) -> "Writer":
        self._parts += _I64.pack(int(value))
        return self

    def put_str(self, value: str) -> "Writer":
        encoded = value.encode("utf-8")
        self.put_u32(len(encoded))
        self._parts += encoded
        return self

    def put_raw(self, value: bytes) -> "Writer":
        """Append bytes with no length prefix (trailing blobs like workloads)."""
        self._parts += value
        return self

    def put_bools(self, values: Sequence[bool]) -> "Writer":
        self.put_u32(len(values))
        self._parts += bytes(1 if value else 0 for value in values)
        return self

    def put_executions(self, executions: Sequence[tuple]) -> "Writer":
        """A counted list of ``(module, instance)`` executions."""
        self.put_u32(len(executions))
        parts = self._parts
        pack_i64 = _I64.pack
        # answers repeat few module names over many rows: encode each
        # distinct name and its length prefix once per list
        headers: dict = {}
        for module, instance in executions:
            header = headers.get(module)
            if header is None:
                encoded = str(module).encode("utf-8")
                header = headers[module] = _LEN.pack(len(encoded)) + encoded
            parts += header
            parts += pack_i64(int(instance))
        return self

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class Reader:
    """Pulls typed values off one payload; truncation is a protocol error."""

    def __init__(self, payload: bytes) -> None:
        self._view = memoryview(payload)
        self._offset = 0

    def _truncated(self, count: int, offset: int) -> ProtocolError:
        return ProtocolError(
            f"truncated payload: needed {count} more bytes at offset "
            f"{offset}, frame has {len(self._view)}"
        )

    def _take(self, count: int) -> memoryview:
        end = self._offset + count
        if end > len(self._view):
            raise self._truncated(count, self._offset)
        chunk = self._view[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def bool(self) -> bool:
        return bool(self.u8())

    def u32(self) -> int:
        return _LEN.unpack(self._take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def str(self) -> str:
        length = self.u32()
        try:
            return bytes(self._take(length)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}") from None

    def rest(self) -> bytes:
        """Everything left in the payload (trailing blobs like workloads)."""
        chunk = bytes(self._view[self._offset :])
        self._offset = len(self._view)
        return chunk

    def bools(self) -> list[bool]:
        count = self.u32()
        return [bool(byte) for byte in self._take(count)]

    def executions(self) -> list[tuple]:
        count = self.u32()
        view, offset, size = self._view, self._offset, len(self._view)
        unpack_len, unpack_i64 = _LEN.unpack_from, _I64.unpack_from
        # the same fields as count x (str(), i64()), read in one loop over
        # the payload; each distinct module name is decoded once per list
        names: dict = {}
        executions = []
        append = executions.append
        for _ in range(count):
            if offset + 4 > size:
                raise self._truncated(4, offset)
            (length,) = unpack_len(view, offset)
            start = offset + 4
            offset = start + length
            if offset + 8 > size:
                raise self._truncated(length + 8, start)
            raw = bytes(view[start:offset])
            name = names.get(raw)
            if name is None:
                try:
                    name = names[raw] = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"invalid UTF-8 in string field: {exc}"
                    ) from None
            append((name, unpack_i64(view, offset)[0]))
            offset += 8
        self._offset = offset
        return executions

    def expect_end(self) -> None:
        if self._offset != len(self._view):
            raise ProtocolError(
                f"{len(self._view) - self._offset} trailing bytes after a "
                "complete request body"
            )


# ----------------------------------------------------------------------
# shared composite codecs (both directions use these on per-run maps)
# ----------------------------------------------------------------------
def put_run_map_executions(writer: Writer, per_run: dict) -> None:
    """``run_id -> [(module, instance), ...]`` (cross-run sweep answers)."""
    writer.put_u32(len(per_run))
    for run_id, affected in per_run.items():
        writer.put_i64(run_id).put_executions(affected)


def read_run_map_executions(reader: Reader) -> dict:
    return {reader.i64(): reader.executions() for _ in range(reader.u32())}


def put_run_map_bools(writer: Writer, per_run: dict) -> None:
    """``run_id -> [bool, ...]`` (cross-run batch answer rows)."""
    writer.put_u32(len(per_run))
    for run_id, answers in per_run.items():
        writer.put_i64(run_id).put_bools(answers)


def read_run_map_bools(reader: Reader) -> dict:
    return {reader.i64(): reader.bools() for _ in range(reader.u32())}


def put_skipped(writer: Writer, skipped: Sequence[int]) -> None:
    """The skipped-run id list every cross-run result carries."""
    writer.put_u32(len(skipped))
    for run_id in skipped:
        writer.put_i64(run_id)


def read_skipped(reader: Reader) -> list[int]:
    return [reader.i64() for _ in range(reader.u32())]


def put_workers(writer: Writer, workers: Optional[int]) -> None:
    """The cross-run sweep's ``workers`` knob; -1 encodes the auto-sizing ``None``."""
    writer.put_i64(-1 if workers is None else int(workers))


def read_workers(reader: Reader) -> Optional[int]:
    value = reader.i64()
    return None if value < 0 else value


#: the sweep pushdown override as one byte (protocol version 2): 0 encodes
#: ``None`` (defer to the server session's default)
_PUSHDOWN_WIRE = {None: 0, "auto": 1, "always": 2, "never": 3}
_PUSHDOWN_OF_WIRE = {code: mode for mode, code in _PUSHDOWN_WIRE.items()}


def put_pushdown(writer: Writer, mode: Optional[str]) -> None:
    """The sweep's SQL-pushdown override (``None``/auto/always/never)."""
    try:
        writer.put_u8(_PUSHDOWN_WIRE[mode])
    except KeyError:
        raise ProtocolError(f"unknown pushdown mode {mode!r}") from None


def read_pushdown(reader: Reader) -> Optional[str]:
    code = reader.u8()
    try:
        return _PUSHDOWN_OF_WIRE[code]
    except KeyError:
        raise ProtocolError(f"unknown pushdown mode byte {code}") from None
