"""Binary pair-workload files: zero-parse replayable query batches.

The text workload format (``module:instance module:instance`` per line)
pays a parse plus a vertex-resolution per pair on every replay.  The binary
format stores the **resolved handles** instead: a 16-byte header (an 8-byte
magic plus the little-endian int64 id of the run the handles belong to)
followed by two little-endian signed 64-bit integer columns, interleaved
row-wise —

``source_id0 target_id0 source_id1 target_id1 ...``

— where the ids are that run's *persisted* interner handles (the
``run_labels.vertex_id`` column), which are stable across store sessions.
The header makes replays self-describing: handles are only meaningful for
the run that issued them, so querying a workload against a different run —
which would silently return answers about the wrong executions — is
rejected up front.  Replaying a matching file is pure I/O plus one
``reaches_many_ids`` call: no parsing, no dictionary lookups.

The on-wire byte order is **always** little-endian, whatever the host:
the codec spells the byte order out explicitly (numpy's ``"<i8"``), and
decoded arrays are normalized to the host's native order so kernels never
operate on byte-swapped views.  A workload packed on one architecture replays
unchanged on any other — this encoding is also the wire format of the
provenance network service's batch op (:mod:`repro.server.protocol`).

``repro-provenance pack-workload`` converts a text file once;
``repro-provenance query-batch --format bin`` replays it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as _np

from repro.exceptions import SerializationError

__all__ = [
    "write_pair_workload",
    "read_pair_workload",
    "encode_pair_workload",
    "decode_pair_workload",
    "WORKLOAD_MAGIC",
]

PathLike = Union[str, Path]

#: first 8 bytes of every binary pair workload (format name + version)
WORKLOAD_MAGIC = b"RPROVW1\x00"

#: header bytes: the magic plus the owning run's little-endian int64 id
_HEADER_BYTES = 16

#: bytes per workload row: two little-endian int64 columns
_ROW_BYTES = 16


def encode_pair_workload(source_ids, target_ids, *, run_id: int) -> bytes:
    """Encode parallel handle arrays as workload bytes (header included).

    The in-memory form of :func:`write_pair_workload` — the network
    protocol ships these bytes as the body of a batch request, so a packed
    workload file replays over a connection without any re-encoding.
    """
    count = len(source_ids)
    if len(target_ids) != count:
        raise SerializationError(
            "source_ids and target_ids must have the same length "
            f"({count} != {len(target_ids)})"
        )
    header = WORKLOAD_MAGIC + int(run_id).to_bytes(8, "little", signed=True)
    flat = _np.empty(2 * count, dtype="<i8")
    flat[0::2] = source_ids
    flat[1::2] = target_ids
    return header + flat.tobytes()


def write_pair_workload(path: PathLike, source_ids, target_ids, *, run_id: int) -> int:
    """Write parallel handle arrays as a binary pair workload; returns the pair count.

    *run_id* identifies the stored run whose persisted interner resolved
    the handles; it is embedded in the header and checked on replay.
    """
    payload = encode_pair_workload(source_ids, target_ids, run_id=run_id)
    Path(path).write_bytes(payload)
    return (len(payload) - _HEADER_BYTES) // _ROW_BYTES


def decode_pair_workload(data: bytes, *, expect_run_id: Optional[int] = None):
    """Decode workload bytes into ``(run_id, source_ids, target_ids)``.

    With *expect_run_id* set, a workload packed for a different run is
    rejected — its handles would resolve to the wrong executions.  The
    returned id columns are native-endian whatever the host (the
    little-endian on-disk columns are byte-swapped where needed), so the
    handle arrays feed the kernels directly on any architecture.
    """
    if len(data) < _HEADER_BYTES or data[: len(WORKLOAD_MAGIC)] != WORKLOAD_MAGIC:
        raise SerializationError(
            "not a binary pair workload: missing the RPROVW1 header "
            "(pack text files with `repro-provenance pack-workload`)"
        )
    run_id = int.from_bytes(data[len(WORKLOAD_MAGIC):_HEADER_BYTES], "little", signed=True)
    if expect_run_id is not None and run_id != int(expect_run_id):
        raise SerializationError(
            f"workload was packed against run {run_id}, not run "
            f"{int(expect_run_id)}: handles are only meaningful for the run "
            "that issued them; re-pack the text workload for this run"
        )
    body = data[_HEADER_BYTES:]
    if len(body) % _ROW_BYTES:
        raise SerializationError(
            f"not a binary pair workload: {len(body)} payload bytes is not "
            f"a multiple of {_ROW_BYTES} (two little-endian int64 columns)"
        )
    flat = _np.frombuffer(body, dtype="<i8")
    if not flat.dtype.isnative:
        # big-endian host: normalize to a native int64 copy so every
        # downstream kernel sees plain machine integers
        flat = flat.astype(flat.dtype.newbyteorder("="))
    return run_id, flat[0::2], flat[1::2]


def read_pair_workload(path: PathLike, *, expect_run_id: Optional[int] = None):
    """Read a binary pair workload file into ``(run_id, source_ids, target_ids)``."""
    file_path = Path(path)
    if not file_path.exists():
        raise SerializationError(f"workload file not found: {file_path}")
    return decode_pair_workload(file_path.read_bytes(), expect_run_id=expect_run_id)
