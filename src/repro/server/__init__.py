"""The provenance network service: daemon, wire protocol, and client.

The in-process story ends at one machine; this package puts the store
behind a TCP socket so compiled plans are served where the data lives.

* :mod:`repro.server.protocol` — the length-prefixed binary wire format
  (the batch op reuses the pair-workload encoding byte for byte);
* :mod:`repro.server.daemon` — the asyncio server
  (:class:`ProvenanceServer`) and its background-thread wrapper
  (:class:`ServerThread`);
* :mod:`repro.server.client` — the blocking :class:`RemoteStore` /
  :class:`RemoteSession` duck types the CLI's ``repro://`` routing and
  the examples run against.
"""

from repro.server.client import RemoteSession, RemoteStore, is_remote_target, parse_url
from repro.server.daemon import (
    INGEST_FLUSH_AFTER_DEFAULT,
    ProvenanceServer,
    ServerThread,
)
from repro.server.protocol import DEFAULT_PORT, MAX_FRAME_BYTES, PROTOCOL_VERSION

__all__ = [
    "ProvenanceServer",
    "ServerThread",
    "RemoteStore",
    "RemoteSession",
    "parse_url",
    "is_remote_target",
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_FRAME_BYTES",
    "INGEST_FLUSH_AFTER_DEFAULT",
]
