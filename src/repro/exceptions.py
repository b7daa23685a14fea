"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses distinguish
structural problems in the input graphs from violations of the workflow model
and from misuse of the labeling API.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "VertexNotFoundError",
    "EdgeNotFoundError",
    "NotADagError",
    "FlowNetworkError",
    "SpecificationError",
    "WellNestednessError",
    "RunConformanceError",
    "PlanConstructionError",
    "LabelingError",
    "QueryPlanError",
    "SerializationError",
    "StorageError",
    "DatasetError",
    "ProtocolError",
    "CircuitOpenError",
    "WorkerCrashError",
    "FaultSpecError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A structural problem with a directed graph."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by the caller is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex not in graph: {vertex!r}")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by the caller is not present in the graph."""

    def __init__(self, tail: object, head: object) -> None:
        super().__init__(f"edge not in graph: ({tail!r}, {head!r})")
        self.tail = tail
        self.head = head


class NotADagError(GraphError):
    """The graph was expected to be acyclic but contains a cycle."""


class FlowNetworkError(GraphError):
    """The graph is not an acyclic flow network (single source, single sink)."""


class SpecificationError(ReproError):
    """The workflow specification violates the model of Definition 3."""


class WellNestednessError(SpecificationError):
    """The fork/loop system is not well nested (Definition 2)."""


class RunConformanceError(ReproError):
    """A run graph does not conform to its claimed specification."""


class PlanConstructionError(ReproError):
    """ConstructPlan could not extract an execution plan from the run."""


class LabelingError(ReproError):
    """A labeling scheme was used incorrectly (e.g. unlabeled vertex queried)."""


class QueryPlanError(ReproError):
    """A declarative query cannot be planned against the session's target."""


class SerializationError(ReproError):
    """A specification or run document could not be parsed or written."""


class StorageError(ReproError):
    """The SQLite provenance store rejected an operation."""


class DatasetError(ReproError):
    """A synthetic or catalog dataset could not be generated as requested."""


class ProtocolError(ReproError):
    """A network peer violated the provenance wire protocol.

    Raised by the server on malformed or truncated frames (the connection
    is closed after reporting it) and by the client when the server's
    response cannot be decoded.
    """


class CircuitOpenError(ProtocolError):
    """The client's circuit breaker is open: requests fail fast.

    Raised by :class:`~repro.server.client.RemoteStore` after too many
    consecutive transport failures, without touching the network, until
    the breaker's reset timer half-opens it again.
    """


class WorkerCrashError(ReproError):
    """A parallel worker died (or was fault-injected dead) mid-task.

    The cross-run executor retries the chunk once, then evaluates it
    sequentially on the submitting side.
    """


class FaultSpecError(ReproError):
    """A ``REPRO_FAULTS`` fault-injection spec could not be parsed."""
