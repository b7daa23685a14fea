"""The declarative query objects of the unified provenance surface.

A query is pure data: what to ask, not how to answer it.  The session
(:class:`~repro.api.session.ProvenanceSession`) compiles each query into an
executable plan over the kernel layer (:mod:`repro.engine`) for whatever
target it fronts — a live index, a labeled or online run, or a provenance
store — so the same query object runs unchanged against any of them.

Executions may be written as :class:`~repro.workflow.run.RunVertex`
instances or plain ``(module, instance)`` tuples, matching the provenance
store's convention.  ``run_id`` selects the stored run for store-backed
sessions and must be omitted for in-memory targets (a session fronting one
index has exactly one run to query).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as _np

from repro.exceptions import QueryPlanError

__all__ = [
    "PointQuery",
    "BatchQuery",
    "DownstreamQuery",
    "UpstreamQuery",
    "CrossRunQuery",
    "CrossRunBatchQuery",
    "CrossRunPointQuery",
    "DataDependencyQuery",
    "CrossRunSweepResult",
    "CrossRunBatchResult",
    "CrossRunPointResult",
    "PUSHDOWN_MODES",
]

#: per-query override for the store planner's SQL-vs-kernel sweep choice;
#: ``None`` defers to the session-wide default (see ProvenanceSession)
PUSHDOWN_MODES = ("auto", "always", "never")


def _validate_pushdown(query_name: str, mode) -> None:
    if mode is not None and mode not in PUSHDOWN_MODES:
        raise QueryPlanError(
            f"{query_name} pushdown must be one of {PUSHDOWN_MODES} or None, "
            f"got {mode!r}"
        )


@dataclass(frozen=True)
class PointQuery:
    """One reachability question: does *source* reach *target*?

    Answers ``bool``.  Point queries on in-memory targets are served
    through the engine's hot-pair LRU cache; :meth:`ProvenanceSession.run_many`
    additionally fuses point queries on the same run into one batch.
    """

    source: Any
    target: Any
    run_id: Optional[int] = None


@dataclass(frozen=True)
class BatchQuery:
    """A whole workload of ``(source, target)`` reachability questions.

    Answers one boolean per pair, in order.  Give either *pairs* (vertex
    objects, resolved once at the boundary) or the pre-interned
    *source_ids*/*target_ids* parallel handle arrays (the zero-parse replay
    form — e.g. a binary workload file resolved against a stored run's
    persisted interner).
    """

    pairs: Optional[Sequence[tuple]] = None
    run_id: Optional[int] = None
    source_ids: Optional[Sequence[int]] = None
    target_ids: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        by_pairs = self.pairs is not None
        by_ids = self.source_ids is not None or self.target_ids is not None
        if by_ids and (self.source_ids is None or self.target_ids is None):
            raise QueryPlanError(
                "BatchQuery needs both source_ids and target_ids for a "
                "handle-native batch"
            )
        if by_pairs == by_ids:
            raise QueryPlanError(
                "BatchQuery takes exactly one of pairs or "
                "(source_ids, target_ids)"
            )

    @property
    def handle_native(self) -> bool:
        """Whether the workload arrives pre-interned as handle arrays."""
        return self.source_ids is not None


@dataclass(frozen=True)
class DownstreamQuery:
    """Every execution that depends on *execution* (excluding itself).

    The "which downstream results were affected by this bad input" sweep of
    the paper's introduction.  Answers a list of executions.

    ``pushdown`` overrides the store planner's SQL-vs-kernel choice for
    this query alone: ``"always"`` forces the indexed-SQL sweep (an error
    on schemes without the capability), ``"never"`` forces the streamed
    kernel, ``"auto"`` applies the capability-and-size heuristic, and
    ``None`` (default) defers to the session's setting.  Ignored by
    in-memory targets, which have no SQL to push into.
    """

    execution: Any
    run_id: Optional[int] = None
    pushdown: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_pushdown("DownstreamQuery", self.pushdown)


@dataclass(frozen=True)
class UpstreamQuery:
    """Every execution that *execution* depends on (excluding itself).

    The "which inputs and tools produced this result" sweep.  Answers a
    list of executions.  ``pushdown`` behaves as on
    :class:`DownstreamQuery`.
    """

    execution: Any
    run_id: Optional[int] = None
    pushdown: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_pushdown("UpstreamQuery", self.pushdown)


@dataclass(frozen=True)
class CrossRunQuery:
    """One dependency sweep over **all** stored runs of a specification.

    The scaling form of :class:`DownstreamQuery`/:class:`UpstreamQuery`:
    the spec-side kernel is compiled once and every run's label columns are
    streamed through it, instead of building a full per-run engine per run.
    Only store-backed sessions can plan it.  Answers a
    :class:`CrossRunSweepResult`.

    ``workers`` controls the parallel executor: ``None`` auto-sizes a
    thread pool from the CPU count (falling back to the sequential path
    for small run counts), ``1`` forces the sequential path, and any
    larger value pins the pool size.  ``pushdown`` behaves as on
    :class:`DownstreamQuery` (the sweep is pushed down only when every
    run's scheme declares the capability).
    """

    specification: str
    execution: Any
    direction: str = "downstream"
    workers: Optional[int] = None
    pushdown: Optional[str] = None

    def __post_init__(self) -> None:
        if self.direction not in ("downstream", "upstream"):
            raise QueryPlanError(
                f"CrossRunQuery direction must be 'downstream' or 'upstream', "
                f"got {self.direction!r}"
            )
        _validate_pushdown("CrossRunQuery", self.pushdown)


@dataclass(frozen=True)
class CrossRunBatchQuery:
    """The same pair workload asked of **every** stored run of a specification.

    The generalization of :class:`CrossRunQuery` from one anchored sweep to
    an arbitrary batch: every run of *specification* answers the same
    ``(source, target)`` pairs, yielding a runs x pairs boolean matrix.
    Only the pairs' endpoints are read from each run, by primary key, and
    each run is one vectorized kernel evaluation through the shared
    per-specification kernel — no per-run engines.  The fetch is a few
    rows per run, so batches run on the calling thread.  Only
    store-backed sessions can plan it.  Answers a
    :class:`CrossRunBatchResult`.
    """

    specification: str
    pairs: Sequence[tuple]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise QueryPlanError("CrossRunBatchQuery needs at least one pair")


@dataclass(frozen=True)
class CrossRunPointQuery:
    """One reachability question asked of **every** stored run of a specification.

    "Did *source* reach *target* in each recorded execution of this
    workflow?" — the monitoring form of :class:`PointQuery`.  Compiled as a
    single-pair :class:`CrossRunBatchQuery`, so each run contributes just
    its two endpoints' labels.  Answers a :class:`CrossRunPointResult`.
    """

    specification: str
    source: Any
    target: Any


@dataclass(frozen=True)
class DataDependencyQuery:
    """Does data item *item* depend on another item or a module execution?

    Give exactly one of *on_item* (item-to-item dependency, Section 6) or
    *on_module* (item-to-execution dependency).  Answers ``bool``.
    """

    item: str
    on_item: Optional[str] = None
    on_module: Optional[Any] = None
    run_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.on_item is None) == (self.on_module is None):
            raise QueryPlanError(
                "DataDependencyQuery takes exactly one of on_item or on_module"
            )


@dataclass(frozen=True)
class CrossRunSweepResult:
    """The outcome of one :class:`CrossRunQuery`.

    ``per_run`` maps each swept run id to its affected executions (in
    stored-handle order); runs of the specification that never executed the
    anchor are listed in ``skipped_runs`` instead of being silently absent.
    """

    specification: str
    execution: tuple
    direction: str
    per_run: dict = field(default_factory=dict)
    skipped_runs: list = field(default_factory=list)

    @property
    def run_count(self) -> int:
        """Number of runs the sweep answered (excluding skipped ones)."""
        return len(self.per_run)

    @property
    def affected_count(self) -> int:
        """Total number of affected executions across all swept runs."""
        return sum(len(found) for found in self.per_run.values())


@dataclass(frozen=True)
class CrossRunBatchResult:
    """The outcome of one :class:`CrossRunBatchQuery`: a runs x pairs matrix.

    ``per_run`` maps each answered run id to one boolean per queried pair,
    in pair order.  Runs of the specification missing any queried endpoint
    are listed in ``skipped_runs`` instead of contributing a partial row,
    so every present row is a complete answer vector.
    """

    specification: str
    pairs: list
    per_run: dict = field(default_factory=dict)
    skipped_runs: list = field(default_factory=list)

    @property
    def run_ids(self) -> list:
        """Answered run ids, ascending — the row order of :meth:`matrix`."""
        return sorted(self.per_run)

    @property
    def run_count(self) -> int:
        """Number of runs that answered the batch (excluding skipped ones)."""
        return len(self.per_run)

    def matrix(self):
        """The runs x pairs boolean answer array, rows in :attr:`run_ids` order."""
        rows = [self.per_run[run_id] for run_id in self.run_ids]
        return _np.asarray(rows, dtype=bool).reshape(len(rows), len(self.pairs))


@dataclass(frozen=True)
class CrossRunPointResult:
    """The outcome of one :class:`CrossRunPointQuery`.

    ``per_run`` maps each run id to the boolean answer; runs that never
    executed one of the endpoints are listed in ``skipped_runs``.
    """

    specification: str
    source: tuple
    target: tuple
    per_run: dict = field(default_factory=dict)
    skipped_runs: list = field(default_factory=list)

    @property
    def run_count(self) -> int:
        """Number of runs that answered the question."""
        return len(self.per_run)

    @property
    def reachable_count(self) -> int:
        """In how many runs *source* reached *target*."""
        return sum(1 for answer in self.per_run.values() if answer)
