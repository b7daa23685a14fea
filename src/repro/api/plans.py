"""Compiled query plans: the execute-many half of the session's split.

:meth:`ProvenanceSession.compile` turns one declarative query
(:mod:`repro.api.queries`) into a plan bound to the session's target; the
plan's :meth:`~QueryPlan.execute` can then run any number of times.  The
expensive state a plan needs — compiled engine kernels, a stored run's
resident label columns, the shared per-specification fall-through kernel —
lives on the session target or the store, so re-executing a plan pays only
the query itself.

Planning decisions read the target's **declared capability flags**
(:func:`repro.labeling.base.capabilities_of`) — ``handles``,
``sweep_domain``, ``stable_labels`` — never concrete classes, so any
duck-typed ``(D, φ, π)`` object that declares the right capabilities gets
the same plans as the built-in indexes.
"""

from __future__ import annotations

import sqlite3
from typing import Any, Optional

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
from repro.engine.parallel import CrossRunExecutor
from repro.exceptions import QueryPlanError
from repro.labeling.base import capabilities_of
from repro.workflow.run import RunVertex

__all__ = [
    "QueryPlan",
    "compile_plan",
    "HANDLE_PATH_MIN_PAIRS",
]

#: stored-run batch workloads at least this large make the run resident
#: (one fetch of its label columns) and are answered from it; smaller
#: batches on a run that is not resident fetch only the labels behind the
#: queried pairs — loading a big run for a handful of interactive queries
#: would never amortize
HANDLE_PATH_MIN_PAIRS = 512


def _pushdown_mode(target: Any, query: Any) -> str:
    """The effective SQL-pushdown mode: per-query override, else session default."""
    mode = getattr(query, "pushdown", None)
    if mode is None:
        mode = getattr(target, "pushdown", "auto")
    return mode


def _as_execution(value: Any) -> tuple:
    """Accept both RunVertex and plain (module, instance) tuples."""
    if isinstance(value, RunVertex):
        return (value.module, value.instance)
    return (str(value[0]), int(value[1]))


class QueryPlan:
    """One query compiled against one session target (execute any number of times)."""

    def __init__(self, target: Any, query: Any) -> None:
        self.target = target
        self.query = query
        if target.kind != "store" and getattr(query, "run_id", None) is not None:
            raise QueryPlanError(
                f"{type(query).__name__}.run_id only applies to store-backed "
                f"sessions; this session fronts {target.describe()}"
            )
        #: the target's update token at compile time; ``execute`` re-checks
        #: it so a plan compiled before an edge update never answers from
        #: plan-local state derived from the pre-update labels
        self.compiled_version = self.version_token()

    def version_token(self):
        """The target's current update token (``None`` = never invalidates)."""
        return self.target.version_token()

    @property
    def stale(self) -> bool:
        """Whether the target mutated after this plan was compiled."""
        return self.version_token() != self.compiled_version

    def _refresh_if_stale(self) -> None:
        current = self.version_token()
        if current != self.compiled_version:
            self.compiled_version = current
            self._invalidate()

    def _invalidate(self) -> None:
        """Drop plan-local state derived from the target's labels.

        The engine layer independently re-checks the same token (so even a
        subclass that forgets to override this cannot serve a pre-update
        answer through the engine); plans that memoize anything of their
        own must clear it here.
        """

    def execute(self):  # pragma: no cover - subclasses implement
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(target={self.target.describe()}, "
            f"query={self.query!r})"
        )


class _PointPlan(QueryPlan):
    """A single pair through the hot path of whatever the target caches."""

    def execute(self) -> bool:
        query = self.query
        self._refresh_if_stale()
        if self.target.kind == "store":
            # the run's resident columns, else its two labels by primary key
            return self.target.store._reaches(
                self.target.require_run_id(query),
                _as_execution(query.source),
                _as_execution(query.target),
            )
        # the engine's hot-pair LRU serves repeated point queries in O(1)
        return self.target.engine().reaches(query.source, query.target)


class _BatchPlan(QueryPlan):
    """A whole workload through the compiled kernel of the target."""

    def execute(self) -> list:
        query = self.query
        self._refresh_if_stale()
        if query.handle_native:
            engine = (
                self.target.store.query_engine(self.target.require_run_id(query))
                if self.target.kind == "store"
                else self.target.engine()
            )
            answers = engine.reaches_many_ids(query.source_ids, query.target_ids)
            return answers if isinstance(answers, list) else list(answers)
        pairs = (
            query.pairs
            if isinstance(query.pairs, (list, tuple))
            else list(query.pairs)
        )
        if self.target.kind == "store":
            # a resident run answers from its columns; a large workload
            # makes its run resident first
            return self.target.store._reaches_batch(
                self.target.require_run_id(query),
                pairs,
                load=len(pairs) >= HANDLE_PATH_MIN_PAIRS,
            )
        return self.target.engine().reaches_batch(pairs)


class _SweepPlan(QueryPlan):
    """An anchored dependency sweep over the target's whole vertex universe."""

    downstream = True

    def execute(self) -> list:
        query = self.query
        self._refresh_if_stale()
        if self.target.kind == "store":
            run_id = self.target.require_run_id(query)
            store = self.target.store
            if self._use_pushdown(store, run_id):
                try:
                    return store._dependency_sweep_pushdown(
                        run_id, query.execution, downstream=self.downstream
                    )
                except sqlite3.OperationalError:
                    # graceful degradation: a failing SQL path (locked or
                    # corrupted index, injected fault) falls back to the
                    # run's label columns, which answer bit-identically —
                    # degraded means slower, never wrong
                    store.note_degraded("pushdown_fallback")
            return store._dependency_sweep(
                run_id, query.execution, downstream=self.downstream
            )
        engine = self.target.engine()
        index = engine.index
        if not capabilities_of(index).sweep_domain:
            raise QueryPlanError(
                f"{type(index).__name__} cannot enumerate its labeled "
                "executions, so dependency sweeps cannot be planned over it"
            )
        return engine.dependency_sweep(query.execution, downstream=self.downstream)

    def _use_pushdown(self, store: Any, run_id: int) -> bool:
        """SQL vs the run's resident columns for one stored-run sweep.

        ``always`` demands the pushdown (a plan error on schemes without
        the capability).  ``auto`` and ``never`` sweep the run's resident
        columns, loading them first if need be: a load costs about one
        pushdown sweep, and every later sweep of the run a fraction of one.
        """
        if _pushdown_mode(self.target, self.query) != "always":
            return False
        scheme, capable = store.pushdown_profile(run_id)
        if not capable:
            raise QueryPlanError(
                f"scheme {scheme!r} does not declare the SQL pushdown "
                "capability; use pushdown='auto' or 'never'"
            )
        return True


class _DownstreamPlan(_SweepPlan):
    downstream = True


class _UpstreamPlan(_SweepPlan):
    downstream = False


class _CrossRunPlanBase(QueryPlan):
    """Shared plumbing of the cross-run plans: store-only, one executor.

    The per-specification fall-through kernel (the expensive, ``nG²``-ish
    part of a skeleton kernel) is compiled **once** via the store's
    per-spec cache; each run then contributes only its label fetch plus
    one vectorized kernel evaluation.  A sweep streams every run's
    :class:`~repro.storage.store.RunLabelArrays` (or pushes the sweep into
    SQL): the :class:`~repro.engine.parallel.CrossRunExecutor` prefetches
    runs in chunks (one ordered SQL scan each) and fans the independent
    per-run payloads across worker threads, falling back to the sequential
    streaming path for small run counts.  A batch or point plan reads only
    its endpoints' labels, by primary key, on the calling thread, so only
    sweeps take a worker count.
    """

    def __init__(
        self, target: Any, query: Any, *, workers: Optional[int] = None
    ) -> None:
        super().__init__(target, query)
        if target.kind != "store":
            raise QueryPlanError(
                f"{type(query).__name__} sweeps stored runs; this session "
                f"fronts {target.describe()}"
            )
        # compiled once with the plan: re-executions reuse the executor and
        # its worker setting (a parallel sweep opens its threads per call)
        self._executor = CrossRunExecutor(target.store, workers=workers)


class _CrossRunPlan(_CrossRunPlanBase):
    """Sweep all runs of one specification through a shared spec kernel."""

    def __init__(self, target: Any, query: CrossRunQuery) -> None:
        super().__init__(target, query, workers=query.workers)

    def execute(self) -> CrossRunSweepResult:
        query = self.query
        anchor = _as_execution(query.execution)
        if self._use_pushdown():
            try:
                per_run, skipped = self._executor.sweep_pushdown(
                    query.specification, anchor, query.direction
                )
            except sqlite3.OperationalError:
                # same degradation as _SweepPlan: the streamed kernel sweep
                # answers bit-identically when the SQL path fails
                self.target.store.note_degraded("pushdown_fallback")
                per_run, skipped = self._executor.sweep(
                    query.specification, anchor, query.direction
                )
        else:
            per_run, skipped = self._executor.sweep(
                query.specification, anchor, query.direction
            )
        return CrossRunSweepResult(
            specification=query.specification,
            execution=anchor,
            direction=query.direction,
            per_run=per_run,
            skipped_runs=skipped,
        )

    def _use_pushdown(self) -> bool:
        """SQL vs streamed kernel for the whole cross-run sweep.

        The sweep is pushed down only when **every** run of the
        specification was labeled with a pushdown-capable scheme (mixed or
        kernel-only schemes keep the streamed path; ``always`` raises on
        them).  No size heuristic here: a cross-run sweep touches many
        runs, so the SQL path's fixed costs always amortize.
        """
        from repro.storage.pushdown import scheme_supports_pushdown

        mode = _pushdown_mode(self.target, self.query)
        if mode == "never":
            return False
        runs = self.target.store.list_runs(self.query.specification)
        schemes = {row["spec_scheme"] or "tcm" for row in runs}
        capable = all(scheme_supports_pushdown(scheme) for scheme in schemes)
        if mode == "always":
            if not capable:
                incapable = sorted(
                    scheme for scheme in schemes
                    if not scheme_supports_pushdown(scheme)
                )
                raise QueryPlanError(
                    f"scheme(s) {incapable} do not declare the SQL pushdown "
                    "capability; use pushdown='auto' or 'never'"
                )
            return True
        return capable and bool(schemes)


class _CrossRunBatchPlan(_CrossRunPlanBase):
    """The same pair workload against every run: a runs x pairs matrix."""

    def execute(self) -> CrossRunBatchResult:
        query = self.query
        pairs = [
            (_as_execution(source), _as_execution(target))
            for source, target in query.pairs
        ]
        per_run, skipped = self._executor.batch(query.specification, pairs)
        return CrossRunBatchResult(
            specification=query.specification,
            pairs=pairs,
            per_run=per_run,
            skipped_runs=skipped,
        )


class _CrossRunPointPlan(_CrossRunPlanBase):
    """One pair against every run (a single-column batch)."""

    def execute(self) -> CrossRunPointResult:
        query = self.query
        source = _as_execution(query.source)
        target = _as_execution(query.target)
        per_run, skipped = self._executor.batch(
            query.specification, [(source, target)]
        )
        return CrossRunPointResult(
            specification=query.specification,
            source=source,
            target=target,
            per_run={run_id: bool(answers[0]) for run_id, answers in per_run.items()},
            skipped_runs=skipped,
        )


class _DataDependencyPlan(QueryPlan):
    """Item-to-item / item-to-execution dependency over recorded dataflow."""

    def execute(self) -> bool:
        query = self.query
        if self.target.kind == "store":
            run_id = self.target.require_run_id(query)
            store = self.target.store
            if query.on_item is not None:
                return store.data_depends_on_data(run_id, query.item, query.on_item)
            return store.data_depends_on_module(
                run_id, query.item, _as_execution(query.on_module)
            )
        if self.target.kind == "online":
            online = self.target.online
            if query.on_item is not None:
                return online.data_depends_on_data(query.item, query.on_item)
            return online.data_depends_on_module(
                query.item, RunVertex(*_as_execution(query.on_module))
            )
        raise QueryPlanError(
            "DataDependencyQuery needs recorded dataflow (a store or an "
            f"online run); this session fronts {self.target.describe()}"
        )


_PLAN_OF = {
    PointQuery: _PointPlan,
    BatchQuery: _BatchPlan,
    DownstreamQuery: _DownstreamPlan,
    UpstreamQuery: _UpstreamPlan,
    CrossRunQuery: _CrossRunPlan,
    CrossRunBatchQuery: _CrossRunBatchPlan,
    CrossRunPointQuery: _CrossRunPointPlan,
    DataDependencyQuery: _DataDependencyPlan,
}


def compile_plan(target: Any, query: Any) -> QueryPlan:
    """Compile one declarative query against one session target."""
    plan_class = _PLAN_OF.get(type(query))
    if plan_class is None:
        raise QueryPlanError(
            f"not a declarative query object: {type(query).__name__!r}"
        )
    return plan_class(target, query)
