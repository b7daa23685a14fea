"""The unified provenance query session.

:class:`ProvenanceSession` is the one declarative entry point over every
query target this library knows:

* a live :class:`~repro.labeling.base.ReachabilityIndex` or
  :class:`~repro.skeleton.skl.SkeletonLabeledRun` (in-memory runs);
* an :class:`~repro.skeleton.online.OnlineRun` still executing (queries
  stay correct across appends — the session re-compiles its engine whenever
  the run's version token moves);
* a :class:`~repro.storage.store.ProvenanceStore` (stored runs, selected by
  ``run_id``, plus cross-run sweeps over all runs of one specification).

Usage is compile-once / execute-many::

    session = ProvenanceSession(store)            # or .for_index / .for_online
    session.run(PointQuery(("a", 1), ("h", 1), run_id=1))
    session.run(BatchQuery(pairs=workload, run_id=1))
    session.run(CrossRunQuery("my-spec", ("a", 1), "downstream"))

``session.run(query)`` is shorthand for ``session.compile(query).execute()``;
holding on to the compiled plan lets a monitoring loop re-execute without
re-planning.  ``session.run_many(queries)`` additionally fuses point queries
on the same run into one batched kernel call.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.api.plans import QueryPlan, compile_plan
from repro.api.queries import PUSHDOWN_MODES, BatchQuery, PointQuery
from repro.engine.query import QueryEngine
from repro.exceptions import QueryPlanError

__all__ = ["ProvenanceSession"]


class _IndexTarget:
    """A live labeling index / labeled run (one run, no run ids)."""

    kind = "index"

    def __init__(self, index: Any) -> None:
        self.index = index
        self._engine: Optional[QueryEngine] = None

    def engine(self) -> QueryEngine:
        if self._engine is None:
            self._engine = QueryEngine(self.index)
        return self._engine

    def version_token(self):
        """The index's edge-update token (``None`` for immutable targets)."""
        return getattr(self.index, "update_version", None)

    def describe(self) -> str:
        return f"a live {type(self.index).__name__}"


class _OnlineTarget:
    """A run still executing, served by one incrementally maintained kernel.

    The compiled :class:`~repro.engine.online.OnlineKernel` persists across
    appends: executions recorded into already-nonempty scopes extend its
    label arrays **in place** (only the hot-pair LRU is invalidated), and
    only structural changes that can move existing labels — a scope turning
    nonempty for the first time — trigger a full recompile.  Answers always
    reflect the run recorded so far, like the per-append rebuild this
    replaces, but an append-heavy monitoring loop no longer pays a
    recompile per event.
    """

    kind = "online"

    def __init__(self, online: Any) -> None:
        self.online = online
        self._kernel: Optional[Any] = None

    def engine(self) -> Any:
        if self._kernel is None:
            from repro.engine.online import OnlineKernel

            self._kernel = OnlineKernel(self.online)
        self._kernel.sync()
        return self._kernel

    @property
    def index(self) -> Any:
        return self.engine().index

    def version_token(self):
        """The online run's append token (plans re-check it per execute)."""
        return self.online.version_token()

    def describe(self) -> str:
        return f"the online run {self.online.name!r}"


class _StoreTarget:
    """A provenance store; queries carry the run id they address.

    Which label source answers a single-run query — the run's resident
    columns or a primary-key fetch of just the queried labels — is the
    store's choice (see :mod:`repro.storage.store`); the target only
    carries the session's default pushdown mode.
    """

    kind = "store"

    def __init__(self, store: Any, pushdown: str = "auto") -> None:
        self.store = store
        if pushdown not in PUSHDOWN_MODES:
            raise QueryPlanError(
                f"pushdown must be one of {PUSHDOWN_MODES}, got {pushdown!r}"
            )
        #: the session-wide default the sweep planner reads when a query
        #: carries no per-query ``pushdown`` override
        self.pushdown = pushdown

    def require_run_id(self, query: Any) -> int:
        if query.run_id is None:
            raise QueryPlanError(
                f"{type(query).__name__} against a store-backed session "
                "needs a run_id"
            )
        return int(query.run_id)

    def version_token(self):
        """Stores have no single token: resident runs track the file's writes."""
        return None

    def cache_stats(self) -> dict:
        return {
            "target_kind": self.kind,
            "pushdown_mode": self.pushdown,
            **self.store.cache_stats(),
        }

    def describe(self) -> str:
        return f"the provenance store at {self.store.path!r}"


class ProvenanceSession:
    """One declarative query surface over indexes, runs and stores.

    The constructor sniffs the target's declared surface rather than its
    class: anything with ``query_engine``/``list_runs`` is treated as a
    provenance store, anything with ``query_view``/``version_token`` as an
    online run, and anything with the ``(D, φ, π)`` duck type
    (``label_of``/``reaches_labels``) as a live index.  The explicit
    :meth:`for_index` / :meth:`for_online` constructors skip the sniffing.
    """

    def __init__(self, target: Any, *, pushdown: str = "auto") -> None:
        if target is None:
            raise QueryPlanError("ProvenanceSession needs a query target")
        if hasattr(target, "query_engine") and hasattr(target, "list_runs"):
            self._target = _StoreTarget(target, pushdown=pushdown)
        elif hasattr(target, "query_view") and hasattr(target, "version_token"):
            self._target = _OnlineTarget(target)
        elif hasattr(target, "label_of") and hasattr(target, "reaches_labels"):
            self._target = _IndexTarget(target)
        else:
            raise QueryPlanError(
                f"cannot build a session over {type(target).__name__}: "
                "expected a provenance store, an online run, or a labeling "
                "index / labeled run"
            )

    @classmethod
    def for_index(cls, index: Any) -> "ProvenanceSession":
        """A session over one live index or labeled run."""
        session = cls.__new__(cls)
        session._target = _IndexTarget(index)
        return session

    @classmethod
    def for_online(cls, online: Any) -> "ProvenanceSession":
        """A session over a run still executing (append-safe)."""
        session = cls.__new__(cls)
        session._target = _OnlineTarget(online)
        return session

    # ------------------------------------------------------------------
    # the compile-once / execute-many split
    # ------------------------------------------------------------------
    @property
    def target_kind(self) -> str:
        """Which kind of target this session fronts: index, online or store."""
        return self._target.kind

    def cache_stats(self) -> dict:
        """Occupancy and eviction statistics of the session's caches.

        For store-backed sessions this reports the pushdown mode merged
        with the store's resident-run occupancy, byte budget and eviction
        counter; for online sessions it reports the incremental kernel's
        extension/rebuild counters; for plain index sessions, the engine's
        query counters.
        """
        target = self._target
        if target.kind == "store":
            return target.cache_stats()
        stats: dict = {"target_kind": target.kind}
        if target.kind == "online":
            stats.update(target.engine().cache_stats())
            return stats
        engine = target.engine()
        stats.update(
            queries=engine.stats.queries,
            batches=engine.stats.batches,
            cache_hits=engine.stats.cache_hits,
        )
        return stats

    def compile(self, query: Any) -> QueryPlan:
        """Compile one declarative query into a reusable executable plan."""
        return compile_plan(self._target, query)

    def run(self, query: Any):
        """Compile and execute one query (the everyday entry point)."""
        return compile_plan(self._target, query).execute()

    def run_many(self, queries: Iterable[Any]) -> list:
        """Execute several queries, fusing compatible ones.

        Point queries addressing the same run are answered as **one**
        batched kernel call instead of one dispatch each; everything else
        executes in order.  Answers come back in input order.
        """
        queries = list(queries)
        answers: list = [None] * len(queries)
        point_groups: dict[Optional[int], list[int]] = {}
        for position, query in enumerate(queries):
            if type(query) is PointQuery:
                point_groups.setdefault(query.run_id, []).append(position)
            else:
                answers[position] = self.run(query)
        for run_id, positions in point_groups.items():
            if len(positions) == 1:
                position = positions[0]
                answers[position] = self.run(queries[position])
                continue
            batch = self.run(
                BatchQuery(
                    pairs=[
                        (queries[i].source, queries[i].target) for i in positions
                    ],
                    run_id=run_id,
                )
            )
            for position, answer in zip(positions, batch):
                answers[position] = bool(answer)
        return answers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProvenanceSession(over {self._target.describe()})"
