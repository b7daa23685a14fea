"""The incrementally maintained batch kernel over a still-executing run.

PR 3 fronted :class:`~repro.skeleton.online.OnlineRun` through the session
by recompiling a full engine whenever the run's version token moved — every
appended execution threw away the compiled label arrays and rebuilt them
from scratch, an O(nR) cost per event that dominates append-heavy
monitoring workloads.  :class:`OnlineKernel` patches the compiled structure
instead (the FO+MOD-under-updates principle of incremental view
maintenance):

* the three context-coordinate columns live in capacity-doubling arrays in
  **append order** — an execution recorded into a scope that is already
  nonempty cannot move any existing label (positions are counted over the
  nonempty ``+`` nodes only, and adding a vertex to a counted node changes
  no position), so the new row is appended **in place** and only the
  hot-pair LRU is invalidated;
* a structural change that can move existing labels — a scope turning
  nonempty for the first time — triggers a full rebuild of the arrays;
* the skeleton fall-through runs through a private
  :class:`~repro.engine.kernels.SpecKernel` compiled once (the
  specification never changes while a run executes).

Vertex handles equal append order, so unlike the per-rebuild engines this
kernel's handles stay valid for the run's whole lifetime.  The kernel
exposes the engine surface the session planner drives (``reaches`` /
``reaches_batch`` / ``reaches_many_ids`` / ``intern_pairs`` /
``dependency_sweep``) and counts its maintenance work in :attr:`stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable

import numpy as _np

from repro.engine.kernels import check_handles, compile_spec_kernel
from repro.engine.query import DEFAULT_CACHE_SIZE
from repro.exceptions import LabelingError

__all__ = ["OnlineKernel", "OnlineKernelStats"]

_MISS = object()


@dataclass
class OnlineKernelStats:
    """Maintenance and query counters of one :class:`OnlineKernel`."""

    #: full array recompiles (the initial build plus every structural change)
    rebuilds: int = 0
    #: in-place extensions (appends absorbed without a rebuild)
    extensions: int = 0
    #: rows appended across all extensions
    appended_rows: int = 0
    #: point queries answered
    queries: int = 0
    #: point queries served from the hot-pair LRU
    cache_hits: int = 0


class OnlineKernel:
    """Batch queries over an :class:`~repro.skeleton.online.OnlineRun`.

    Call :meth:`sync` after recording events (the session target does this
    before every query); queries always answer from the run recorded so
    far.  ``cache_size`` bounds the hot-pair LRU, which is invalidated —
    never recompiled around — on every append.
    """

    kernel_name = "incremental-online"

    def __init__(self, online: Any, *, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._online = online
        self._spec_kernel = compile_spec_kernel(online.spec_index)
        self._cache_size = cache_size
        self._pair_cache: OrderedDict = OrderedDict()
        self.stats = OnlineKernelStats()
        self._view = online.query_view()
        self._vertices: list = []
        self._id_of: dict = {}
        self._origins: list[int] = []
        self._count = 0
        self._capacity = 0
        self._plan_len = -1
        self._positions: dict[int, tuple[int, int, int]] = {}
        self._rebuild()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Fold events recorded since the last call into the compiled arrays.

        Appends whose context scope already has encoded positions extend
        the arrays in place; anything that can move existing labels (a
        newly nonempty scope) rebuilds.  New plan nodes that stayed empty
        change no positions and are absorbed for free.  The appended
        suffix comes from the run's append log
        (:meth:`~repro.skeleton.online.OnlineRun.appended_executions`), so
        one sync costs O(appended) — not O(recorded) as the old walk over
        the context dict did.
        """
        online = self._online
        context = online.context
        count_now = len(context)
        plan_len = len(online.plan)
        if count_now == self._count and plan_len == self._plan_len:
            return
        if count_now < self._count:  # pragma: no cover - defensive
            self._rebuild()
            return
        appended_of = getattr(online, "appended_executions", None)
        if appended_of is not None:
            appended = appended_of(self._count)
        else:  # pragma: no cover - duck-typed runs without an append log
            appended = list(islice(context.items(), self._count, None))
        if any(node_id not in self._positions for _, node_id in appended):
            # a scope turned nonempty: positions of existing nodes shifted
            self._rebuild()
            return
        for vertex, node_id in appended:
            self._append_row(vertex, self._positions[node_id])
        if appended:
            self.stats.extensions += 1
            self.stats.appended_rows += len(appended)
            # answers between existing executions cannot change on a pure
            # append, but the LRU is the one structure the contract says to
            # invalidate — it repopulates on the next few point queries
            self._pair_cache.clear()
        self._plan_len = plan_len

    def _rebuild(self) -> None:
        online = self._online
        encoding = online.context_encoding()
        self._positions = dict(encoding.positions)
        context = online.context
        size = len(context)
        self._vertices = list(context)
        self._id_of = {vertex: i for i, vertex in enumerate(self._vertices)}
        position_of = self._spec_kernel.position_of
        self._origins = [position_of[vertex.module] for vertex in self._vertices]
        self._capacity = max(8, size)
        self._q1 = _np.empty(self._capacity, dtype=_np.int64)
        self._q2 = _np.empty(self._capacity, dtype=_np.int64)
        self._q3 = _np.empty(self._capacity, dtype=_np.int64)
        for i, node_id in enumerate(context.values()):
            self._q1[i], self._q2[i], self._q3[i] = self._positions[node_id]
        self._count = size
        self._plan_len = len(online.plan)
        self._pair_cache.clear()
        self.stats.rebuilds += 1

    def _append_row(self, vertex, position: tuple[int, int, int]) -> None:
        if self._count == self._capacity:
            self._grow()
        i = self._count
        self._q1[i], self._q2[i], self._q3[i] = position
        self._vertices.append(vertex)
        self._id_of[vertex] = i
        self._origins.append(self._spec_kernel.position_of[vertex.module])
        self._count = i + 1

    def _grow(self) -> None:
        new_capacity = max(8, self._capacity * 2)
        for name in ("_q1", "_q2", "_q3"):
            grown = _np.empty(new_capacity, dtype=_np.int64)
            grown[: self._count] = getattr(self, name)[: self._count]
            setattr(self, name, grown)
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # introspection (the engine surface the session planner reads)
    # ------------------------------------------------------------------
    @property
    def index(self) -> Any:
        """The live query view of the run (capability flags, duck type)."""
        return self._view

    @property
    def online(self) -> Any:
        """The online run this kernel maintains arrays for."""
        return self._online

    @property
    def cache_size(self) -> int:
        """Capacity of the hot-pair LRU (0 = disabled)."""
        return self._cache_size

    def cache_stats(self) -> dict:
        """The maintenance counters plus current LRU occupancy."""
        stats = self.stats
        return {
            "kernel": self.kernel_name,
            "rebuilds": stats.rebuilds,
            "extensions": stats.extensions,
            "appended_rows": stats.appended_rows,
            "queries": stats.queries,
            "cache_hits": stats.cache_hits,
            "hot_pairs_cached": len(self._pair_cache),
        }

    def clear_cache(self) -> None:
        """Drop every memoized hot pair."""
        self._pair_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineKernel(run={self._online.name!r}, rows={self._count}, "
            f"rebuilds={self.stats.rebuilds}, extensions={self.stats.extensions})"
        )

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, vertex) -> int:
        """Resolve one recorded execution to its append-order handle."""
        self.sync()
        identifier = self._id_of.get(vertex)
        if identifier is None:
            raise LabelingError(f"execution {vertex} has not been recorded")
        return identifier

    def intern_pairs(self, pairs: Iterable):
        """Map ``(source, target)`` pairs to two parallel handle arrays."""
        self.sync()
        id_of = self._id_of
        sources = []
        targets = []
        for source, target in pairs:
            for vertex in (source, target):
                if vertex not in id_of:
                    raise LabelingError(f"execution {vertex} has not been recorded")
            sources.append(id_of[source])
            targets.append(id_of[target])
        return (
            _np.asarray(sources, dtype=_np.int64),
            _np.asarray(targets, dtype=_np.int64),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reaches(self, source, target) -> bool:
        """One point query through the hot-pair LRU."""
        self.sync()
        self.stats.queries += 1
        key = (self._id_of.get(source), self._id_of.get(target))
        if key[0] is None or key[1] is None:
            missing = source if key[0] is None else target
            raise LabelingError(f"execution {missing} has not been recorded")
        if self._cache_size == 0:
            return self._pair_answer(*key)
        cache = self._pair_cache
        cached = cache.get(key, _MISS)
        if cached is not _MISS:
            cache.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        answer = self._pair_answer(*key)
        cache[key] = answer
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        return answer

    def _pair_answer(self, source_id: int, target_id: int) -> bool:
        """Scalar Algorithm 3 over the compiled rows (fast path + fall-through)."""
        q1, q2, q3 = self._q1, self._q2, self._q3
        return self._spec_kernel.point(
            (q1[source_id], q2[source_id], q3[source_id]),
            (q1[target_id], q2[target_id], q3[target_id]),
            self._origins[source_id],
            self._origins[target_id],
        )

    def reaches_batch(self, pairs: Iterable) -> list:
        """Answer a batch of ``(source, target)`` pairs, one boolean per pair."""
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        source_ids, target_ids = self.intern_pairs(pairs)
        return self._evaluate_rows(source_ids, target_ids).tolist()

    def reaches_many_ids(self, source_ids, target_ids):
        """Answer a pre-interned batch of append-order handles."""
        self.sync()
        return self._evaluate_rows(*check_handles(source_ids, target_ids, self._count))

    def _rows(self):
        """Zero-copy views of the live portion of the capacity-doubled arrays."""
        n = self._count
        return self._q1[:n], self._q2[:n], self._q3[:n]

    def _evaluate_rows(self, source_ids, target_ids):
        q1, q2, q3 = self._rows()
        return self._spec_kernel.pairs(
            q1, q2, q3, self._origins, source_ids, target_ids
        )

    def dependency_sweep(self, anchor, *, downstream: bool = True) -> list:
        """Every recorded execution *anchor* reaches (or that reaches it)."""
        anchor_id = self.intern(anchor)
        q1, q2, q3 = self._rows()
        answers = self._spec_kernel.sweep(
            q1,
            q2,
            q3,
            self._origins,
            anchor_id,
            downstream=downstream,
        )
        vertices = self._vertices
        return [vertices[i] for i in _np.flatnonzero(answers).tolist()]
