"""The batched reachability query engine.

Answering a reachability query from labels is a handful of integer
comparisons, so on stored runs the dominant cost of the per-pair API is pure
Python dispatch: two ``label_of`` calls and several method hops per query.
:class:`QueryEngine` restructures that work around a *kernel* compiled once
per index (:mod:`repro.engine.kernels`):

1. **label resolution** — every distinct vertex is resolved to its label
   (and, for the array kernels, into handle-indexed parallel arrays)
   exactly once when the kernel is built, so a batch never re-derives
   labels;
2. **batch dispatch** — :meth:`QueryEngine.reaches_batch` hands the whole
   workload to the kernel, which answers it vectorized (numpy kernels) or
   with the scheme's own tight ``reaches_many`` loop (the generic kernel of
   schemes without an array kernel);
3. **handle-native entry points** — :meth:`QueryEngine.intern_pairs` maps a
   workload's vertex pairs to integer handles **once**, after which
   :meth:`QueryEngine.reaches_many_ids` replays it with zero per-query
   dictionary lookups (the object-pair path pays that resolution on every
   call);
4. **hot-pair memoization** — :meth:`QueryEngine.reaches` and
   :meth:`QueryEngine.reaches_ids` serve point queries through a bounded
   LRU cache keyed on interned handle pairs: handle-keyed hits are a single
   dict probe with no vertex resolution at all, while object-pair hits pay
   two id-map lookups to build the key (comparable to hashing the vertex
   pair) and then the same probe.  Batches bypass the pair cache on
   purpose: probing it per pair would cost more than the vectorized
   evaluation it could save.

The engine works with anything exposing the ``(D, φ, π)`` duck type —
``label_of``/``reaches``/``reaches_labels`` (plus the optional batch method
``reaches_many`` and the :class:`~repro.labeling.base.VertexHandleAPI`
handle surface) — i.e. every
:class:`~repro.labeling.base.ReachabilityIndex` and
:class:`~repro.skeleton.skl.SkeletonLabeledRun` — and over a provenance
store's resident runs, whose label columns are their own kernel
(``kernel_hint = "columns"``).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.kernels import build_kernel
from repro.exceptions import LabelingError
from repro.graphs.handles import intern_pair_arrays

__all__ = ["QueryEngine", "EngineStats", "DEFAULT_CACHE_SIZE"]

Vertex = Hashable

#: default capacity of the hot-pair LRU cache used by the point-query path
DEFAULT_CACHE_SIZE = 65_536

_MISS = object()


@dataclass
class EngineStats:
    """Running counters of one :class:`QueryEngine` (reset with :meth:`reset`)."""

    queries: int = 0
    batches: int = 0
    cache_hits: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of all queries answered from the hot-pair cache."""
        if self.queries == 0:
            return 0.0
        return self.cache_hits / self.queries

    def reset(self) -> None:
        """Zero every counter."""
        self.queries = 0
        self.batches = 0
        self.cache_hits = 0


class QueryEngine:
    """Batched reachability queries over one labeling index.

    Parameters
    ----------
    index:
        The labeling index to query: a
        :class:`~repro.labeling.base.ReachabilityIndex`, a
        :class:`~repro.skeleton.skl.SkeletonLabeledRun`, or any object with
        the same ``label_of`` / ``reaches`` / ``reaches_labels`` surface.
    cache_size:
        Capacity of the hot-pair LRU cache used by :meth:`reaches` and
        :meth:`reaches_ids`; ``0`` disables pair memoization.  Forced to
        ``0`` for indexes whose ``stable_labels`` attribute is ``False``
        (the traversal schemes), whose answers track the live graph and
        must not be memoized.
    spec_kernel:
        Optional precompiled :class:`~repro.engine.kernels.SpecKernel` for
        skeleton-labeled indexes.  Engines over many runs of one
        specification can share it so the spec-side compilation (the dense
        fall-through matrix) is paid once, not per engine.
    """

    def __init__(
        self,
        index: Any,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        spec_kernel: Optional[Any] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self._index = index
        self._spec_kernel = spec_kernel
        # The kernel is compiled lazily on the first batch: the point-query
        # path never touches it, and building it can be expensive (label
        # arrays plus, for skeleton runs over non-TCM specs, an all-pairs
        # sweep of the specification).
        self._compiled_kernel = None
        # Traversal-style indexes answer from the live graph
        # (``stable_labels = False``), so memoizing their answers would let
        # point queries go stale after a graph mutation while batches stay
        # fresh; disable the pair cache for them.
        if not getattr(index, "stable_labels", True):
            cache_size = 0
        self._cache_size = cache_size
        # Whether the index exposes the vertex-handle surface; checked on
        # the class so the (possibly lazy) interner is not built here.
        self._has_handles = getattr(type(index), "interner", None) is not None
        # Snapshot of the index's update_version token (mutable indexes bump
        # it on every applied edge update).  Checked on each query entry
        # point; a moved token drops the compiled kernel and the memoized
        # pairs so a mutated index never serves a pre-update answer.
        self._index_version = getattr(index, "update_version", None)
        # The interner's id dict, bound on first point query so the hot
        # path pays two plain dict lookups, not a property chain.
        # (Handles survive edge surgery — only the vertex set invalidates
        # an interner — so this binding outlives edge updates.)
        self._id_map: Optional[dict] = None
        # hot pairs, least recently used first: handle pairs, or vertex
        # pairs for an index without the handle surface
        self._pair_cache: OrderedDict = OrderedDict()
        self.stats = EngineStats()

    def _check_version(self) -> None:
        """Invalidate derived state when the index absorbed an edge update.

        One attribute read per query on the fast path.  When the token
        moved, the compiled kernel (which snapshots labels at build) and
        every memoized hot pair are dropped; the next batch recompiles
        against the repaired labels.  A shared spec kernel is recompiled
        in place only when its own specification mutated.
        """
        current = getattr(self._index, "update_version", None)
        if current != self._index_version:
            self._index_version = current
            self._compiled_kernel = None
            self._pair_cache.clear()
            spec_kernel = self._spec_kernel
            if spec_kernel is not None and getattr(spec_kernel, "stale", False):
                self._spec_kernel = spec_kernel.recompiled()

    @property
    def _kernel(self):
        self._check_version()
        if self._compiled_kernel is None:
            self._compiled_kernel = build_kernel(
                self._index, spec_kernel=self._spec_kernel
            )
        return self._compiled_kernel

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> Any:
        """The underlying labeling index."""
        return self._index

    @property
    def interner(self):
        """The index's vertex <-> handle table (handle-native callers' entry)."""
        if not self._has_handles:
            raise LabelingError(
                f"{type(self._index).__name__} does not expose vertex handles"
            )
        return self._index.interner

    @property
    def kernel_name(self) -> str:
        """Which batch kernel the engine compiled for this index."""
        return self._kernel.name

    @property
    def cache_size(self) -> int:
        """Capacity of the hot-pair LRU cache (0 = disabled)."""
        return self._cache_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        compiled = self._compiled_kernel.name if self._compiled_kernel else "(lazy)"
        return (
            f"{type(self).__name__}(index={type(self._index).__name__}, "
            f"kernel={compiled!r}, "
            f"cache={len(self._pair_cache)}/{self._cache_size})"
        )

    # ------------------------------------------------------------------
    # interning (the one-time object -> handle boundary)
    # ------------------------------------------------------------------
    def intern(self, vertex: Vertex) -> int:
        """Resolve one vertex to its integer handle (unknown vertices raise)."""
        intern = getattr(self._index, "intern", None)
        if intern is not None:
            return intern(vertex)
        identifier = self.interner.id_map.get(vertex)
        if identifier is None:
            raise LabelingError(
                f"vertex was not labeled by this index: {vertex!r}"
            )
        return identifier

    def intern_pairs(self, pairs: Iterable):
        """Map ``(source, target)`` vertex pairs to two parallel handle arrays.

        Do this once per workload; the arrays replay through
        :meth:`reaches_many_ids` with no further vertex resolution.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        intern_pairs = getattr(self._index, "intern_pairs", None)
        if intern_pairs is not None:
            return intern_pairs(pairs)
        return intern_pair_arrays(self.interner.id_map, pairs)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def reaches(self, source: Vertex, target: Vertex) -> bool:
        """Answer one query through the hot-pair LRU cache.

        The pair is interned once and cached under its handle pair, so the
        same hot pair is shared with :meth:`reaches_ids` callers.
        """
        stats = self.stats
        stats.queries += 1
        self._check_version()
        if self._cache_size == 0:
            return self._index.reaches(source, target)
        if self._has_handles:
            id_map = self._id_map
            if id_map is None:
                # Only reached with the cache enabled, i.e. stable labels:
                # the interner cannot go stale, so binding its dict is safe.
                id_map = self._id_map = self._index.interner.id_map
            source_id = id_map.get(source)
            target_id = id_map.get(target)
            if source_id is None or target_id is None:
                raise LabelingError(
                    "vertex was not labeled by this index: "
                    f"{source if source_id is None else target!r}"
                )
            return self._cached(
                (source_id, target_id),
                lambda: self._index.reaches(source, target),
            )
        # Duck-typed indexes without a handle surface: object-pair keys.
        return self._cached(
            (source, target), lambda: self._index.reaches(source, target)
        )

    def reaches_ids(self, source_id: int, target_id: int) -> bool:
        """Handle-native point query: cache hits skip vertex resolution entirely."""
        stats = self.stats
        stats.queries += 1
        self._check_version()
        reaches_ids = getattr(self._index, "reaches_ids", None)
        if reaches_ids is None:
            raise LabelingError(
                f"{type(self._index).__name__} does not expose vertex handles"
            )
        if self._cache_size == 0:
            return reaches_ids(source_id, target_id)
        return self._cached(
            (source_id, target_id), lambda: reaches_ids(source_id, target_id)
        )

    def _cached(self, key: tuple, compute) -> bool:
        cache = self._pair_cache
        cached = cache.get(key, _MISS)
        if cached is not _MISS:
            cache.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        answer = compute()
        cache[key] = answer
        if len(cache) > self._cache_size:
            cache.popitem(last=False)
        return answer

    def reaches_batch(self, pairs: Iterable) -> list[bool]:
        """Answer a batch of ``(source, target)`` queries via the kernel.

        Returns one boolean per input pair, in order.  Unknown vertices
        raise :class:`~repro.exceptions.LabelingError`, matching the
        per-pair API.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        answers = self._kernel.batch(pairs)
        stats = self.stats
        stats.queries += len(pairs)
        stats.batches += 1
        return answers

    def reaches_many_ids(self, source_ids, target_ids):
        """Answer a pre-interned batch: two parallel handle arrays in, answers out.

        This is the replay hot path: no vertex objects are touched at all.
        Under a numpy kernel the result is the kernel's boolean array
        (convert with ``list(...)`` if needed); the generic kernel returns
        a list.  Out-of-range handles raise
        :class:`~repro.exceptions.LabelingError`.
        """
        answers = self._kernel.batch_ids(source_ids, target_ids)
        stats = self.stats
        stats.queries += len(answers)
        stats.batches += 1
        return answers

    def reaches_pairs(
        self, sources: Iterable[Vertex], targets: Iterable[Vertex]
    ) -> list[bool]:
        """Zip *sources* and *targets* into pairs and answer them as one batch."""
        return self.reaches_batch(list(zip(sources, targets)))

    def dependency_sweep(self, anchor: Vertex, *, downstream: bool = True) -> list:
        """Every labeled vertex *anchor* reaches (or that reaches it), itself excluded.

        The anchored whole-universe sweep behind ``DownstreamQuery`` /
        ``UpstreamQuery`` and the store's dependency queries: the anchor is
        interned once and one handle batch answers every candidate through
        the compiled kernel.  Requires the index's handle surface (the
        vertex universe is enumerated through its interner).
        """
        interner = self.interner
        anchor_id = self.intern(anchor)
        candidates = [i for i in range(len(interner)) if i != anchor_id]
        anchors = [anchor_id] * len(candidates)
        if downstream:
            answers = self.reaches_many_ids(anchors, candidates)
        else:
            answers = self.reaches_many_ids(candidates, anchors)
        vertex_at = interner.vertex_at
        return [
            vertex_at(candidate)
            for candidate, answer in zip(candidates, answers)
            if answer
        ]

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop every memoized hot pair."""
        self._pair_cache.clear()
