"""The labeling-scheme abstraction ``(D, φ, π)`` (Definition 7).

A reachability labeling scheme assigns every vertex of a directed graph a
label (``φ``) such that a binary predicate over two labels (``π``) decides
reachability.  :class:`ReachabilityIndex` is the concrete form used
throughout this library: an index is *built* for one graph, hands out labels
via :meth:`label_of`, decides reachability from labels via
:meth:`reaches_labels`, and reports its space usage so that the benchmark
harness can reproduce the label-length experiments of Section 8.

The same interface serves both roles the paper distinguishes:

* labeling the *specification* (skeleton labels, Section 7), and
* labeling a *run* directly (the ``TCM`` and ``BFS`` baselines of Figures
  15–17).
"""

from __future__ import annotations

import abc
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any, Optional

from repro.exceptions import LabelingError, VertexNotFoundError
from repro.graphs.digraph import DiGraph
from repro.graphs.handles import VertexInterner, intern_pair_arrays

__all__ = [
    "ReachabilityIndex",
    "VertexHandleAPI",
    "QueryCapabilities",
    "capabilities_of",
]

Vertex = Hashable


@dataclass(frozen=True)
class QueryCapabilities:
    """What a query planner may assume about one query target.

    The session planner (:mod:`repro.api`) and the engine's kernel
    compiler read these *declared* capabilities instead of testing concrete
    classes, so any object with the ``(D, φ, π)`` duck type — an index, a
    labeled run, a store's resident run, an online-run adapter — plugs into the
    same plans by setting the corresponding class attributes.
    """

    #: answers derived from labels stay valid for the target's lifetime;
    #: ``False`` means plans must neither memoize answers nor snapshot labels
    stable_labels: bool
    #: the :class:`VertexHandleAPI` surface (``intern_pairs`` /
    #: ``reaches_many_ids``) is available
    handles: bool
    #: which per-scheme batch-kernel family compiles for this target
    #: (``None`` = only the generic label-table kernel applies)
    kernel_hint: Optional[str]
    #: a ``reaches_many`` batch entry point exists
    batch: bool
    #: the labeled vertex universe can be enumerated (dependency sweeps)
    sweep_domain: bool
    #: the scheme's ``π`` is a range predicate over the persisted label
    #: columns, so stored-run sweeps can be answered by indexed SQL range
    #: scans instead of streaming labels through a kernel
    pushdown: bool
    #: the index accepts ``insert_edge`` / ``delete_edge`` and repairs its
    #: labels in place (per-scheme delta strategy or dirty-region rebuild,
    #: see :mod:`repro.dynamic`); consumers must then track
    #: ``update_version`` to invalidate anything derived from labels
    mutable: bool


def capabilities_of(target: Any) -> QueryCapabilities:
    """Read the declared capability flags of one query target.

    Every flag is an ordinary attribute lookup with a conservative default,
    so duck-typed targets that predate the flags still plan correctly (they
    get the generic kernel and the object-pair paths).
    """
    has_handles = getattr(type(target), "interner", None) is not None
    return QueryCapabilities(
        stable_labels=bool(getattr(target, "stable_labels", True)),
        handles=has_handles,
        kernel_hint=getattr(target, "kernel_hint", None),
        batch=getattr(target, "reaches_many", None) is not None,
        sweep_domain=has_handles,
        pushdown=bool(getattr(target, "pushdown", False)),
        mutable=bool(getattr(target, "mutable", False)),
    )


class VertexHandleAPI:
    """Mixin: the interned integer-handle query surface of a labeling index.

    Hosts must provide ``label_of`` / ``reaches_labels`` / ``reaches_many``
    and a ``stable_labels`` attribute, plus the two template hooks
    :meth:`_handle_vertices` (the labeled vertex universe, in the order
    handles are assigned) and :meth:`_handle_version` (a token that changes
    when that universe changes; ``None`` means it never does).

    The mixin then offers the handle-native counterparts of the object API:
    :meth:`intern` / :meth:`intern_pairs` map vertices to handles **once**
    at the workload boundary, and :meth:`reaches_ids` /
    :meth:`reaches_many_ids` answer queries from handles alone — no
    per-query dictionary lookups.  Handles index a per-index label table, so
    they are only meaningful for the index that issued them.
    """

    _handle_interner: Optional[VertexInterner] = None
    _handle_interner_version: Any = None
    _handle_label_table: Optional[list] = None

    # -- template hooks -------------------------------------------------
    def _handle_vertices(self):
        """The vertex universe handles are assigned over, in handle order."""
        raise NotImplementedError  # pragma: no cover - hosts override

    def _handle_version(self):
        """Staleness token for the vertex universe (``None`` = immutable)."""
        return None

    # -- interning ------------------------------------------------------
    @property
    def interner(self) -> VertexInterner:
        """The vertex <-> handle table of this index (built on first use).

        For indexes that answer from a live graph (``stable_labels`` is
        ``False``) the table is validated against the graph's vertex version
        on every access: handles survive edge mutations but a changed vertex
        *set* raises :class:`~repro.exceptions.LabelingError` rather than
        silently remapping identities.
        """
        if self._handle_interner is None:
            self._handle_interner = VertexInterner(self._handle_vertices())
            self._handle_interner_version = self._handle_version()
        elif not getattr(self, "stable_labels", True):
            if self._handle_version() != self._handle_interner_version:
                raise LabelingError(
                    "vertex handles are stale: the vertex set changed after "
                    "the interner was built; re-intern against a fresh index"
                )
        return self._handle_interner

    def intern(self, vertex: Vertex) -> int:
        """Resolve *vertex* to its integer handle (unknown vertices raise)."""
        try:
            return self.interner.id_of(vertex)
        except VertexNotFoundError:
            raise LabelingError(
                f"vertex was not labeled by this index: {vertex!r}"
            ) from None

    def intern_pairs(self, pairs: Sequence[tuple]):
        """Resolve ``(source, target)`` pairs to two parallel handle arrays.

        This is the one-time boundary conversion: do it once per workload,
        keep the arrays, and replay them through :meth:`reaches_many_ids`
        (or an engine kernel) as often as needed.
        """
        return intern_pair_arrays(self.interner.id_map, pairs)

    # -- handle-native queries ------------------------------------------
    def _handle_labels_cacheable(self) -> bool:
        """Whether the handle-ordered label table may be built once and kept.

        Defaults to ``stable_labels``; hosts whose *labels* are frozen even
        though their *answers* track a live structure override this (e.g. a
        skeleton-labeled run over a traversal-backed spec index: the run
        labels never change, only the fall-through predicate is live).
        """
        return getattr(self, "stable_labels", True)

    def _handle_labels(self) -> list:
        """Labels in handle order (cached when the host's labels are frozen)."""
        interner = self.interner  # staleness check happens here
        if self._handle_labels_cacheable():
            if self._handle_label_table is None:
                label_of = self.label_of
                self._handle_label_table = [label_of(v) for v in interner]
            return self._handle_label_table
        label_of = self.label_of
        return [label_of(v) for v in interner]

    def _check_handle(self, identifier, size: int) -> int:
        if not 0 <= identifier < size:
            raise LabelingError(f"unknown vertex handle: {identifier!r}")
        return identifier

    def reaches_ids(self, source_id: int, target_id: int) -> bool:
        """Handle-native point query: ``π`` applied to two interned handles."""
        labels = self._handle_labels()
        size = len(labels)
        self._check_handle(source_id, size)
        self._check_handle(target_id, size)
        return self.reaches_labels(labels[source_id], labels[target_id])

    def reaches_many_ids(self, source_ids, target_ids) -> list:
        """Handle-native batch query: one answer per ``(source, target)`` handle pair.

        *source_ids* and *target_ids* are parallel integer sequences (the
        shape :meth:`intern_pairs` returns).  Out-of-range handles raise
        :class:`~repro.exceptions.LabelingError`; validation is two O(n)
        reductions, not a per-pair branch.
        """
        if len(source_ids) != len(target_ids):
            raise LabelingError(
                "source_ids and target_ids must have the same length "
                f"({len(source_ids)} != {len(target_ids)})"
            )
        labels = self._handle_labels()
        size = len(labels)
        if len(source_ids):
            for ids in (source_ids, target_ids):
                low, high = min(ids), max(ids)
                if low < 0 or high >= size:
                    self._check_handle(low if low < 0 else high, size)
        label_pairs = [
            (labels[s], labels[t]) for s, t in zip(source_ids, target_ids)
        ]
        return self.reaches_many(label_pairs)


class ReachabilityIndex(VertexHandleAPI, abc.ABC):
    """A reachability labeling scheme instantiated for one fixed graph."""

    #: short scheme name used by the registry and the benchmark reports
    scheme_name: str = "abstract"

    #: which batch-kernel family :func:`repro.engine.kernels.build_kernel`
    #: compiles for this scheme (a declared capability, read through
    #: :func:`capabilities_of`); ``None`` selects the generic label-table
    #: kernel.  Subclasses that change their predicate's semantics must
    #: reset this to ``None`` rather than inherit a kernel that no longer
    #: matches.
    kernel_hint: Optional[str] = None

    #: whether the scheme's predicate ``π`` is a pure range comparison over
    #: the persisted label columns — the property the storage layer's SQL
    #: pushdown needs to answer sweeps as indexed range scans.  True only
    #: for the interval-shaped schemes (interval, tree-cover, chain);
    #: set-intersection (2-hop), matrix (tcm) and traversal schemes stay
    #: kernel-only.  Like ``kernel_hint``, subclasses that change predicate
    #: semantics must reset this to ``False``.
    pushdown: bool = False

    #: whether answers derived from labels stay valid for the index's
    #: lifetime.  True for every label-materializing scheme (labels are
    #: computed at build time); the traversal schemes set it to False
    #: because they answer from the live graph, so consumers (e.g. the
    #: query engine's hot-pair cache) must not memoize their answers.
    stable_labels: bool = True

    #: whether the index supports in-place edge updates through
    #: :meth:`insert_edge` / :meth:`delete_edge`.  ``True`` for every
    #: registered scheme (each has a delta strategy or a dirty-region
    #: fallback in :mod:`repro.dynamic`); duck-typed targets that predate
    #: the update surface — labeled runs, resident stored runs — default to
    #: ``False`` and reject updates.
    mutable: bool = False

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph

    # -- vertex-handle template hooks (see VertexHandleAPI) -------------
    def _handle_vertices(self):
        return self._graph.vertices()

    def _handle_version(self):
        return getattr(self._graph, "vertex_version", None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, **options: Any) -> "ReachabilityIndex":
        """Build an index for *graph* (the labeling function ``φ``)."""
        return cls(graph, **options)

    @property
    def graph(self) -> DiGraph:
        """The graph this index was built for."""
        return self._graph

    # ------------------------------------------------------------------
    # the (D, φ, π) interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def label_of(self, vertex: Vertex) -> Any:
        """Return ``φ(v)`` — the reachability label of *vertex*."""

    @abc.abstractmethod
    def reaches_labels(self, source_label: Any, target_label: Any) -> bool:
        """Return ``π(φ(u), φ(v))`` — whether the first label reaches the second.

        Reachability is reflexive: a label always reaches itself.
        """

    def reaches(self, source: Vertex, target: Vertex) -> bool:
        """Convenience wrapper: decide reachability between two vertices."""
        return self.reaches_labels(self.label_of(source), self.label_of(target))

    # ------------------------------------------------------------------
    # dynamic updates (mutable schemes only; see repro.dynamic)
    # ------------------------------------------------------------------
    @property
    def update_version(self) -> int:
        """Monotone token bumped by every applied edge update.

        The sibling of ``vertex_version`` on the edge axis: it follows the
        underlying graph's :attr:`~repro.graphs.digraph.DiGraph.update_version`
        counter, so anything compiled from this index's labels (engine
        kernels, hot-pair caches, session plans) can
        snapshot the token and recompile when it moves.
        """
        return getattr(self._graph, "update_version", 0)

    @property
    def update_log(self):
        """The :class:`repro.dynamic.UpdateLog` of applied updates.

        Every mutable index gets one lazily on its first update; reading it
        before any update returns an empty log.  Immutable duck-typed
        targets never have one.
        """
        from repro.dynamic.log import UpdateLog

        log = getattr(self, "_dynamic_update_log", None)
        if log is None:
            log = UpdateLog()
            self._dynamic_update_log = log
        return log

    def _require_mutable(self) -> None:
        if not type(self).mutable:
            raise LabelingError(
                f"scheme {self.scheme_name!r} does not support in-place "
                "edge updates; rebuild the index for the mutated graph"
            )

    def insert_edge(self, tail: Vertex, head: Vertex) -> None:
        """Insert ``tail -> head`` into the graph and repair the labels.

        Dispatches to the scheme's delta strategy (:mod:`repro.dynamic`);
        updates the delta cannot handle cheaply fall back to a dirty-region
        partial rebuild recorded in :attr:`update_log`.  Inserting an edge
        that would create a cycle raises
        :class:`~repro.exceptions.GraphError` and leaves the index intact.
        """
        self._require_mutable()
        from repro.dynamic.strategies import apply_insert

        apply_insert(self, tail, head)

    def delete_edge(self, tail: Vertex, head: Vertex) -> None:
        """Remove ``tail -> head`` from the graph and repair the labels.

        Missing edges raise :class:`~repro.exceptions.EdgeNotFoundError`
        and leave the index intact.
        """
        self._require_mutable()
        from repro.dynamic.strategies import apply_delete

        apply_delete(self, tail, head)

    def reaches_many(self, label_pairs: Sequence[tuple[Any, Any]]) -> list[bool]:
        """Batch form of :meth:`reaches_labels`: one answer per label pair.

        The batch query engine (:mod:`repro.engine`) resolves vertices to
        labels once and then calls this method with the whole workload, so
        schemes with a cheap predicate override it with a tight specialized
        loop (see ``tcm``, ``interval``, ``2-hop`` and the traversal
        schemes).  The default evaluates ``π`` pair by pair and is always
        correct.
        """
        reaches_labels = self.reaches_labels
        return [reaches_labels(source, target) for source, target in label_pairs]

    # ------------------------------------------------------------------
    # quality metrics (Section 8 measurements)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def label_length_bits(self, vertex: Vertex) -> int:
        """Return the length in bits of the label assigned to *vertex*."""

    def max_label_length_bits(self) -> int:
        """Return the maximum label length over all vertices."""
        lengths = [self.label_length_bits(v) for v in self._graph.vertices()]
        return max(lengths, default=0)

    def average_label_length_bits(self) -> float:
        """Return the average label length over all vertices."""
        lengths = [self.label_length_bits(v) for v in self._graph.vertices()]
        if not lengths:
            return 0.0
        return sum(lengths) / len(lengths)

    def total_label_bits(self) -> int:
        """Return the total index size in bits (sum of all label lengths)."""
        return sum(self.label_length_bits(v) for v in self._graph.vertices())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(scheme={self.scheme_name!r}, "
            f"vertices={self._graph.vertex_count})"
        )
