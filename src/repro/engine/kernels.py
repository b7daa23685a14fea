"""Per-scheme batch evaluation kernels for the query engine.

A *kernel* is the compiled form of one labeling index: it resolves every
vertex's label (and any derived acceleration structure) **once** at build
time and then answers whole batches of queries with as little per-pair
Python dispatch as possible.  Kernels are compiled against the index's
:class:`~repro.graphs.handles.VertexInterner` — the flat arrays inside a
kernel are indexed by the same integer handles the index hands out — so
they offer two entry points:

* ``batch(pairs)`` — the object boundary: ``(source, target)`` vertex pairs
  are interned in one C-level pass and forwarded to the handle path;
* ``batch_ids(source_ids, target_ids)`` — the handle-native hot path:
  parallel integer-handle arrays go straight into the vectorized
  evaluation, with no per-query dictionary lookups at all.

:func:`build_kernel` picks the best kernel available for an index:

* ``numpy-skl`` — any index with the skeleton surface
  (:class:`~repro.skeleton.skl.SkeletonLabeledRun`, marked
  ``kernel_hint = "skl"``): the
  three context coordinates live in integer arrays, Algorithm 3's fork/loop
  fast path is evaluated vectorized, and the skeleton fall-through becomes
  one fancy-indexing probe of a dense specification reachability matrix
  (``nG²`` bytes, capped by :data:`DENSE_SPEC_LIMIT`; larger specs answer
  fall-throughs through the spec index's own batch path);
* ``numpy-tcm`` — :class:`~repro.labeling.tcm.TCMIndex`: the closure rows
  are bit-packed into a byte matrix so a query is a byte gather plus a
  shift, avoiding CPython's O(n)-digit big-integer shifts on large rows;
* ``numpy-interval`` — :class:`~repro.labeling.interval.IntervalTreeIndex`:
  ``post``/``low`` arrays compared vectorized;
* ``numpy-tree-cover`` — :class:`~repro.labeling.tree_cover.TreeCoverIndex`:
  the per-vertex interval *sets* are flattened into offset arrays and
  probed with one segment-encoded ``searchsorted`` per batch;
* ``numpy-chain`` — :class:`~repro.labeling.chain.ChainIndex`: the per-chain
  reach entries are flattened the same way and matched with one
  segment-encoded ``searchsorted``;
* ``numpy-2hop`` — :class:`~repro.labeling.twohop.TwoHopIndex`: the hop
  sets are bit-packed over the distinct hop centers, making a query a
  byte-row AND plus an any-reduction (capped by :data:`PACKED_HOP_LIMIT`);
* ``python-generic`` — everything else (the traversal schemes, indexes
  with no ``kernel_hint``, and tcm or 2-hop graphs past
  :data:`PACKED_TCM_LIMIT` / :data:`PACKED_HOP_LIMIT`): a persistent
  vertex→label table plus the scheme's own ``reaches_many`` batch path
  (which for the traversal schemes groups queries by source over a
  :class:`~repro.graphs.csr.CSRGraph`).

A target declaring ``kernel_hint = "columns"`` (a provenance store's
resident label columns) is its own kernel: it evaluates batches through
:meth:`SpecKernel.pairs`.

Kernels are internal to :mod:`repro.engine`; the public surface is
:class:`~repro.engine.query.QueryEngine`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as _np

from repro.exceptions import LabelingError
from repro.graphs.handles import intern_pair_arrays
from repro.labeling.chain import ChainIndex
from repro.labeling.interval import IntervalTreeIndex
from repro.labeling.tcm import TCMIndex
from repro.labeling.tree_cover import TreeCoverIndex
from repro.labeling.twohop import TwoHopIndex

__all__ = [
    "build_kernel",
    "check_handles",
    "SpecKernel",
    "compile_spec_kernel",
    "DENSE_SPEC_LIMIT",
    "PACKED_TCM_LIMIT",
    "PACKED_HOP_LIMIT",
]

#: largest specification for which a dense nG x nG reachability matrix is
#: precomputed (one byte per pair; non-TCM schemes additionally pay nG²
#: predicate evaluations at build time)
DENSE_SPEC_LIMIT = 1_024

#: largest graph for which the direct-TCM kernel bit-packs the closure
#: matrix (n²/8 bytes — the same asymptotic budget the TCM labels already
#: occupy as big integers)
PACKED_TCM_LIMIT = 32_768

#: largest graph for which the 2-hop kernel bit-packs the hop sets over the
#: distinct hop centers (2·n·C/8 bytes with C <= n hop centers — the same
#: budget class as the packed TCM matrix)
PACKED_HOP_LIMIT = 32_768


def build_kernel(index: Any, *, spec_kernel: Optional["SpecKernel"] = None):
    """Compile *index* into the best available batch kernel.

    Dispatch reads the index's declared ``kernel_hint`` capability flag
    (see :func:`repro.labeling.base.capabilities_of`) rather than testing
    concrete classes, so any duck-typed target that declares a kernel
    family — the online-run adapter, a store's resident run — compiles
    the same specialized kernel as the class that family was written for.

    *spec_kernel* optionally supplies a precompiled :class:`SpecKernel`
    for skeleton-labeled targets, so sweeps over many runs of one
    specification pay the spec-side compilation exactly once.
    """
    hint = getattr(index, "kernel_hint", None)
    if hint == "columns":
        return index
    if hint == "skl":
        return _SkeletonKernel(index, spec_kernel=spec_kernel)
    if hint == "tcm" and index.closure.vertex_count <= PACKED_TCM_LIMIT:
        return _PackedTCMKernel(index)
    if hint == "interval":
        return _IntervalKernel(index)
    if hint == "tree-cover":
        return _TreeCoverKernel(index)
    if hint == "chain":
        return _ChainKernel(index)
    if hint == "2-hop" and index.graph.vertex_count <= PACKED_HOP_LIMIT:
        return _TwoHopKernel(index)
    return _GenericKernel(index)


# ----------------------------------------------------------------------
# schemes without an array kernel
# ----------------------------------------------------------------------
class _GenericKernel:
    """Persistent label table + the scheme's own ``reaches_many`` loop.

    Always correct for any ``(D, φ, π)`` duck type.  For stable indexes
    each distinct vertex is resolved through ``label_of`` at most once over
    the kernel's lifetime; for indexes whose labels may change
    (``stable_labels = False`` — the traversal schemes, ``OnlineRun``) the
    table only lives for one batch, so every batch sees current labels.
    The handle path delegates to the index's own ``reaches_many_ids``
    (every :class:`~repro.labeling.base.VertexHandleAPI` host has one).
    """

    name = "python-generic"

    def __init__(self, index: Any) -> None:
        self._label_of = index.label_of
        self._persist_labels = getattr(index, "stable_labels", True)
        self._labels: dict = {}
        self._reaches_many_ids = getattr(index, "reaches_many_ids", None)
        reaches_many = getattr(index, "reaches_many", None)
        if reaches_many is None:
            reaches_labels = index.reaches_labels

            def reaches_many(label_pairs: list) -> list:
                return [reaches_labels(a, b) for a, b in label_pairs]

        self._reaches_many = reaches_many

    def batch(self, pairs: Sequence[tuple]) -> list:
        labels = self._labels if self._persist_labels else {}
        label_of = self._label_of
        label_pairs = []
        append = label_pairs.append
        missing = object()
        for source, target in pairs:
            source_label = labels.get(source, missing)
            if source_label is missing:
                source_label = labels[source] = label_of(source)
            target_label = labels.get(target, missing)
            if target_label is missing:
                target_label = labels[target] = label_of(target)
            append((source_label, target_label))
        return self._reaches_many(label_pairs)

    def batch_ids(self, source_ids, target_ids) -> list:
        if self._reaches_many_ids is None:
            raise LabelingError(
                "this index does not expose vertex handles "
                "(no reaches_many_ids); use the object-pair batch API"
            )
        return self._reaches_many_ids(source_ids, target_ids)


# ----------------------------------------------------------------------
# numpy kernels
# ----------------------------------------------------------------------
class _ArrayKernel:
    """Shared plumbing of the numpy kernels: interning and handle checks.

    Subclasses fill their flat arrays in the order of ``index.interner`` and
    implement ``_evaluate(a, b) -> bool ndarray`` over two handle arrays.
    ``batch`` answers object pairs (interned once, then the handle path);
    ``batch_ids`` answers pre-interned handle arrays directly and returns
    the numpy boolean array itself — the zero-copy hot path.
    """

    name = "numpy-abstract"

    def __init__(self, index: Any) -> None:
        self._interner = index.interner
        self._size = len(self._interner)

    def batch(self, pairs: Sequence[tuple]) -> list:
        a, b = intern_pair_arrays(self._interner.id_map, pairs)
        return self._evaluate(a, b).tolist()

    def batch_ids(self, source_ids, target_ids):
        return self._evaluate(*check_handles(source_ids, target_ids, self._size))

    def _evaluate(self, a, b):  # pragma: no cover - subclasses implement
        raise NotImplementedError


def check_handles(source_ids, target_ids, size: int):
    """Validate two parallel handle sequences into a universe of *size*.

    Returns them as ``int64`` arrays; a shape mismatch or a handle outside
    ``0 .. size-1`` raises :class:`~repro.exceptions.LabelingError`.
    """
    source_ids = _np.asarray(source_ids, dtype=_np.int64)
    target_ids = _np.asarray(target_ids, dtype=_np.int64)
    shapes = [ids.shape for ids in (source_ids, target_ids)]
    if shapes[0] != shapes[1] or len(shapes[0]) != 1:
        raise LabelingError(
            "source_ids and target_ids must be parallel one-dimensional "
            f"sequences (got shapes {shapes[0]} and {shapes[1]})"
        )
    for ids in (source_ids, target_ids):
        if len(ids):
            low, high = int(ids.min()), int(ids.max())
            if low < 0 or high >= size:
                raise LabelingError(
                    f"unknown vertex handle: {low if low < 0 else high!r}"
                )
    return source_ids, target_ids


def _pack_closure_rows(rows: Sequence[int], size: int):
    """Bit-pack big-integer closure rows into a little-endian byte matrix."""
    row_bytes = max(1, (size + 7) // 8)
    buffer = b"".join(row.to_bytes(row_bytes, "little") for row in rows)
    return _np.frombuffer(buffer, dtype=_np.uint8).reshape(size, row_bytes)


def _spec_reachability_matrix(spec_index: Any):
    """Dense boolean reachability matrix of a specification index.

    Returns ``(matrix, position_of)`` where ``matrix[i, j]`` says whether
    the ``i``-th spec vertex reaches the ``j``-th.  For a TCM spec index the
    matrix is unpacked straight from the closure rows; any other scheme is
    evaluated all-pairs through its own ``reaches_many``.  ``(None, None)``
    is returned — making the skeleton kernel answer fall-through queries
    through the spec index itself — for specifications beyond
    :data:`DENSE_SPEC_LIMIT` (the dense matrix stores one byte per pair, so
    the cap bounds it at ~1 MiB) and for spec indexes whose answers track
    the live graph (``stable_labels = False``).
    """
    graph = spec_index.graph
    vertices = graph.vertices()
    size = len(vertices)
    if size > DENSE_SPEC_LIMIT:
        return None, None
    if not getattr(spec_index, "stable_labels", True):
        # Traversal-backed spec indexes answer from the live specification
        # graph; snapshotting them into a matrix would freeze answers the
        # per-pair path (and the generic kernel) keep fresh.
        return None, None
    if type(spec_index) is TCMIndex:
        closure = spec_index.closure
        packed = _pack_closure_rows(closure.rows, size)
        matrix = _np.unpackbits(packed, axis=1, bitorder="little")[:, :size]
        return matrix.astype(bool), dict(closure.index)
    kernel = (
        build_kernel(spec_index)
        if getattr(spec_index, "kernel_hint", None) not in (None, "skl")
        else None
    )
    if isinstance(kernel, _ArrayKernel):
        # The scheme compiles its own vectorized kernel (tree-cover, chain,
        # 2-hop, interval): evaluate the all-pairs matrix through it instead
        # of nG² per-pair predicate calls.  Handle order equals vertex order
        # (the interner is built over graph.vertices()).
        ids = _np.arange(size, dtype=_np.int64)
        matrix = _np.asarray(
            kernel.batch_ids(_np.repeat(ids, size), _np.tile(ids, size)),
            dtype=bool,
        ).reshape(size, size)
        return matrix, {vertex: i for i, vertex in enumerate(vertices)}
    labels = [spec_index.label_of(vertex) for vertex in vertices]
    matrix = _np.empty((size, size), dtype=bool)
    reaches_many = spec_index.reaches_many
    for i, source_label in enumerate(labels):
        matrix[i] = reaches_many([(source_label, target) for target in labels])
    return matrix, {vertex: i for i, vertex in enumerate(vertices)}


_MISSING = object()


class SpecKernel:
    """The compiled skeleton fall-through evaluator of one specification index.

    Algorithm 3 splits every query into a coordinate fast path and a
    fall-through to the specification labels; this object is the compiled
    form of that fall-through.  Compiling it is the expensive, *per
    specification* part of a skeleton kernel (the dense ``nG x nG``
    reachability matrix — for non-TCM schemes, ``nG²`` predicate
    evaluations), so it is built **once** per ``(specification, scheme)``
    and shared: every skeleton kernel over runs of that specification
    (:func:`build_kernel`'s ``spec_kernel`` parameter, the provenance
    store's per-spec cache) and every cross-run dependency sweep streams
    per-run label arrays through the same instance.
    """

    def __init__(self, spec_index: Any) -> None:
        self.spec_index = spec_index
        # Update-version snapshot of the spec index at compile time: a
        # mutable spec that absorbs an edge update invalidates the dense
        # matrix and the cached labels, and `stale` flips True so every
        # sharing consumer (engines, the store's per-spec cache) knows to
        # swap in a `recompiled()` instance.
        self.spec_version = getattr(spec_index, "update_version", None)
        self.matrix, self.position_of = _spec_reachability_matrix(spec_index)
        if self.position_of is None:
            self.position_of = {
                module: i for i, module in enumerate(spec_index.graph.vertices())
            }
        #: position -> module name, the inverse of ``position_of``; origins
        #: travel as positions, so fall-throughs without a dense matrix
        #: resolve their spec labels through it
        self.modules = sorted(self.position_of, key=self.position_of.__getitem__)
        self._label_cache: dict = {}

    @property
    def stale(self) -> bool:
        """Whether the specification mutated after this kernel compiled."""
        return getattr(self.spec_index, "update_version", None) != self.spec_version

    def recompiled(self) -> "SpecKernel":
        """A fresh kernel over the same (now mutated) specification index."""
        return SpecKernel(self.spec_index)

    def origin_positions(self, modules: Sequence):
        """Map origin module names to positions: the ``origins`` of sweep and pairs.

        A position is the module's row in the dense matrix when there is
        one, and its index in :attr:`modules` always.
        """
        return _np.fromiter(
            map(self.position_of.__getitem__, modules),
            dtype=_np.int64,
            count=len(modules),
        )

    def _label_of(self, module):
        """The spec label of one module, cached for stable spec indexes."""
        if not getattr(self.spec_index, "stable_labels", True):
            return self.spec_index.label_of(module)
        label = self._label_cache.get(module, _MISSING)
        if label is _MISSING:
            label = self._label_cache[module] = self.spec_index.label_of(module)
        return label

    def sweep(
        self,
        q1,
        q2,
        q3,
        origins: Sequence,
        anchor: int,
        *,
        downstream: bool = True,
    ):
        """Anchored Algorithm-3 sweep over one run's streamed label arrays.

        ``q1``/``q2``/``q3`` are the run's parallel context-coordinate
        arrays (one slot per execution, any row order, any integer width),
        *origins* the parallel origin-module positions
        (:meth:`origin_positions`), *anchor* the row of the anchored
        execution.  Returns one answer per row — ``reaches(anchor, row)``
        when *downstream*, ``reaches(row, anchor)`` otherwise — with the
        anchor's own row forced ``False``, matching the dependency-sweep
        contract of excluding the anchor itself.
        """
        q1, q2, q3 = (_np.asarray(q, dtype=_np.int64) for q in (q1, q2, q3))
        q1a, q2a, q3a = int(q1[anchor]), int(q2[anchor]), int(q3[anchor])
        if downstream:
            fast_mask = (q2a - q2) * (q3a - q3) < 0
            fast = (q1a < q1) & (q3a > q3)
        else:
            fast_mask = (q2 - q2a) * (q3 - q3a) < 0
            fast = (q1 < q1a) & (q3 > q3a)
        if self.matrix is not None:
            origins = _np.asarray(origins)
            if downstream:
                skeleton = self.matrix[origins[anchor], origins]
            else:
                skeleton = self.matrix[origins, origins[anchor]]
            answers = _np.where(fast_mask, fast, skeleton)
            answers[anchor] = False
            return answers
        answers = fast & fast_mask
        fallthrough = _np.flatnonzero(~fast_mask).tolist()
        for i, answer in zip(
            fallthrough,
            self._sweep_fallthrough(origins, anchor, fallthrough, downstream),
        ):
            answers[i] = answer
        answers[anchor] = False
        return answers

    def _spec_labels(self, origins, rows) -> list:
        """The spec labels of the origin modules at *rows*."""
        positions = _np.asarray(origins)[rows].tolist()
        return list(map(self._label_of, map(self.modules.__getitem__, positions)))

    def _sweep_fallthrough(self, origins, anchor, rows, downstream):
        """Spec-label answers for a sweep's fall-through *rows*, in order."""
        if not rows:
            return []
        (anchor_label,) = self._spec_labels(origins, [anchor])
        labels = self._spec_labels(origins, rows)
        if downstream:
            return self.spec_index.reaches_many([(anchor_label, l) for l in labels])
        return self.spec_index.reaches_many([(l, anchor_label) for l in labels])

    def _pairs_fallthrough(self, origins, source_rows, target_rows, slots):
        """Spec-label answers for the fall-through *slots* of a pair batch."""
        if not slots:
            return []
        sources = _np.asarray(source_rows)[slots]
        targets = _np.asarray(target_rows)[slots]
        return self.spec_index.reaches_many(
            list(
                zip(
                    self._spec_labels(origins, sources),
                    self._spec_labels(origins, targets),
                )
            )
        )

    def pairs(self, q1, q2, q3, origins, source_rows, target_rows):
        """Arbitrary-pair Algorithm-3 evaluation over one run's streamed arrays.

        The generalization of :meth:`sweep` from one anchored row to any
        ``(source, target)`` row combination: *source_rows* / *target_rows*
        are parallel row-index sequences into the run's label arrays, and
        the answer per slot is ``reaches(source, target)`` — exactly the
        formula of the compiled skeleton kernel, so answers are
        bit-identical to a per-run engine over the same labels.  This is
        the per-run payload of a cross-run **batch** query: the same pairs
        asked of every run of a specification, each run contributing only
        its streamed label columns.
        """
        q1, q2, q3 = (_np.asarray(q, dtype=_np.int64) for q in (q1, q2, q3))
        s = _np.asarray(source_rows, dtype=_np.int64)
        t = _np.asarray(target_rows, dtype=_np.int64)
        q2s, q2t = q2[s], q2[t]
        q3s, q3t = q3[s], q3[t]
        fast_mask = (q2s - q2t) * (q3s - q3t) < 0
        fast = (q1[s] < q1[t]) & (q3s > q3t)
        if self.matrix is not None:
            origins = _np.asarray(origins)
            return _np.where(fast_mask, fast, self.matrix[origins[s], origins[t]])
        answers = fast & fast_mask
        fallthrough = _np.flatnonzero(~fast_mask).tolist()
        for i, answer in zip(
            fallthrough, self._pairs_fallthrough(origins, s, t, fallthrough)
        ):
            answers[i] = answer
        return answers

    def pair_fallthrough(self, source_origin: int, target_origin: int) -> bool:
        """One scalar skeleton fall-through check between two origin positions."""
        if self.matrix is not None:
            return bool(self.matrix[source_origin, target_origin])
        return bool(
            self.spec_index.reaches_labels(
                self._label_of(self.modules[source_origin]),
                self._label_of(self.modules[target_origin]),
            )
        )

    def point(self, source, target, source_origin: int, target_origin: int) -> bool:
        """Scalar Algorithm 3: two ``(q1, q2, q3)`` labels and their origin positions."""
        q1s, q2s, q3s = source
        q1t, q2t, q3t = target
        if (q2s - q2t) * (q3s - q3t) < 0:
            return bool(q1s < q1t and q3s > q3t)
        return self.pair_fallthrough(source_origin, target_origin)


def compile_spec_kernel(spec_index: Any) -> SpecKernel:
    """Compile the shared fall-through evaluator of one specification index."""
    return SpecKernel(spec_index)


class _SkeletonKernel(_ArrayKernel):
    """Vectorized Algorithm 3 over a skeleton-labeled run."""

    name = "numpy-skl"

    def __init__(self, labeled: Any, *, spec_kernel: Optional[SpecKernel] = None) -> None:
        super().__init__(labeled)
        label_of = labeled.label_of
        labels = [label_of(vertex) for vertex in self._interner]
        size = len(labels)
        q1 = _np.empty(size, dtype=_np.int64)
        q2 = _np.empty(size, dtype=_np.int64)
        q3 = _np.empty(size, dtype=_np.int64)
        for i, label in enumerate(labels):
            q1[i] = label.q1
            q2[i] = label.q2
            q3[i] = label.q3
        self._q1, self._q2, self._q3 = q1, q2, q3
        spec_index = labeled.spec_index
        if spec_kernel is None or spec_kernel.spec_index is not spec_index:
            # A shared kernel is only sound for the exact spec index the
            # run's fall-throughs consult; compile a private one otherwise.
            spec_kernel = SpecKernel(spec_index)
        matrix = spec_kernel.matrix
        self._matrix = matrix
        if matrix is not None:
            position_of = spec_kernel.position_of
            orig = _np.empty(size, dtype=_np.int64)
            for i, vertex in enumerate(self._interner):
                orig[i] = position_of[vertex.module]
            self._orig = orig
            self._skeletons: Optional[list] = None
            self._spec_reaches_many = None
        else:
            # Specification too large for a dense matrix: keep the skeleton
            # labels and answer fall-through queries through the spec index.
            self._orig = None
            self._skeletons = [label.skeleton for label in labels]
            self._spec_reaches_many = spec_index.reaches_many

    def _evaluate(self, a, b):
        q2a, q2b = self._q2[a], self._q2[b]
        q3a, q3b = self._q3[a], self._q3[b]
        fast_mask = (q2a - q2b) * (q3a - q3b) < 0
        fast_answers = (self._q1[a] < self._q1[b]) & (q3a > q3b)
        if self._matrix is not None:
            skeleton_answers = self._matrix[self._orig[a], self._orig[b]]
            return _np.where(fast_mask, fast_answers, skeleton_answers)
        answers = fast_answers & fast_mask
        fallthrough = _np.flatnonzero(~fast_mask)
        if fallthrough.size:
            skeletons = self._skeletons
            label_pairs = [
                (skeletons[a[i]], skeletons[b[i]]) for i in fallthrough.tolist()
            ]
            for i, answer in zip(
                fallthrough.tolist(), self._spec_reaches_many(label_pairs)
            ):
                answers[i] = answer
        return answers


class _PackedTCMKernel(_ArrayKernel):
    """Direct TCM queries as byte gathers on a bit-packed closure matrix."""

    name = "numpy-tcm"

    def __init__(self, index: TCMIndex) -> None:
        super().__init__(index)
        closure = index.closure
        self._packed = _pack_closure_rows(closure.rows, closure.vertex_count)

    def _evaluate(self, a, b):
        bits = (self._packed[a, b >> 3] >> (b & 7)) & 1
        return bits != 0


class _IntervalKernel(_ArrayKernel):
    """Vectorized interval containment tests."""

    name = "numpy-interval"

    def __init__(self, index: IntervalTreeIndex) -> None:
        super().__init__(index)
        size = self._size
        post = _np.empty(size, dtype=_np.int64)
        low = _np.empty(size, dtype=_np.int64)
        for i, vertex in enumerate(self._interner):
            label = index.label_of(vertex)
            post[i] = label.post
            low[i] = label.low
        self._post, self._low = post, low

    def _evaluate(self, a, b):
        post_b = self._post[b]
        return (self._low[a] <= post_b) & (post_b <= self._post[a])


class _TreeCoverKernel(_ArrayKernel):
    """Tree-cover interval *sets* flattened into offset arrays.

    Vertex ``i``'s intervals occupy slots ``offsets[i] : offsets[i + 1]`` of
    the flat ``low`` / ``high`` arrays.  Because each vertex's intervals are
    sorted and disjoint, encoding every slot's ``low`` as
    ``owner * stride + low`` yields one globally sorted array, so a whole
    batch is answered with a single ``searchsorted``: the candidate interval
    for query ``(u, post(v))`` is the last slot whose encoded ``low`` does
    not exceed ``u * stride + post(v)``, and the query holds iff that slot
    still belongs to ``u``'s segment and covers ``post(v)``.
    """

    name = "numpy-tree-cover"

    def __init__(self, index: TreeCoverIndex) -> None:
        super().__init__(index)
        labels = [index.label_of(vertex) for vertex in self._interner]
        self._post = _np.fromiter(
            (label.post for label in labels), dtype=_np.int64, count=self._size
        )
        counts = [len(label.intervals) for label in labels]
        offsets = _np.zeros(self._size + 1, dtype=_np.int64)
        _np.cumsum(counts, out=offsets[1:])
        flat = [pair for label in labels for pair in label.intervals]
        lows = _np.fromiter((low for low, _ in flat), dtype=_np.int64, count=len(flat))
        highs = _np.fromiter((high for _, high in flat), dtype=_np.int64, count=len(flat))
        # postorder numbers start at 1 but pass n once an edge update
        # renumbers a forest subtree, so the stride comes from the labels
        self._stride = int(max(self._post.max(initial=0), highs.max(initial=0))) + 2
        owners = _np.repeat(_np.arange(self._size, dtype=_np.int64), counts)
        self._encoded_low = owners * self._stride + lows
        self._offsets = offsets
        self._high = highs

    def _evaluate(self, a, b):
        post_b = self._post[b]
        keys = a * self._stride + post_b
        slots = _np.searchsorted(self._encoded_low, keys, side="right") - 1
        valid = slots >= self._offsets[a]
        slots = _np.where(valid, slots, 0)
        return valid & (self._high[slots] >= post_b)


class _ChainKernel(_ArrayKernel):
    """Chain reach entries flattened into offset arrays.

    Each vertex's ``reach`` entries are sorted by chain id, so encoding a
    slot as ``owner * chain_count + chain`` yields a globally sorted array
    with at most one slot per ``(owner, chain)`` key; one exact-match
    ``searchsorted`` per batch finds, for every query ``(u, v)``, ``u``'s
    earliest reachable position on ``v``'s chain (or nothing).
    """

    name = "numpy-chain"

    def __init__(self, index: ChainIndex) -> None:
        super().__init__(index)
        labels = [index.label_of(vertex) for vertex in self._interner]
        self._chain = _np.fromiter(
            (label.chain for label in labels), dtype=_np.int64, count=self._size
        )
        self._position = _np.fromiter(
            (label.position for label in labels), dtype=_np.int64, count=self._size
        )
        counts = [len(label.reach) for label in labels]
        flat = [entry for label in labels for entry in label.reach]
        chains = _np.fromiter((c for c, _ in flat), dtype=_np.int64, count=len(flat))
        positions = _np.fromiter((p for _, p in flat), dtype=_np.int64, count=len(flat))
        self._stride = max(1, index.chain_count)
        owners = _np.repeat(_np.arange(self._size, dtype=_np.int64), counts)
        self._encoded = owners * self._stride + chains
        self._reach_position = positions

    def _evaluate(self, a, b):
        keys = a * self._stride + self._chain[b]
        if not len(self._encoded):  # empty graph edge case
            return _np.zeros(len(a), dtype=bool)
        slots = _np.searchsorted(self._encoded, keys, side="left")
        clipped = _np.minimum(slots, len(self._encoded) - 1)
        hit = (slots < len(self._encoded)) & (self._encoded[clipped] == keys)
        return hit & (self._reach_position[clipped] <= self._position[b])


class _TwoHopKernel(_ArrayKernel):
    """2-hop queries as byte-row intersections of bit-packed hop sets."""

    name = "numpy-2hop"

    def __init__(self, index: TwoHopIndex) -> None:
        super().__init__(index)
        labels = [index.label_of(vertex) for vertex in self._interner]
        centers: dict = {}
        for label in labels:
            for center in sorted(
                label.out_hops | label.in_hops, key=self._interner.id_of
            ):
                centers.setdefault(center, len(centers))
        row_bytes = max(1, (len(centers) + 7) // 8)
        out_masks = _np.zeros((self._size, row_bytes), dtype=_np.uint8)
        in_masks = _np.zeros((self._size, row_bytes), dtype=_np.uint8)
        for i, label in enumerate(labels):
            for center in label.out_hops:
                position = centers[center]
                out_masks[i, position >> 3] |= 1 << (position & 7)
            for center in label.in_hops:
                position = centers[center]
                in_masks[i, position >> 3] |= 1 << (position & 7)
        self._out = out_masks
        self._in = in_masks

    def _evaluate(self, a, b):
        return (self._out[a] & self._in[b]).any(axis=1)
