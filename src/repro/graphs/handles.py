"""The identity layer: interned integer vertex handles.

Every hot path in the library ultimately works on dense integer vertex
identifiers — the CSR arrays, the engine kernels, the stored run labels.
What used to be an implementation detail of :mod:`repro.graphs.csr` is a
first-class surface here:

* :class:`VertexInterner` — a bijective table between arbitrary hashable
  vertices and dense integer *handles* ``0 .. n-1`` in insertion order;
* :func:`resolve_pair_ids` — the one-pass boundary conversion from
  ``(source, target)`` vertex pairs to two parallel numpy handle arrays.

The contract throughout the library is that the object -> handle mapping
happens **once** at the boundary of a workload: callers intern their
vertices (or whole query files) up front and every later tier — labeling
predicates, engine kernels, the provenance store — moves integers around.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Optional

import numpy as _np

from repro.exceptions import LabelingError, VertexNotFoundError

__all__ = ["VertexInterner", "resolve_pair_ids", "intern_pair_arrays"]

Vertex = Hashable


class VertexInterner:
    """A bijective vertex <-> dense-integer table, in insertion order.

    Interning the same vertex twice returns the same identifier; identifiers
    are dense (``0 .. len-1``) so they can index flat arrays directly.
    """

    __slots__ = ("_id_of", "_vertex_at")

    def __init__(self, vertices: Optional[Iterable[Vertex]] = None) -> None:
        self._id_of: dict[Vertex, int] = {}
        self._vertex_at: list[Vertex] = []
        if vertices is not None:
            for vertex in vertices:
                self.intern(vertex)

    def intern(self, vertex: Vertex) -> int:
        """Return the identifier of *vertex*, assigning the next free one if new."""
        identifier = self._id_of.get(vertex)
        if identifier is None:
            identifier = len(self._vertex_at)
            self._id_of[vertex] = identifier
            self._vertex_at.append(vertex)
        return identifier

    def intern_many(self, vertices: Iterable[Vertex]) -> list[int]:
        """Intern every vertex of *vertices* and return their identifiers."""
        intern = self.intern
        return [intern(vertex) for vertex in vertices]

    def id_of(self, vertex: Vertex) -> int:
        """Return the identifier of a known vertex; unknown vertices raise."""
        try:
            return self._id_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertex_at(self, identifier: int) -> Vertex:
        """Return the vertex with the given identifier.

        Identifiers are the dense non-negative integers handed out by
        :meth:`intern`; anything else (including negative values, which
        plain list indexing would silently accept) raises.
        """
        if not 0 <= identifier < len(self._vertex_at):
            raise VertexNotFoundError(identifier)
        return self._vertex_at[identifier]

    @property
    def id_map(self) -> dict[Vertex, int]:
        """The vertex -> identifier dictionary (treat as read-only).

        Exposed so hot paths can bulk-resolve at C speed
        (``map(id_map.__getitem__, ...)``) without a Python-level method
        call per vertex.  Mutating it would corrupt the table.
        """
        return self._id_of

    def vertices(self) -> list[Vertex]:
        """All interned vertices in identifier order (``vertices()[i]`` has id ``i``)."""
        return list(self._vertex_at)

    def __len__(self) -> int:
        return len(self._vertex_at)

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._id_of

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertex_at)


def resolve_pair_ids(id_map: dict, pairs: Sequence[tuple]):
    """Map ``(source, target)`` vertex pairs to two parallel handle arrays.

    The conversion is a single C-level pass (``numpy.fromiter`` over a
    ``map``) into ``int64`` arrays.  A pair member missing from *id_map*
    raises :class:`~repro.exceptions.VertexNotFoundError`.
    """
    flattened = (vertex for pair in pairs for vertex in pair)
    try:
        flat = _np.fromiter(
            map(id_map.__getitem__, flattened),
            dtype=_np.int64,
            count=2 * len(pairs),
        )
    except KeyError as exc:
        raise VertexNotFoundError(exc.args[0]) from None
    return flat[0::2], flat[1::2]


def intern_pair_arrays(id_map: dict, pairs: Sequence[tuple]):
    """:func:`resolve_pair_ids` with the canonical labeling-layer error.

    Every query surface that interns pairs against a label index (the
    handle API mixin, the engine, the kernels) reports an unknown vertex
    the same way; this is the single place that wording lives.
    """
    try:
        return resolve_pair_ids(id_map, pairs)
    except VertexNotFoundError as exc:
        raise LabelingError(
            f"vertex was not labeled by this index: {exc.vertex!r}"
        ) from None
