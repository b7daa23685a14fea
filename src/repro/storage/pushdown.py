"""SQL pushdown: answer stored-run dependency sweeps inside SQLite.

A stored run's labels are three context coordinates per execution plus the
origin module name — and the Algorithm-3 sweep over them decomposes into two
pieces a B-tree can answer:

* **range branch** — rows on the coordinate fast path.  The kernel computes
  ``fast_mask & fast``; substituting the definitions, a downstream row
  answers ``True`` on the fast path iff ``q1 > A1 AND q2 > A2 AND q3 < A3``
  (all three strict, anchor coordinates ``A*``), and an upstream row iff the
  three comparisons flip.  Proof sketch: ``fast`` is ``A1 < q1 AND A3 > q3``;
  given ``A3 > q3``, the mask ``(A2 - q2) * (A3 - q3) < 0`` holds exactly
  when ``A2 < q2``.  That conjunction is one seek + scan of the
  ``idx_run_labels_pushdown_range(run_id, q1, q2, q3, ...)`` covering index.

* **module branch** — rows that fall through to the specification labels,
  i.e. rows with ``(A2 - q2) * (A3 - q3) >= 0`` (the mask is symmetric in
  the two directions).  The kernel answers those from the spec-level
  reachability of the two *origin modules*, which does not depend on the
  run at all — so the set of origin modules the anchor's module reaches
  (or is reached by) is computed once in Python from the compiled spec
  kernel and pushed down as a ``module IN (...)`` list over the
  ``idx_run_labels_pushdown_module(run_id, module, ...)`` covering index.

The two branches partition the candidate rows by the sign of the mask, so a
``UNION ALL``-style collection is duplicate-free; the anchor row itself is
excluded by the strict inequalities in the range branch and explicitly in
the module branch.  Multiple runs are swept in one statement by joining
``run_labels`` to itself on ``run_id`` with the anchor's ``(module,
instance)`` pinned — the anchor seek rides the table's primary key, the
candidate side rides the v3 covering indexes, and only matching rows ever
cross the SQL boundary.  Results are sorted per run into persisted-interner
handle order (``vertex_id``), making answers bit-identical to the streamed
kernel path.
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.exceptions import LabelingError, StorageError, VertexNotFoundError
from repro.faults import fault_point
from repro.labeling.registry import get_scheme
from repro.storage.database import (
    SQLITE_MAX_VARIABLE_NUMBER,
    iter_value_chunks,
    row_value_chunk,
)

__all__ = [
    "scheme_supports_pushdown",
    "reachable_modules",
    "pushdown_sweep",
    "range_branch_sql",
    "module_branch_sql",
]

Execution = tuple[str, int]

_SELECT = (
    "SELECT r.run_id, r.module, r.instance, r.vertex_id "
    "FROM run_labels AS a JOIN run_labels AS r ON r.run_id = a.run_id "
)


def scheme_supports_pushdown(scheme_name: str) -> bool:
    """Whether *scheme_name* declares the range-predicate pushdown capability."""
    return bool(getattr(get_scheme(scheme_name), "pushdown", False))


def range_branch_sql(run_count: int, *, downstream: bool) -> str:
    """The coordinate fast-path branch over *run_count* anchored runs."""
    runs = ", ".join("?" * run_count)
    if downstream:
        predicate = "r.q1 > a.q1 AND r.q2 > a.q2 AND r.q3 < a.q3"
    else:
        predicate = "r.q1 < a.q1 AND r.q2 < a.q2 AND r.q3 > a.q3"
    return (
        f"{_SELECT}"
        f"WHERE a.run_id IN ({runs}) AND a.module = ? AND a.instance = ? "
        f"AND {predicate}"
    )


def module_branch_sql(run_count: int, module_count: int) -> str:
    """The spec-label fall-through branch (direction-independent mask)."""
    runs = ", ".join("?" * run_count)
    modules = ", ".join("?" * module_count)
    return (
        f"{_SELECT}"
        f"WHERE a.run_id IN ({runs}) AND a.module = ? AND a.instance = ? "
        f"AND r.module IN ({modules}) "
        "AND (a.q2 - r.q2) * (a.q3 - r.q3) >= 0 "
        "AND (r.module <> a.module OR r.instance <> a.instance)"
    )


def reachable_modules(
    spec_kernel, anchor_module: str, *, downstream: bool
) -> Optional[list[str]]:
    """Origin modules whose fall-through answer is True for *anchor_module*.

    Computed from the compiled spec kernel's own label cache and the spec
    index's ``reaches_many`` — the exact evaluator the streamed kernel
    consults on fall-through rows — so the pushed-down ``module IN`` list
    reproduces the kernel's spec-level answers verbatim.  Returns ``None``
    when the anchor module is not part of the specification (the kernel
    path would never see such an anchor: it has no stored label).
    """
    spec_index = spec_kernel.spec_index
    try:
        anchor_label = spec_kernel._label_of(anchor_module)
    except (LabelingError, VertexNotFoundError, KeyError):
        return None
    modules = list(spec_index.graph.vertices())
    if downstream:
        pairs = [(anchor_label, spec_kernel._label_of(m)) for m in modules]
    else:
        pairs = [(spec_kernel._label_of(m), anchor_label) for m in modules]
    answers = spec_index.reaches_many(pairs)
    return [m for m, answer in zip(modules, answers) if answer]


def _sort_key(row: tuple):
    """Persisted-interner handle order: ``vertex_id`` first, NULLs last.

    Matches the store's canonical ``ORDER BY (vertex_id IS NULL),
    vertex_id, module, instance`` — Python's tuple sort agrees with
    SQLite's BINARY collation on the text column because UTF-8 byte order
    preserves code-point order.
    """
    module, instance, vertex_id = row[1], row[2], row[3]
    return (vertex_id is None, vertex_id if vertex_id is not None else 0, module, instance)


def pushdown_sweep(
    connection: sqlite3.Connection,
    run_ids,
    anchor: Execution,
    modules,
    *,
    downstream: bool,
) -> dict[int, Optional[list[Execution]]]:
    """Answer one anchored sweep for every run in *run_ids* inside SQLite.

    *modules* is the pre-computed fall-through module list (see
    :func:`reachable_modules`).  Returns ``{run_id: [(module, instance),
    ...]}`` in handle order per run, with ``None`` for runs that store no
    label for the anchor (the caller decides whether that is a skipped run
    or an error).  Parameter lists are chunked through the shared
    :func:`~repro.storage.database.iter_value_chunks` helper, so arbitrarily
    many runs and modules stay under SQLite's host-parameter limit.
    """
    # sql-kind faults injected here surface as sqlite3.OperationalError,
    # which the planner degrades to the streamed kernel (see _SweepPlan)
    fault_point("pushdown.sql")
    module, instance = anchor
    run_ids = [int(run_id) for run_id in run_ids]
    modules = list(modules)
    results: dict[int, Optional[list[Execution]]] = {
        run_id: None for run_id in run_ids
    }
    try:
        for run_chunk, run_marks in iter_value_chunks(
            run_ids, columns_per_row=1, reserved=2
        ):
            anchored = connection.execute(
                "SELECT run_id FROM run_labels "
                f"WHERE run_id IN ({run_marks}) AND module = ? AND instance = ?",
                (*run_chunk, module, instance),
            ).fetchall()
            present = [row[0] for row in anchored]
            for run_id in present:
                results[run_id] = []
            if not present:
                continue
            rows: list[tuple] = []
            for sub_chunk, _ in iter_value_chunks(
                present, columns_per_row=1, reserved=2
            ):
                cursor = connection.execute(
                    range_branch_sql(len(sub_chunk), downstream=downstream),
                    (*sub_chunk, module, instance),
                )
                cursor.row_factory = None
                rows.extend(cursor.fetchall())
            # the module branch binds two IN lists at once: size the run
            # chunk as if a maximal module chunk rides along, then size each
            # module chunk against the actual run chunk — worst case
            # 400 + 400 + 2 parameters under the default caps
            module_room = min(
                row_value_chunk(columns_per_row=1, reserved=2),
                (SQLITE_MAX_VARIABLE_NUMBER - 2) // 2,
            )
            for sub_chunk, _ in iter_value_chunks(
                present, columns_per_row=1, reserved=2 + module_room
            ):
                for module_chunk, _ in iter_value_chunks(
                    modules, columns_per_row=1, reserved=2 + len(sub_chunk)
                ):
                    cursor = connection.execute(
                        module_branch_sql(len(sub_chunk), len(module_chunk)),
                        (*sub_chunk, module, instance, *module_chunk),
                    )
                    cursor.row_factory = None
                    rows.extend(cursor.fetchall())
            per_run: dict[int, list[tuple]] = {run_id: [] for run_id in present}
            for row in rows:
                per_run[row[0]].append(row)
            for run_id, run_rows in per_run.items():
                run_rows.sort(key=_sort_key)
                results[run_id] = [(row[1], row[2]) for row in run_rows]
    except sqlite3.Error as exc:
        raise StorageError(f"pushdown sweep failed: {exc}") from exc
    return results
