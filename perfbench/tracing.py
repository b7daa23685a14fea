"""Span recording for the traced benchmark run, from outside the program.

A span is ``(name, start_ns, end_ns, span_id, parent_id, thread_id, attrs)``.
Wrappers installed around public functions of the ``repro`` layers record
one span per call; the parent is the span open on the same thread (a
context variable), or 0 at the top.  Spans stay in memory and are written
out as JSON lines when the process ends.  Both processes read
``time.perf_counter_ns`` (the host's monotonic clock), so server and
client spans share one time axis.

A wrapper replaces a name wherever callers look it up: the class attribute
for methods, and every module that imported a free function by name.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterable, Optional

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

NAME, START, END, ID, PARENT, THREAD, ATTRS = range(7)


class Recorder:
    """Collects spans in memory and owns the patches that produce them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs_of: Optional[Callable[[tuple, Any], dict]] = None,
    ) -> Callable:
        """*fn*, recording one span per call.

        A call made while a span of the same *name* is open is not
        recorded again (a codec calling its own element codec).
        """
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if parent is not None and parent[1] == name:
                return fn(*args, **kwargs)
            span_id = next(ids)
            token = _current.set((span_id, name))
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                _current.reset(token)
                attrs = None
                if attrs_of is not None and result is not None:
                    attrs = attrs_of(args, result)
                spans.append(
                    (name, start, end, span_id, parent[0] if parent else 0,
                     threading.get_ident(), attrs)
                )

        return wrapper

    def note(self, name: str, **attrs: Any) -> None:
        """A zero-length span carrying *attrs* (a counter or a sample)."""
        parent = _current.get()
        now = time.perf_counter_ns()
        self.spans.append(
            (name, now, now, next(self._ids), parent[0] if parent else 0,
             threading.get_ident(), attrs)
        )

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, owner: type, attr: str, name: str, attrs_of=None) -> None:
        self.patch(owner, attr, self.wrap(name, owner.__dict__[attr], attrs_of))

    def patch_function(
        self, modules: Iterable[str], attr: str, name: str, attrs_of=None
    ) -> None:
        """Wrap a free function in every module that holds it by name."""
        loaded = [importlib.import_module(module) for module in modules]
        original = loaded[0].__dict__[attr]
        wrapper = self.wrap(name, original, attrs_of)
        for module in loaded:
            if module.__dict__.get(attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the wrapped function")
            self.patch(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


# ----------------------------------------------------------------------
# what each side wraps
# ----------------------------------------------------------------------
def _run_attrs(args, result) -> dict:
    query = args[1]
    per_run = getattr(result, "per_run", None)
    if per_run is not None:
        rows = sum(len(v) if isinstance(v, list) else 1 for v in per_run.values())
    else:
        rows = len(result) if isinstance(result, list) else 1
    return {
        "op": type(query).__name__,
        "pairs": len(getattr(query, "pairs", None) or ()),
        "rows": rows,
    }


def _fetched_rows(_args, result) -> dict:
    return {"rows": sum(len(v) for v in result.values() if v is not None)}


def install_server(recorder: Recorder) -> None:
    """Wrap the server-side layers (runs inside the ``serve`` process)."""
    from repro.api.session import ProvenanceSession
    from repro.engine.kernels import SpecKernel
    from repro.engine.parallel import CrossRunExecutor
    from repro.engine.query import QueryEngine
    from repro.server.protocol import Writer
    from repro.skeleton.skl import SkeletonLabeler
    from repro.storage.sharded import ShardedProvenanceStore
    from repro.storage.store import ProvenanceStore

    recorder.patch_method(ProvenanceSession, "run", "api.run", _run_attrs)
    recorder.patch_function(
        ["repro.api.plans", "repro.api.session"], "compile_plan", "api.plan"
    )
    recorder.patch_method(ProvenanceStore, "label_of", "storage.point_sql")

    query_engine = ProvenanceStore.__dict__["query_engine"]
    load_engine = recorder.wrap("storage.engine_load", query_engine)

    def traced_query_engine(self, run_id):
        if self.has_compiled_engine(run_id):
            recorder.note("storage.engine_hit")
            return query_engine(self, run_id)
        return load_engine(self, run_id)

    recorder.patch(ProvenanceStore, "query_engine", traced_query_engine)
    recorder.patch_function(
        ["repro.storage.store"], "load_label_arrays", "storage.fetch", _fetched_rows
    )
    recorder.patch_function(
        ["repro.storage.pushdown", "repro.storage.store"],
        "pushdown_sweep",
        "storage.pushdown",
        _fetched_rows,
    )
    for attr in ("list_runs", "shard_path_of"):
        recorder.patch_method(ShardedProvenanceStore, attr, "storage.route")
    recorder.patch_method(
        ShardedProvenanceStore,
        "add_labeled_runs",
        "storage.ingest",
        lambda _args, result: {"runs": len(result)},
    )
    recorder.patch_method(SpecKernel, "sweep", "engine.kernel_sweep")
    recorder.patch_method(SpecKernel, "pairs", "engine.kernel_pairs")
    for attr in ("sweep", "sweep_pushdown", "batch"):
        recorder.patch_method(CrossRunExecutor, attr, "engine.executor")
    recorder.patch_function(
        ["repro.engine.parallel"],
        "resolve_workers",
        "engine.resolve_workers",
        lambda _args, result: {"workers": result},
    )
    recorder.patch_method(
        QueryEngine,
        "reaches_many_ids",
        "engine.batch",
        lambda args, _result: {"pairs": len(args[1])},
    )
    recorder.patch_method(SkeletonLabeler, "label_run", "skeleton.label")
    recorder.patch_function(
        ["repro.workflow.serialization", "repro.storage.store"],
        "run_from_json",
        "workflow.run_from_json",
    )
    for attr in ("put_executions", "put_bools"):
        recorder.patch_method(Writer, attr, "server.encode")
    for attr in ("put_run_map_executions", "put_run_map_bools"):
        recorder.patch_function(["repro.server.protocol"], attr, "server.encode")


def install_client(recorder: Recorder) -> None:
    """Wrap the client-side layers (runs in the benchmark process)."""
    from repro.server.client import RemoteSession, RemoteStore
    from repro.server.protocol import Reader

    recorder.patch_method(
        RemoteSession,
        "run",
        "client.run",
        lambda args, _result: {
            "op": type(args[1]).__name__,
            "pairs": len(getattr(args[1], "pairs", None) or ()),
        },
    )
    recorder.patch_method(
        RemoteStore, "ingest", "client.run", lambda _args, _result: {"op": "ingest"}
    )
    for attr in ("executions", "bools"):
        recorder.patch_method(Reader, attr, "server.decode")
    for attr in ("read_run_map_executions", "read_run_map_bools"):
        recorder.patch_function(["repro.server.protocol"], attr, "server.decode")
    reader_init = Reader.__dict__["__init__"]

    def traced_init(self, payload):
        if _current.get() is not None:
            recorder.note("server.response", bytes=len(payload))
        reader_init(self, payload)

    recorder.patch(Reader, "__init__", traced_init)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[int, int]], start: int, end: int) -> int:
    """Length of [start, end] covered by the union of *intervals*."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def children_of(spans: list[tuple]) -> dict[int, list[tuple]]:
    """Parent id -> the spans directly below it."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        if span[PARENT]:
            children.setdefault(span[PARENT], []).append(span)
    return children


def descendants(root_id: int, children: dict[int, list[tuple]]) -> list[tuple]:
    """Every span below *root_id*."""
    found, stack = [], [root_id]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child[ID])
    return found


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children = children_of(spans)
    return {
        span[ID]: span[END] - span[START] - covered(
            ((child[START], child[END]) for child in children.get(span[ID], ())),
            span[START],
            span[END],
        )
        for span in spans
    }


def parallel_excess(spans: list[tuple]) -> dict[int, int]:
    """Per span: its children's summed durations minus their union (ns).

    Non-zero only where two children ran at once (worker-pool chunks);
    subtracting it makes a tree's self times sum to its root's duration.
    """
    by_id = {span[ID]: span for span in spans}
    excess = {}
    for parent_id, kids in children_of(spans).items():
        parent = by_id.get(parent_id)
        if parent is not None:
            intervals = [(child[START], child[END]) for child in kids]
            excess[parent_id] = sum(hi - lo for lo, hi in intervals) - covered(
                intervals, parent[START], parent[END]
            )
    return excess


def adopt_orphans(spans: list[tuple], root: str) -> list[tuple]:
    """Give parentless spans from worker-pool threads the span they ran under.

    Pool threads do not inherit the submitting thread's context, so their
    spans arrive with parent 0.  The server answers one request at a time
    on its store thread, so such a span belongs to the innermost span of
    the *root* tree, on another thread, whose interval contains it.
    """
    children = children_of(spans)
    roots = sorted(
        (span for span in spans if span[NAME] == root and not span[PARENT]),
        key=lambda span: span[START],
    )
    starts = [span[START] for span in roots]
    trees: dict[int, list[tuple]] = {}
    adopted = []
    for span in spans:
        if span[PARENT] or span[NAME] == root:
            adopted.append(span)
            continue
        position = bisect.bisect_right(starts, span[START]) - 1
        host = None
        if position >= 0 and span[END] <= roots[position][END]:
            owner = roots[position]
            if owner[ID] not in trees:
                trees[owner[ID]] = [owner] + descendants(owner[ID], children)
            for candidate in trees[owner[ID]]:
                if (
                    candidate[THREAD] != span[THREAD]
                    and candidate[START] <= span[START]
                    and span[END] <= candidate[END]
                    and (
                        host is None
                        or candidate[END] - candidate[START] < host[END] - host[START]
                    )
                ):
                    host = candidate
        if host is not None:
            span = span[:PARENT] + (host[ID],) + span[THREAD:]
        adopted.append(span)
    return adopted
