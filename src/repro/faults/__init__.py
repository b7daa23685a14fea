"""Deterministic, seedable fault injection for the provenance stack.

The fault-tolerance machinery of the server, the client, the planner and
the parallel executor is only trustworthy if it can be *driven*: every
recovery path needs a way to make the fault it recovers from happen on
demand, deterministically, in-process and under CI.  This package is that
switchboard.

Named **injection points** are threaded through the layers that touch an
unreliable resource (sockets, worker pools, SQLite):

=========================  =====================================================
point                      where it fires
=========================  =====================================================
``store.connect``          :func:`repro.storage.database.connect`
``store.load_label_arrays``  the streaming label fetch workers and stores share,
                           and the primary-key label lookup
                           (:func:`repro.storage.store.load_execution_labels`)
``pool.task``              inside every cross-run chunk task (worker side)
``pushdown.sql``           :func:`repro.storage.pushdown.pushdown_sweep`
``server.read``            the daemon's frame-reader coroutine
``server.write``           the daemon's frame-writer
``client.send``            :class:`~repro.server.client.RemoteStore` request send
``client.recv``            :class:`~repro.server.client.RemoteStore` response read
=========================  =====================================================

A :class:`FaultPlan` binds **trigger rules** to points — "fail the Nth
call", "fail every Nth call", "fail with probability p under seed s" —
each with a fault *kind* choosing the raised exception:

* ``oserror`` — :class:`InjectedConnectionError` (an ``OSError``), the
  shape of a dropped socket;
* ``sql`` — :class:`InjectedOperationalError` (a
  :class:`sqlite3.OperationalError`), the shape of a locked or corrupt
  database;
* ``crash`` — :class:`~repro.exceptions.WorkerCrashError`, the shape of
  a pool worker dying mid-task.

Plans activate two ways: as a context manager (``with plan.active(): ...``)
for tests, or through the ``REPRO_FAULTS`` environment variable for whole
processes (the chaos CI leg).  The spec
grammar::

    REPRO_FAULTS = clause (";" clause)*
    clause       = point ":" arg ("," arg)*
                 | "seed=" INT
                 | "chaos" [":" arg ("," arg)*]
    arg          = kind | "nth=" INT | "every=" INT | "p=" FLOAT
                 | "times=" INT | "once"
    kind         = "oserror" | "sql" | "crash"

e.g. ``REPRO_FAULTS="client.recv:oserror,nth=3;pool.task:crash,p=0.05;seed=7"``.
``chaos`` is shorthand for a profile over the *transparently recoverable*
points only (``client.send``, ``client.recv``, ``pool.task``) — the ones
whose recovery returns bit-identical answers with no caller-visible error —
so an entire test suite can run under it: ``REPRO_FAULTS="chaos:p=0.01,seed=42"``.

Everything is deterministic: probabilistic rules draw from a per-rule
:class:`random.Random` seeded from ``(seed, point, rule index)`` via CRC-32
(never from the process hash seed), and counter-based rules count calls per
rule.  :attr:`FaultPlan.fired` / :attr:`FaultPlan.calls` let tests assert a
fault actually triggered.  :func:`suppressed` masks every injection point
on the current thread — the sequential fallbacks use it so a degraded
retry cannot be re-failed by the very rule it is recovering from.
"""

from __future__ import annotations

import os
import random
import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence
from zlib import crc32

from repro.exceptions import FaultSpecError, WorkerCrashError

__all__ = [
    "FAULT_POINTS",
    "CHAOS_POINTS",
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "InjectedConnectionError",
    "InjectedOperationalError",
    "fault_point",
    "parse_fault_spec",
    "suppressed",
    "active_plans",
]

#: every injection point wired through the stack (specs naming others fail fast)
FAULT_POINTS = frozenset(
    {
        "store.connect",
        "store.load_label_arrays",
        "pool.task",
        "pushdown.sql",
        "server.read",
        "server.write",
        "client.send",
        "client.recv",
    }
)

#: the ``chaos`` profile: points whose recovery is transparent (the caller
#: sees bit-identical answers, never an error), so a whole test suite can
#: run under them — client transport faults ride the retry/reconnect
#: machinery, worker crashes ride the executor's retry-then-sequential path
CHAOS_POINTS: dict[str, str] = {
    "client.send": "oserror",
    "client.recv": "oserror",
    "pool.task": "crash",
}

FAULT_KINDS = ("oserror", "sql", "crash")


class InjectedConnectionError(ConnectionError):
    """An injected transport fault (an ``OSError``, like a dropped socket)."""


class InjectedOperationalError(sqlite3.OperationalError):
    """An injected SQL fault (a ``sqlite3.OperationalError``)."""


def _raise_fault(kind: str, point: str) -> None:
    message = f"injected fault at {point}"
    if kind == "oserror":
        raise InjectedConnectionError(message)
    if kind == "sql":
        raise InjectedOperationalError(message)
    raise WorkerCrashError(message)


class FaultRule:
    """One trigger rule: *when* a point fails and *how* it fails.

    Exactly one trigger may be given: ``nth`` (fail the Nth call only),
    ``every`` (fail every Nth call), ``p`` (fail each call with that
    probability, deterministically under the plan seed), or ``once``
    (sugar for ``nth=1``).  ``times`` caps total fires for ``every``/``p``
    rules.
    """

    def __init__(
        self,
        point: str,
        kind: str = "oserror",
        *,
        nth: Optional[int] = None,
        every: Optional[int] = None,
        p: Optional[float] = None,
        once: bool = False,
        times: Optional[int] = None,
    ) -> None:
        if point not in FAULT_POINTS:
            raise FaultSpecError(
                f"unknown fault point {point!r} (known: {sorted(FAULT_POINTS)})"
            )
        if kind not in FAULT_KINDS:
            raise FaultSpecError(f"unknown fault kind {kind!r} (known: {FAULT_KINDS})")
        if once:
            if nth is not None:
                raise FaultSpecError("'once' and 'nth' are mutually exclusive")
            nth = 1
        triggers = sum(value is not None for value in (nth, every, p))
        if triggers != 1:
            raise FaultSpecError(
                f"rule for {point!r} needs exactly one trigger "
                "(nth=N, every=N, p=F or once)"
            )
        if nth is not None and int(nth) < 1:
            raise FaultSpecError(f"nth must be >= 1, got {nth}")
        if every is not None and int(every) < 1:
            raise FaultSpecError(f"every must be >= 1, got {every}")
        if p is not None and not (0.0 <= float(p) <= 1.0):
            raise FaultSpecError(f"p must be in [0, 1], got {p}")
        if times is not None and int(times) < 1:
            raise FaultSpecError(f"times must be >= 1, got {times}")
        self.point = point
        self.kind = kind
        self.nth = int(nth) if nth is not None else None
        self.every = int(every) if every is not None else None
        self.p = float(p) if p is not None else None
        self.times = int(times) if times is not None else None
        # per-rule runtime state, (re)built by FaultPlan._bind
        self.calls = 0
        self.fires = 0
        self._rng: Optional[random.Random] = None

    def _bind(self, seed: int, index: int) -> None:
        """Reset counters and derive the rule's deterministic RNG stream."""
        self.calls = 0
        self.fires = 0
        # crc32, not hash(): str hashing is randomized per process, and a
        # plan must fire identically in every worker that inherits it
        self._rng = random.Random(
            (int(seed) * 1_000_003 + crc32(self.point.encode("utf-8")) + index)
            & 0xFFFFFFFF
        )

    def _should_fire(self) -> bool:
        """Called under the plan lock with ``calls`` already incremented."""
        if self.times is not None and self.fires >= self.times:
            return False
        if self.nth is not None:
            return self.calls == self.nth
        if self.every is not None:
            return self.calls % self.every == 0
        assert self._rng is not None  # _bind ran at plan construction
        return self._rng.random() < self.p

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        trigger = (
            f"nth={self.nth}"
            if self.nth is not None
            else f"every={self.every}"
            if self.every is not None
            else f"p={self.p}"
        )
        return f"FaultRule({self.point}:{self.kind},{trigger})"


class FaultPlan:
    """A seeded set of :class:`FaultRule` s, activatable as a unit.

    Thread-safe: one plan may be hit from the client thread, the server's
    event-loop thread and pool workers at once; each rule's counters advance
    atomically, so "fail the Nth call" means the Nth call plan-wide.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules = list(rules)
        self._rules_of: dict[str, list[FaultRule]] = {}
        self._lock = threading.Lock()
        for index, rule in enumerate(self.rules):
            rule._bind(self.seed, index)
            self._rules_of.setdefault(rule.point, []).append(rule)

    # ------------------------------------------------------------------
    # observation (tests assert against these)
    # ------------------------------------------------------------------
    @property
    def calls(self) -> dict[str, int]:
        """Per-point count of injection-point passages while active."""
        counts: dict[str, int] = {}
        for point, rules in self._rules_of.items():
            counts[point] = max(rule.calls for rule in rules)
        return counts

    @property
    def fired(self) -> dict[str, int]:
        """Per-point count of faults actually raised."""
        counts: dict[str, int] = {}
        for point, rules in self._rules_of.items():
            total = sum(rule.fires for rule in rules)
            if total:
                counts[point] = total
        return counts

    def reset(self) -> None:
        """Rewind every rule to its initial (deterministic) state."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                rule._bind(self.seed, index)

    # ------------------------------------------------------------------
    # the hook the injection points call
    # ------------------------------------------------------------------
    def check(self, point: str) -> None:
        """Raise the configured fault if a rule for *point* triggers."""
        rules = self._rules_of.get(point)
        if not rules:
            return
        for rule in rules:
            with self._lock:
                rule.calls += 1
                fire = rule._should_fire()
                if fire:
                    rule.fires += 1
            if fire:
                _raise_fault(rule.kind, point)

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    @contextmanager
    def active(self) -> Iterator["FaultPlan"]:
        """Activate the plan for every thread until the block exits."""
        _STACK.append(self)
        try:
            yield self
        finally:
            _STACK.remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, rules={self.rules!r})"


# ----------------------------------------------------------------------
# spec parsing (the REPRO_FAULTS grammar)
# ----------------------------------------------------------------------
def _parse_args(
    clause: str, items: Sequence[str]
) -> tuple[Optional[str], dict[str, object]]:
    kind: Optional[str] = None
    kwargs: dict[str, object] = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        if item in FAULT_KINDS:
            if kind is not None:
                raise FaultSpecError(f"two fault kinds in clause {clause!r}")
            kind = item
            continue
        if item == "once":
            kwargs["once"] = True
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise FaultSpecError(f"unparseable item {item!r} in clause {clause!r}")
        try:
            if key in ("nth", "every", "times"):
                kwargs[key] = int(value)
            elif key == "p":
                kwargs[key] = float(value)
            else:
                raise FaultSpecError(
                    f"unknown key {key!r} in clause {clause!r} "
                    "(known: nth, every, p, times, once)"
                )
        except ValueError:
            raise FaultSpecError(
                f"bad value {value!r} for {key!r} in clause {clause!r}"
            ) from None
    return kind, kwargs


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse one ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    rules: list[FaultRule] = []
    seed = 0
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed=") :])
            except ValueError:
                raise FaultSpecError(f"bad seed in clause {clause!r}") from None
            continue
        point, _, tail = clause.partition(":")
        point = point.strip()
        items = tail.split(",") if tail else []
        if point == "chaos":
            kind, kwargs = _parse_args(clause, items)
            if kind is not None:
                raise FaultSpecError(
                    "the chaos profile picks the kind per point; drop "
                    f"{kind!r} from {clause!r}"
                )
            if "seed" in kwargs:  # pragma: no cover - caught by unknown-key above
                raise FaultSpecError("use a 'seed=N' clause, not chaos:seed=N")
            if not any(key in kwargs for key in ("nth", "every", "p", "once")):
                kwargs["p"] = 0.01
            for chaos_point, chaos_kind in sorted(CHAOS_POINTS.items()):
                rules.append(FaultRule(chaos_point, chaos_kind, **kwargs))
            continue
        kind, kwargs = _parse_args(clause, items)
        rules.append(FaultRule(point, kind or "oserror", **kwargs))
    return FaultPlan(rules, seed=seed)


# ----------------------------------------------------------------------
# the process-global activation state
# ----------------------------------------------------------------------
#: explicitly activated plans (appended by FaultPlan.active); global, not
#: thread-local — the server's event-loop thread and pool workers must see a
#: plan the test thread activated
_STACK: list[FaultPlan] = []


class _EnvPlan:
    """The lazily parsed ``REPRO_FAULTS`` plan, re-parsed when the var changes."""

    def __init__(self) -> None:
        self.spec: Optional[str] = None
        self.plan: Optional[FaultPlan] = None
        self._lock = threading.Lock()

    def current(self) -> Optional[FaultPlan]:
        spec = os.environ.get("REPRO_FAULTS")
        if spec == self.spec:
            return self.plan
        with self._lock:
            if spec != self.spec:
                self.plan = parse_fault_spec(spec) if spec else None
                self.spec = spec
        return self.plan


_ENV = _EnvPlan()

_SUPPRESSED = threading.local()


@contextmanager
def suppressed() -> Iterator[None]:
    """Mask every injection point on the current thread.

    The degradation fallbacks (a chunk re-run sequentially after its worker
    crashed) execute under this, so the rule that killed the first attempt
    cannot also kill the recovery — recovery paths must be able to assert
    bit-identical answers, not race the fault schedule.
    """
    depth = getattr(_SUPPRESSED, "depth", 0)
    _SUPPRESSED.depth = depth + 1
    try:
        yield
    finally:
        _SUPPRESSED.depth = depth


def active_plans() -> list[FaultPlan]:
    """Every plan a :func:`fault_point` call would consult right now."""
    plans: list[FaultPlan] = []
    env_plan = _ENV.current()
    if env_plan is not None:
        plans.append(env_plan)
    plans.extend(_STACK)
    return plans


def fault_point(name: str) -> None:
    """Declare one injection point; raises when an active rule triggers.

    The inactive fast path is one env read plus an empty-list check, so
    production code pays nothing measurable for carrying the hook.
    """
    if getattr(_SUPPRESSED, "depth", 0):
        return
    env_plan = _ENV.current()
    if env_plan is not None:
        env_plan.check(name)
    for plan in _STACK:
        plan.check(name)
