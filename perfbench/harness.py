"""The benchmark's own arithmetic: percentiles, failure accounting, the
open-loop schedule and its lateness, and the windows of a run in which
the hypervisor stole CPU time.  Pure functions of their inputs, covered
by ``test_harness.py``."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

#: request families, shared by every workload: one pair's reachability,
#: an anchored dependency sweep, many items in one request
FAMILIES = ("lookup", "sweep", "bulk")

#: a tail is reported only where at least this many samples lie beyond it
MIN_BEYOND = 10

#: the percentiles a tail may be reported at, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(count: int, q: float) -> int:
    """The 1-based nearest rank of the *q*-th percentile of *count* samples."""
    # exact arithmetic: 99.9 / 100 * 10_000 must be 9990, not 9990.000…1
    return max(1, math.ceil(Fraction(str(q)) * count / 100))


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie above the *q*-th percentile."""
    return count - rank(count, q)


def supported(count: int, q: float) -> bool:
    """Whether *count* samples leave at least :data:`MIN_BEYOND` beyond *q*."""
    return count > 0 and beyond(count, q) >= MIN_BEYOND


def highest_supported(count: int) -> Optional[float]:
    """The highest tail percentile *count* samples support, if any."""
    return next((q for q in TAIL_CANDIDATES if supported(count, q)), None)


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of *values*."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


@dataclass(frozen=True)
class Sample:
    """One request as the load generator saw it (times in seconds)."""

    conn: int  # connection index
    index: int  # position in that connection's request sequence
    family: str  # lookup | sweep | bulk
    scheduled: float  # when it was due; the send time in a closed loop
    start: float
    end: float
    ok: bool
    weight: int = 1  # pairs in a batch, else 1

    @property
    def latency(self) -> float:
        """From when the request was due until its answer arrived."""
        return self.end - self.scheduled

    @property
    def lag(self) -> float:
        """How late the generator sent it."""
        return self.start - self.scheduled


def whole_blocks(samples: Iterable[Sample], block_of: dict[int, int]) -> list[Sample]:
    """Each connection's samples cut to a whole number of request blocks.

    A connection's sequence repeats a block with a fixed mix of request
    kinds, so percentiles over whole blocks see the same mix in every
    run.  A connection that completed less than one block keeps all.
    """
    by_conn: dict[int, list[Sample]] = {}
    for sample in samples:
        by_conn.setdefault(sample.conn, []).append(sample)
    kept: list[Sample] = []
    for conn, items in sorted(by_conn.items()):
        items.sort(key=lambda sample: sample.index)
        block = block_of.get(conn, 1)
        count = len(items) // block * block
        kept.extend(items[: count or len(items)])
    return kept


def steal_fraction(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    readings of the aggregate ``cpu`` line of ``/proc/stat``."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if len(delta) > 7 and total else 0.0


def stolen_windows(readings: Sequence[tuple], limit: float) -> list[tuple[float, float]]:
    """The intervals between consecutive ``(time, cpu_times)`` readings in
    which the hypervisor took more than *limit* of the CPU time."""
    return [
        (t0, t1)
        for (t0, before), (t1, after) in zip(readings, readings[1:])
        if steal_fraction(before, after) > limit
    ]


def outside(samples: Iterable[Sample], windows: Sequence[tuple[float, float]]) -> list[Sample]:
    """The samples whose span, from due time to answer, meets none of *windows*."""
    return [
        sample
        for sample in samples
        if not any(sample.scheduled < hi and sample.end > lo for lo, hi in windows)
    ]


def split_cpus(cpus: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """The CPUs of the load generator and of the server: the lowest one for
    the generator and the rest for the server, or all of them to both when
    there is only one."""
    ordered = sorted(cpus)
    if len(ordered) < 2:
        return frozenset(ordered), frozenset(ordered)
    return frozenset(ordered[:1]), frozenset(ordered[1:])


def failure_accounting(samples: Sequence[Sample]) -> tuple[int, int, float]:
    """``(attempted, failed, failed / attempted)``."""
    attempted = len(samples)
    failed = sum(1 for sample in samples if not sample.ok)
    return attempted, failed, failed / attempted if attempted else 0.0


def open_loop_schedule(start: float, rate: float, seconds: float) -> list[float]:
    """Due times of a fixed-rate sender over *seconds* from *start*."""
    count = int(math.floor(seconds * rate + 1e-9))
    return [start + k / rate for k in range(count)]


def open_loop(
    schedule: Sequence[float],
    send: Callable[[int], bool],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[tuple[float, float, float, bool]]:
    """Send request *k* at ``schedule[k]``, or at once if the previous send
    overran it; returns ``(due, start, end, ok)`` per request."""
    sent = []
    for index, due in enumerate(schedule):
        now = clock()
        if now < due:
            sleep(due - now)
        start = clock()
        ok = send(index)
        sent.append((due, start, clock(), ok))
    return sent
