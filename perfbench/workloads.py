"""The benchmark's three seeded workloads: inputs, request streams, oracle.

A workload labels its runs from the seed, writes the pre-built 2-shard
store the server opens, and fixes each connection's request sequence --
all before timing starts.  Every request carries the answer the in-memory
labeled runs give (the oracle), so the load loop only compares.

Requests fall into three families shared by every workload, so every
workload reports the same end-to-end metrics:

* ``lookup`` -- the reachability of one pair;
* ``sweep`` -- an anchored dependency sweep;
* ``bulk`` -- many items in one request: a pair batch, or a run to ingest.

A connection's sequence repeats a block with a fixed mix of request kinds
(see ``harness.whole_blocks``).
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.api import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunPointQuery,
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
    UpstreamQuery,
)
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore, shard_of_spec
from repro.workflow.execution import generate_run_with_size

from harness import FAMILIES, Sample, open_loop, open_loop_schedule

SHARDS = 2
#: a scheme whose sweeps push down to SQL, and a kernel-only one
SCHEMES = ("tree-cover", "tcm")
#: the specification of the paper's comparison experiments (nG=100,
#: mG=200); the same for every seed, which varies the runs and requests
SPEC_SHAPE = SyntheticSpecConfig(
    n_modules=100, n_edges=200, hierarchy_size=10, hierarchy_depth=4, seed=42
)
#: a connection's sequence length; it repeats if a run outpaces it
MAX_SEQUENCE = 30_000
#: how long a load thread may outlive its deadline before the run aborts
JOIN_GRACE = 120.0


def specifications() -> dict[str, Any]:
    """One specification per scheme, named so that each owns a shard."""
    names = [f"perfbench-{index}" for index in range(64)]
    home = shard_of_spec(names[0], SHARDS)
    other = next(name for name in names if shard_of_spec(name, SHARDS) != home)
    return {
        scheme: generate_specification(dataclasses.replace(SPEC_SHAPE, name=name))
        for scheme, name in zip(SCHEMES, (names[0], other))
    }


def label_runs(spec, scheme: str, count: int, vertices: int, seed: int, stream: int) -> list:
    """*count* labeled runs of about *vertices* executions, from the seed."""
    labeler = SkeletonLabeler(spec, scheme)
    base = (seed * 16 + stream) * 100_003
    return [
        labeler.label_run(
            generate_run_with_size(
                spec, vertices, seed=base + index, name=f"{scheme}-{index}"
            ).run
        )
        for index in range(count)
    ]


def write_store(directory: Path, labeled: list) -> list[int]:
    """Write the pre-built store the server opens; returns the run ids."""
    store = ShardedProvenanceStore(directory, SHARDS)
    try:
        return list(store.add_labeled_runs(labeled))
    finally:
        store.close()


@dataclass(frozen=True)
class Request:
    """One request and the answer the oracle gives to it."""

    family: str
    query: Any
    expected: Any
    weight: int = 1
    kind: str = ""

    def check(self, answer: Any) -> bool:
        per_run = getattr(answer, "per_run", None)
        if per_run is not None:
            answer = (per_run, sorted(answer.skipped_runs))
        return answer == self.expected


class RunOracle:
    """Answers from one in-memory labeled run: the benchmark's ground truth."""

    def __init__(self, labeled) -> None:
        self.vertices = [tuple(vertex) for vertex in labeled.run.vertices()]
        self._session = ProvenanceSession.for_index(labeled)

    def point(self, source, target) -> bool:
        return bool(self._session.run(PointQuery(source, target)))

    def batch(self, pairs) -> list[bool]:
        return [bool(answer) for answer in self._session.run(BatchQuery(pairs=pairs))]

    def sweep(self, anchor, downstream: bool) -> list[tuple]:
        query = (DownstreamQuery if downstream else UpstreamQuery)(anchor)
        return [tuple(vertex) for vertex in self._session.run(query)]


class RunPool:
    """Requests about one run, drawn once from the seed, with their answers.

    Sweep anchors are picked for their answer size: *sweeps* sweeps whose
    answers cover evenly spaced fractions of the run, so what a sweep
    costs does not hinge on which anchors a seed happens to draw.
    """

    candidates = 16

    def __init__(self, labeled, rng: random.Random, *, points: int, sweeps: int, batch_sizes=()) -> None:
        oracle = RunOracle(labeled)
        vertices = oracle.vertices

        def pair():
            return rng.choice(vertices), rng.choice(vertices)

        self.points = [(p, oracle.point(*p)) for p in (pair() for _ in range(points))]
        answers = {
            (anchor, downstream): oracle.sweep(anchor, downstream)
            for anchor in rng.sample(vertices, self.candidates)
            for downstream in (True, False)
        }
        self.sweeps = []
        for slot in range(sweeps):
            target = (slot + 0.5) / sweeps * len(vertices)
            key = min(answers, key=lambda k: abs(len(answers[k]) - target))
            self.sweeps.append((key, answers.pop(key)))
        self.batches = []
        for size in batch_sizes:
            pairs = [pair() for _ in range(size)]
            self.batches.append((pairs, oracle.batch(pairs)))

    def point(self, slot: int, run_id: int) -> Request:
        (source, target), expected = self.points[slot % len(self.points)]
        return Request("lookup", PointQuery(source, target, run_id=run_id), expected)

    def sweep(self, slot: int, run_id: int) -> Request:
        (anchor, downstream), expected = self.sweeps[slot % len(self.sweeps)]
        query = (DownstreamQuery if downstream else UpstreamQuery)(anchor, run_id=run_id)
        return Request("sweep", query, expected)

    def batch(self, slot: int, run_id: int) -> Request:
        pairs, expected = self.batches[slot]
        return Request("bulk", BatchQuery(pairs=pairs, run_id=run_id), expected, len(pairs))


# ----------------------------------------------------------------------
# load loops
# ----------------------------------------------------------------------
def send(session, request: Request, errors: list) -> tuple[float, float, bool]:
    """One round trip; ``(start, end, ok)``.  The check is not timed."""
    start = time.perf_counter()
    try:
        answer = session.run(request.query)
    except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
        errors.append(f"{type(request.query).__name__}: {type(exc).__name__}: {exc}")
        return start, time.perf_counter(), False
    end = time.perf_counter()
    ok = request.check(answer)
    if not ok:
        errors.append(f"{type(request.query).__name__}: answer differs from the oracle")
    return start, end, ok


def closed_loop(
    client,
    conn: int,
    request_at: Callable[[int], Request],
    deadline: float,
    samples: list,
    errors: list,
) -> None:
    """Send the connection's requests back to back until *deadline*."""
    session = client.session()
    for index in itertools.count():
        request = request_at(index)
        if time.perf_counter() >= deadline:
            return
        start, end, ok = send(session, request, errors)
        samples.append(Sample(conn, index, request.family, start, start, end, ok, request.weight))


def replay(client, requests: list[Request], errors: list) -> bool:
    """Send *requests* once, in order (warm-up); whether every answer held."""
    session = client.session()
    return all([send(session, request, errors)[2] for request in requests])


def run_threads(loops: list[Callable[[], None]], timeout: float) -> None:
    """Run each load loop on its own thread; re-raise the first crash here."""
    crashes: list[BaseException] = []

    def guarded(loop):
        try:
            loop()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            crashes.append(exc)

    threads = [threading.Thread(target=guarded, args=(loop,), daemon=True) for loop in loops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
        if thread.is_alive():
            raise RuntimeError("a load connection did not finish in time")
    if crashes:
        raise crashes[0]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """What ``run.py`` needs from a workload."""

    name = ""
    connections = 1
    #: request block length per connection (``harness.whole_blocks``)
    blocks: dict[int, int] = {}
    #: the percentile each family's tail is reported at
    tails: dict[str, float] = {}
    #: what each family is called in this workload's report lines
    labels: dict[str, str] = {}
    #: seconds of untimed load between warm-up and the measured load, for
    #: the program's caches to reach their steady state
    settle_seconds = 0.0

    def build(self, seed: int, seconds: float, store_dir: Path) -> None:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def warm_up(self, clients: list, errors: list) -> bool:
        raise NotImplementedError

    def drive(self, clients: list, seconds: float, errors: list) -> list[Sample]:
        raise NotImplementedError

    def stored_runs(self) -> list:
        """The labeled runs the store holds when the run ends."""
        return self.stored

    def verify_end(self, client) -> bool:
        """Whether the server lists exactly as many runs as it should hold."""
        return len(client.list_runs()) == len(self.stored_runs())

    def expected_counters(self, samples: list[Sample]) -> Optional[dict]:
        """Program counters the requests sent fix exactly, if any."""
        return None

    def report_lines(self, samples: list[Sample]) -> list[tuple]:
        """Extra ``(name, value, unit, note)`` lines in the workload's terms."""
        return []


def _closed_loops(clients, sequences, seconds, errors) -> list[Sample]:
    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    run_threads(
        [
            functools.partial(
                closed_loop, client, conn, lambda i, s=seq: s[i % len(s)], deadline, samples, errors
            )
            for conn, (client, seq) in enumerate(zip(clients, sequences))
        ],
        seconds + JOIN_GRACE,
    )
    return samples


class ServedMix(Workload):
    """Interactive lookups over more runs than a shard's run cache holds.

    Two closed-loop connections pick runs Zipf-skewed among 48: 24 per
    spec (one tree-cover, one tcm), so each spec's shard holds more runs
    than its 16-run cache.  A block of 50 requests holds 40 point lookups,
    5 pair batches (three of 128 pairs, two of 1024: both sides of the
    planner's 512-pair handle path) and 5 single-run sweeps.  Untimed
    load lets the caches settle between warm-up and the measured load.
    """

    name = "served-mix"
    connections = 2
    runs_per_spec = 24
    vertices = 1500
    batch_sizes = (128, 1024)
    block = ("point",) * 40 + ("batch-0",) * 3 + ("batch-1",) * 2 + ("sweep",) * 5
    zipf_exponent = 1.0
    blocks = {0: 50, 1: 50}
    #: p99 of lookups lands on the knee where the server's garbage
    #: collection pauses begin (~1.5% of lookups, 20-120 ms) and swings
    #: 25-60 ms between identical runs; p95 is the engine-reload tail
    tails = {"lookup": 95.0, "sweep": 90.0}
    labels = {"lookup": "point", "sweep": "sweep", "bulk": "batch"}
    warm_requests = 100
    #: throughput falls from about twice its steady level over the first
    #: 4-8 s after warm-up, while the run cache and promotions fill
    settle_seconds = 8.0

    def build(self, seed, seconds, store_dir):
        specs = specifications()
        groups = [
            label_runs(specs[scheme], scheme, self.runs_per_spec, self.vertices, seed, stream)
            for stream, scheme in enumerate(SCHEMES)
        ]
        self.stored = [run for group in groups for run in group]
        ids = write_store(store_dir, self.stored)
        rng = random.Random(seed)
        self.pools = {
            run_id: RunPool(run, rng, points=64, sweeps=8, batch_sizes=self.batch_sizes)
            for run_id, run in zip(ids, self.stored)
        }
        # popularity ranks alternate between the specs, so both shards
        # hold hot and cold runs
        per_spec = [
            ids[k * self.runs_per_spec : (k + 1) * self.runs_per_spec]
            for k in range(len(SCHEMES))
        ]
        for group in per_spec:
            rng.shuffle(group)
        ranked = [run_id for tier in zip(*per_spec) for run_id in tier]
        cumulative = list(
            itertools.accumulate(
                1.0 / rank**self.zipf_exponent for rank in range(1, len(ranked) + 1)
            )
        )
        self.sequences = [
            self._sequence(random.Random(seed * 1_000 + conn + 1), ranked, cumulative)
            for conn in range(self.connections)
        ]

    def _sequence(self, rng, ranked, cumulative) -> list[Request]:
        requests: list[Request] = []
        # sweeps take their answer-size slots in turn, so every seed sends
        # the same mix of answer sizes
        sweep_slots = itertools.count()
        while len(requests) < MAX_SEQUENCE:
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                run_id = ranked[bisect.bisect_right(cumulative, rng.random() * cumulative[-1])]
                pool = self.pools[run_id]
                if kind == "point":
                    requests.append(pool.point(rng.randrange(len(pool.points)), run_id))
                elif kind == "sweep":
                    requests.append(pool.sweep(next(sweep_slots), run_id))
                else:
                    requests.append(pool.batch(int(kind[-1]), run_id))
        return requests

    def describe(self):
        return (
            f"{len(self.stored)} runs (2 specs x {self.runs_per_spec} x "
            f"~{self.vertices} vertices), 2 closed-loop connections"
        )

    def warm_up(self, clients, errors):
        return all(
            [
                replay(client, sequence[: self.warm_requests], errors)
                for client, sequence in zip(clients, self.sequences)
            ]
        )

    def drive(self, clients, seconds, errors):
        return _closed_loops(clients, self.sequences, seconds, errors)

    def report_lines(self, samples):
        batches = [s for s in samples if s.family == "bulk" and s.ok]
        seconds = sum(s.latency for s in batches)
        pairs = sum(s.weight for s in batches)
        return [("batch_pairs_s", pairs / seconds if seconds else 0.0, "pairs/s", "pairs / total batch latency")]


class CrossRunSweep(Workload):
    """Analytic cross-run requests with large answers, on one connection.

    Two specs of 8 runs x 3000 vertices: tree-cover sweeps push down to
    SQL, tcm sweeps run the kernel.  Per spec, a block holds 8
    ``CrossRunQuery`` sweeps (from the root, and from a median-selectivity
    anchor of each direction, both directions), 8 single-pair
    ``CrossRunPointQuery`` lookups and 2 64-pair ``CrossRunBatchQuery``
    batches.  Each request costs 60-120 ms, so a 30 s run completes about
    ten blocks: enough lookups and sweeps for a p75 tail.  Planner
    settings stay at their defaults.
    """

    name = "cross-run-sweep"
    connections = 1
    runs_per_spec = 8
    vertices = 3000
    #: (anchor, downstream, copies per block and spec)
    sweep_mix = (("root", True, 2), ("root", False, 1), ("median", True, 3), ("median", False, 2))
    lookups_per_spec = 8
    batches_per_spec = 2
    batch_pairs = 64
    tails = {"lookup": 75.0, "sweep": 75.0}
    labels = {"lookup": "cross_point", "sweep": "cross_sweep", "bulk": "cross_batch"}

    def build(self, seed, seconds, store_dir):
        specs = specifications()
        rng = random.Random(seed)
        groups = [
            label_runs(specs[scheme], scheme, self.runs_per_spec, self.vertices, seed, stream)
            for stream, scheme in enumerate(SCHEMES)
        ]
        self.stored = [run for group in groups for run in group]
        ids = iter(write_store(store_dir, self.stored))
        block, self.warm = [], []
        for scheme, group in zip(SCHEMES, groups):
            oracles = {next(ids): RunOracle(run) for run in group}
            requests = self._spec_requests(specs[scheme].name, scheme, group[0], oracles, rng)
            block += requests
            self.warm += [next(r for r in requests if r.family == family) for family in FAMILIES]
        rng.shuffle(block)
        self.block = block
        self.blocks = {0: len(block)}

    def _spec_requests(self, spec_name, scheme, first_run, oracles, rng) -> list[Request]:
        common_set = set.intersection(*(set(oracle.vertices) for oracle in oracles.values()))
        common = sorted(common_set)
        first = next(iter(oracles.values()))
        root = next(tuple(v) for v in first_run.run.graph.sources() if tuple(v) in common_set)
        half = sum(len(oracle.vertices) for oracle in oracles.values()) / 2
        candidates = rng.sample(common, min(32, len(common)))
        # one median anchor per direction, picked by its answer over all the
        # spec's runs, so that what a sweep costs does not hinge on the
        # seed: picked by one run's downstream half alone, answers ranged
        # from 65% to 123% of the target between seeds
        anchors = {("root", downstream): root for downstream in (True, False)}
        for downstream in (True, False):
            anchors["median", downstream] = min(
                candidates,
                key=lambda anchor: abs(
                    sum(len(o.sweep(anchor, downstream)) for o in oracles.values()) - half
                ),
            )
        requests: list[Request] = []
        for anchor_name, downstream, copies in self.sweep_mix:
            anchor = anchors[anchor_name, downstream]
            expected = ({run_id: o.sweep(anchor, downstream) for run_id, o in oracles.items()}, [])
            query = CrossRunQuery(spec_name, anchor, "downstream" if downstream else "upstream")
            requests += [Request("sweep", query, expected, kind=scheme)] * copies
        for _ in range(self.lookups_per_spec):
            source, target = rng.choice(common), rng.choice(common)
            expected = ({run_id: o.point(source, target) for run_id, o in oracles.items()}, [])
            query = CrossRunPointQuery(spec_name, source, target)
            requests.append(Request("lookup", query, expected, kind=scheme))
        for _ in range(self.batches_per_spec):
            pairs = [(rng.choice(common), rng.choice(common)) for _ in range(self.batch_pairs)]
            expected = ({run_id: o.batch(pairs) for run_id, o in oracles.items()}, [])
            query = CrossRunBatchQuery(spec_name, pairs)
            requests.append(Request("bulk", query, expected, len(pairs), kind=scheme))
        return requests

    def describe(self):
        return (
            f"{len(self.stored)} runs (2 specs x {self.runs_per_spec} x "
            f"~{self.vertices} vertices), 1 closed-loop connection, "
            f"{len(self.block)}-request block"
        )

    def warm_up(self, clients, errors):
        return replay(clients[0], self.warm, errors)

    def drive(self, clients, seconds, errors):
        return _closed_loops(clients, [self.block], seconds, errors)

    def expected_counters(self, samples):
        """One sweep-path count per cross-run sweep sent to the final server,
        by its spec's scheme; nothing promoted, evicted or degraded."""
        sent = self.warm + [self.block[s.index % len(self.block)] for s in samples]
        sweeps = {scheme: 0 for scheme in SCHEMES}
        for request in sent:
            if request.family == "sweep":
                sweeps[request.kind] += 1
        return {
            "pushdown": {"sql": {"tree-cover": sweeps["tree-cover"]}, "kernel": {"tcm": sweeps["tcm"]}},
            "promotions": 0,
            "evictions": 0,
            "degraded": {},
        }


class IngestChurn(Workload):
    """Writes beside reads.

    Connection 0 ingests pre-labeled tree-cover runs of ~1500 vertices
    open-loop at 2 runs/s (``RemoteStore.ingest(..., flush=True)``); the
    server labels and commits each on its single store thread.
    Connection 1 sends closed-loop point lookups and single-run sweeps
    about the four runs acknowledged most recently (16 lookups and 4
    sweeps per block).  The store starts with 4 runs, and warm-up ingests
    one more.
    """

    name = "ingest-churn"
    connections = 2
    rate = 2.0
    initial_runs = 4
    vertices = 1500
    #: weights of the 1st..4th most recently acknowledged run
    recency_weights = (4, 3, 2, 1)
    block = ("point",) * 16 + ("sweep",) * 4
    blocks = {0: 1, 1: 20}
    tails = {"lookup": 95.0, "sweep": 90.0}
    labels = {"lookup": "point", "sweep": "sweep", "bulk": "ingest"}

    def build(self, seed, seconds, store_dir):
        spec = specifications()["tree-cover"]
        self.spec_name = spec.name
        self.ingest_count = len(open_loop_schedule(0.0, self.rate, seconds))
        count = self.initial_runs + 1 + self.ingest_count
        self.runs = label_runs(spec, "tree-cover", count, self.vertices, seed, 0)
        rng = random.Random(seed)
        self.pools = [RunPool(run, rng, points=16, sweeps=4) for run in self.runs]
        self.initial_ids = write_store(store_dir, self.runs[: self.initial_runs])
        recency = range(len(self.recency_weights))
        # sweeps take their answer-size slots in turn (as in served-mix)
        sweep_slots = itertools.count()
        self.plan: list[tuple[str, int, int]] = []
        while len(self.plan) < MAX_SEQUENCE:
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                slot = next(sweep_slots) if kind == "sweep" else rng.randrange(64)
                self.plan.append((kind, rng.choices(recency, self.recency_weights)[0], slot))
        self.acked = list(zip(self.initial_ids, range(self.initial_runs)))

    def describe(self):
        return (
            f"{self.initial_runs} stored + 1 warm-up + {self.ingest_count} ingested "
            f"runs of ~{self.vertices} vertices at {self.rate:g} runs/s, "
            "1 closed-loop reader"
        )

    def _read(self, acked: list, index: int) -> Request:
        kind, recency, slot = self.plan[index % len(self.plan)]
        run_id, position = acked[-1 - min(recency, len(acked) - 1)]
        pool = self.pools[position]
        return pool.point(slot, run_id) if kind == "point" else pool.sweep(slot, run_id)

    def warm_up(self, clients, errors):
        writer, reader = clients
        warm = self.initial_runs
        ids = writer.ingest([self.runs[warm]], flush=True)
        self.acked = list(zip(self.initial_ids, range(self.initial_runs)))
        ok = len(ids) == 1 and ids[0] not in self.initial_ids
        if ok:
            self.acked.append((ids[0], warm))
        else:
            errors.append(f"warm-up ingest answered run ids {ids}")
        reads = [self._read(self.acked, index) for index in range(len(self.block))]
        return replay(reader, reads, errors) and ok

    def drive(self, clients, seconds, errors):
        writer, reader = clients
        acked = self.acked
        seen = {run_id for run_id, _ in acked}
        first = self.initial_runs + 1
        samples: list[Sample] = []
        start = time.perf_counter()
        schedule = open_loop_schedule(start, self.rate, seconds)

        def ingest(k: int) -> bool:
            position = first + k
            try:
                ids = writer.ingest([self.runs[position]], flush=True)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                errors.append(f"ingest: {type(exc).__name__}: {exc}")
                return False
            if len(ids) != 1 or ids[0] in seen:
                errors.append(f"ingest answered run ids {ids}")
                return False
            seen.add(ids[0])
            acked.append((ids[0], position))
            return True

        def writer_loop() -> None:
            for k, (due, sent, done, ok) in enumerate(open_loop(schedule, ingest)):
                samples.append(Sample(0, k, "bulk", due, sent, done, ok))

        reader_loop = functools.partial(
            closed_loop, reader, 1, lambda index: self._read(acked, index),
            start + seconds, samples, errors,
        )
        run_threads([writer_loop, reader_loop], seconds + JOIN_GRACE)
        return samples

    def stored_runs(self):
        return [self.runs[position] for _, position in self.acked]

    def verify_end(self, client):
        listed = {row["run_id"] for row in client.list_runs(self.spec_name)}
        return listed == {run_id for run_id, _ in self.acked}

    def report_lines(self, samples):
        lag = max((s.lag for s in samples if s.family == "bulk"), default=0.0)
        return [("lag_ms_max", lag * 1e3, "ms", "open-loop generator lateness")]


WORKLOADS = {workload.name: workload for workload in (ServedMix, CrossRunSweep, IngestChurn)}
