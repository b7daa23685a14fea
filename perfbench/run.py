"""Drive a live ``repro serve`` daemon with one seeded workload.

    python3 perfbench/run.py --workload served-mix --seed 1 --seconds 10 --trace 0

A run builds the workload's labeled runs and its pre-built 2-shard store
from the seed, starts ``python -m repro serve`` on a copy of the store as
its own process, warms it up (and, where the workload asks, lets its
caches settle under untimed load), and drives the workload's requests at
it for ``--seconds`` from this one process over at most two connections.
This process runs on one CPU and the server on the others.
Spawn plus warm-up is timed three times, on a fresh copy each time, and
``setup_s`` is the median; the load runs against the third server.
Every answer is checked against the in-memory oracle; a request that
errors, times out or answers differently counts as failed.  Requests
that overlap a second in which the hypervisor stole CPU time (see
``STEAL_LIMIT``) are left out of the timings, and a load with such
seconds through most of it is measured again once.  The server
stops on SIGINT (its clean shutdown) and the store directory is measured
after it has exited.

``--trace 1`` then repeats the run with span recorders around the layers
on both sides (the server starts through ``serve_traced.py``), prints
both runs' end-to-end metrics side by side, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything a run writes lives under ``.perfbench_work/`` in the checkout
and is removed when it ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import selectors
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from harness import (
    FAMILIES,
    beyond,
    failure_accounting,
    highest_supported,
    outside,
    percentile,
    split_cpus,
    steal_fraction,
    stolen_windows,
    supported,
    whole_blocks,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("served-mix", "cross-run-sweep", "ingest-churn")
#: server spawns timed per untraced run; setup_s is their median
SETUPS = 3
#: a request slower than this fails (the client's socket timeout)
REQUEST_TIMEOUT = 20.0
STARTUP_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
#: the server runs without these, so the executor keeps its defaults
UNSET_FOR_SERVER = ("REPRO_PARALLEL", "REPRO_WORKER_TIMEOUT")
#: the host's CPU times are read this often (s) during the load
STEAL_WINDOW = 1.0
#: a window in which the hypervisor gave other guests more than this
#: share of the CPU time is left out of the timings: a request in flight
#: then waits for the host, not for the program (quiet windows read 0-1.5%)
STEAL_LIMIT = 0.03
#: a load with steal through most of it is measured again, once, after
#: this many windows in a row without steal, or this long (s) at most:
#: steal of 9% through a load doubled served-mix lookup latency
QUIET_WINDOWS = 3
QUIET_WAIT = 20.0

#: the end-to-end metrics every workload reports, with their units
END_TO_END = {
    "setup_s": "s",
    "ops_s": "ops/s",
    "lookup_p50_ms": "ms",
    "lookup_tail_ms": "ms",
    "sweep_p50_ms": "ms",
    "sweep_tail_ms": "ms",
    "bulk_p50_ms": "ms",
    "store_bytes_per_vertex": "bytes",
    "server_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot produce a result."""


class ServerProcess:
    """One ``repro serve`` process on *store*; stopped with SIGINT."""

    def __init__(
        self, store: Path, log: Path, cpus: frozenset[int], spans: Optional[Path] = None
    ) -> None:
        if spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(spans)]
        argv += ["serve", "--database", str(store), "--port", "0"]
        env = {key: value for key, value in os.environ.items() if key not in UNSET_FOR_SERVER}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self._log_path = log
        self._log = open(log, "wb")
        # a child starts with the CPU affinity of the thread that forks it:
        # the server runs on *cpus*, apart from the load generator
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            self.process = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT
            )
        finally:
            os.sched_setaffinity(0, previous)
        try:
            self.url = self._await_url()
        except BaseException:
            self.stop()
            raise

    def _await_url(self) -> str:
        deadline = time.monotonic() + STARTUP_TIMEOUT
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError("the server did not start listening in time")
                line = self.process.stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise BenchError("the server exited before listening:\n" + self.log_tail())
                match = re.search(r"(repro://\S+/)", line)
                if match:
                    return match.group(1)

    def log_tail(self) -> str:
        self._log.flush()
        return self._log_path.read_text(errors="replace")[-2000:]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise BenchError("the server's /proc status has no VmHWM line")
        return int(match.group(1)) / 1024.0

    def stop(self) -> int:
        """SIGINT, then wait for the exit (kill it if it hangs)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


class WalSampler:
    """The largest shard WAL file seen, sampled every 20 ms on a thread."""

    def __init__(self, store: Path) -> None:
        self.store = store
        self.largest = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(0.02):
            for wal in self.store.glob("shard-*.db-wal"):
                try:
                    self.largest = max(self.largest, wal.stat().st_size)
                except FileNotFoundError:
                    pass

    def close(self) -> int:
        self._stop.set()
        self._thread.join(5)
        return self.largest


class CpuSampler:
    """``(perf_counter, cpu_times)`` every :data:`STEAL_WINDOW` s, on a thread."""

    def __init__(self) -> None:
        self.readings = [(time.perf_counter(), cpu_times())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(STEAL_WINDOW):
            self.readings.append((time.perf_counter(), cpu_times()))

    def close(self) -> list:
        self._stop.set()
        self._thread.join(5)
        self.readings.append((time.perf_counter(), cpu_times()))
        return self.readings


@dataclass
class Phase:
    """What one untraced or traced run of the workload measured."""

    traced: bool
    setup_s: list = field(default_factory=list)
    settle: list = field(default_factory=list)  # untimed load before the measured one
    samples: list = field(default_factory=list)
    window: tuple = (0, 0)  # perf_counter_ns at the start and end of the load
    errors: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    retries: int = 0
    rss_mb: float = 0.0
    store_bytes: int = 0
    stored_vertices: int = 0
    wal_bytes_max: int = 0
    cpu: list = field(default_factory=list)  # CpuSampler readings over the load
    server_spans: list = field(default_factory=list)
    client_spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    @property
    def elapsed(self) -> float:
        """The length of the load, in seconds."""
        return (self.window[1] - self.window[0]) / 1e9

    def stolen(self) -> list[tuple[float, float]]:
        """The windows of the load in which the hypervisor stole CPU time."""
        return stolen_windows(self.cpu, STEAL_LIMIT)

    @property
    def mostly_stolen(self) -> bool:
        """Whether stolen windows cover more than half the load: too many
        to leave out of the timings."""
        return sum(hi - lo for lo, hi in self.stolen()) > self.elapsed / 2


def cpu_times() -> list[int]:
    """The host's aggregate CPU times from ``/proc/stat`` (jiffies)."""
    with open("/proc/stat") as stat:
        return [int(value) for value in stat.readline().split()[1:]]


def await_quiet_host() -> float:
    """Wait until :data:`QUIET_WINDOWS` windows in a row pass without steal
    above :data:`STEAL_LIMIT`, or :data:`QUIET_WAIT` s; the time waited."""
    started = time.perf_counter()
    quiet = 0
    before = cpu_times()
    while quiet < QUIET_WINDOWS and time.perf_counter() - started < QUIET_WAIT:
        time.sleep(STEAL_WINDOW)
        after = cpu_times()
        quiet = quiet + 1 if steal_fraction(before, after) <= STEAL_LIMIT else 0
        before = after
    return time.perf_counter() - started


def read_counters(clients: list) -> dict:
    """Program counters read over the wire at the end of the load."""
    stats = [client.cache_stats() for client in clients]
    health = clients[0].health()
    return {
        "promotions": sum(s.get("promotions", 0) for s in stats),
        "evictions": stats[0].get("evictions", 0),
        "pushdown": stats[0].get("pushdown", {}),
        "degraded": health.get("degraded", {}),
        "pools": health.get("pools", {}),
        "status": health.get("status"),
    }


def run_phase(
    workload, work: Path, seconds: float, traced: bool, server_cpus: frozenset[int]
) -> Phase:
    from repro.server.client import RemoteStore
    from tracing import Recorder, install_client, load_spans

    phase = Phase(traced)
    live = work / "live"
    spans = work / "server-spans.jsonl" if traced else None
    server: Optional[ServerProcess] = None
    clients: list = []

    def shut_down() -> None:
        for client in clients:
            client.close()
        code = server.stop()
        phase.check("server exited cleanly", code == 0)
        if code != 0:
            phase.errors.append(f"server exit status {code}:\n{server.log_tail()}")

    try:
        for attempt in range(1 if traced else SETUPS):
            if server is not None:
                shut_down()
                server, clients = None, []
            shutil.rmtree(live, ignore_errors=True)
            shutil.copytree(work / "pristine", live)
            started = time.perf_counter()
            server = ServerProcess(live, work / f"serve-{attempt}.log", server_cpus, spans)
            clients = [
                RemoteStore(server.url, timeout=REQUEST_TIMEOUT)
                for _ in range(workload.connections)
            ]
            phase.check("warm-up answers", workload.warm_up(clients, phase.errors))
            phase.setup_s.append(time.perf_counter() - started)
        if workload.settle_seconds:
            phase.settle = workload.drive(clients, workload.settle_seconds, phase.errors)
        recorder = sampler = None
        if traced:
            recorder, sampler = Recorder(), WalSampler(live)
            install_client(recorder)
        # keep the generator's own garbage collections out of the
        # latencies it measures
        gc.collect()
        gc.freeze()
        gc.disable()
        cpu = CpuSampler()
        start_ns = time.perf_counter_ns()
        try:
            phase.samples = workload.drive(clients, seconds, phase.errors)
        finally:
            phase.window = (start_ns, time.perf_counter_ns())
            phase.cpu = cpu.close()
            gc.enable()
            gc.unfreeze()
            if traced:
                recorder.restore()
                phase.client_spans = recorder.spans
                phase.wal_bytes_max = sampler.close()
        phase.counters = read_counters(clients)
        phase.retries = sum(client.fault_stats["retries"] for client in clients)
        phase.check("stored runs listed", workload.verify_end(clients[0]))
        phase.rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            shut_down()
    phase.store_bytes = sum(path.stat().st_size for path in live.rglob("*") if path.is_file())
    phase.stored_vertices = sum(run.run.vertex_count for run in workload.stored_runs())
    if traced:
        phase.server_spans = load_spans(spans)
    return phase


def end_to_end(workload, phase: Phase) -> tuple[dict, list]:
    """The end-to-end metrics, and the report lines in the workload's terms.

    Requests that overlap a window in which the hypervisor stole CPU time
    are left out of the timings, and the window out of the elapsed time,
    unless that would leave less than half the run.  Failures count all.
    """
    found = stolen = phase.stolen()
    stolen_note = (
        f"of {len(phase.cpu) - 1} windows of {STEAL_WINDOW:g} s with steal above "
        f"{STEAL_LIMIT:.0%}; their requests are left out of the timings"
    )
    if phase.mostly_stolen:
        stolen_note += " -- NOT: too many, so the timings include them"
        stolen = []
    clean = phase.elapsed - sum(hi - lo for lo, hi in stolen)
    kept = outside(whole_blocks(phase.samples, workload.blocks), stolen)
    attempted, failed, failed_frac = failure_accounting(phase.samples)
    completed = sum(1 for sample in outside(phase.samples, stolen) if sample.ok)
    metrics = {
        "setup_s": statistics.median(phase.setup_s),
        "ops_s": completed / clean,
    }
    setups = ", ".join(f"{value:.3f}" for value in phase.setup_s)
    lines = [
        ("setup_s", metrics["setup_s"], "s", f"median of [{setups}]"),
        ("ops_s", metrics["ops_s"], "ops/s", f"{completed} requests in {clean:.2f} s"),
        ("failed_frac", failed_frac, "fraction", f"{failed} of {attempted}"),
    ]
    if phase.settle:
        lines.append(("settle_requests", len(phase.settle), "count",
                      f"untimed, over {workload.settle_seconds:g} s after warm-up"))
    for family in FAMILIES:
        latencies = [s.latency * 1e3 for s in kept if s.family == family and s.ok]
        phase.check(f"{family} requests answered", latencies)
        if not latencies:
            continue
        label = workload.labels[family]
        metrics[f"{family}_p50_ms"] = percentile(latencies, 50)
        lines.append((f"{label}_p50_ms", metrics[f"{family}_p50_ms"], "ms", f"n={len(latencies)}"))
        # the gated tail, and the highest percentile the samples support
        gated = workload.tails.get(family)
        highest = highest_supported(len(latencies))
        for q in sorted({q for q in (gated, highest) if q is not None}):
            tail = percentile(latencies, q)
            note = "tail_ms" if q == gated else "highest with 10 beyond"
            if not supported(len(latencies), q):
                note += f"; UNSUPPORTED: {beyond(len(latencies), q)} samples beyond"
            lines.append((f"{label}_p{q:g}_ms", tail, "ms", note))
        if gated is not None:
            metrics[f"{family}_tail_ms"] = percentile(latencies, gated)
    lines += workload.report_lines(kept)
    metrics["store_bytes_per_vertex"] = phase.store_bytes / phase.stored_vertices
    metrics["server_rss_mb"] = phase.rss_mb
    lines += [
        ("store_bytes_per_vertex", metrics["store_bytes_per_vertex"], "bytes",
         f"{phase.store_bytes} bytes / {phase.stored_vertices} vertices"),
        ("server_rss_mb", phase.rss_mb, "MB", "VmHWM"),
        ("host_steal_frac", steal_fraction(phase.cpu[0][1], phase.cpu[-1][1]), "fraction",
         "CPU time the hypervisor gave other guests during the load"),
        ("stolen_windows", len(found), "count", stolen_note),
    ]
    for name in END_TO_END:
        metrics.setdefault(name, 0.0)
    return metrics, lines


def report(title: str, lines: list) -> None:
    print(title)
    for name, value, unit, note in lines:
        print(f"  {name:<28} {value:>14.6g} {unit:<9} {note}")


def report_checks(workload, phase: Phase) -> None:
    print("  counters " + json.dumps(phase.counters, sort_keys=True))
    expected = workload.expected_counters(phase.samples)
    if expected is not None:
        actual = {key: phase.counters.get(key) for key in expected}
        if actual == expected:
            print("  counters repeat exactly: they match the requests sent")
        else:
            print(f"  FLAG: counters {json.dumps(actual, sort_keys=True)} differ "
                  f"from the requests sent: {json.dumps(expected, sort_keys=True)}")
    for name, passed in phase.checks.items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    for error in phase.errors[:5]:
        print(f"  error: {error}")
    if len(phase.errors) > 5:
        print(f"  ... {len(phase.errors) - 5} more errors")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git``; "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(generator_cpus: frozenset[int], server_cpus: frozenset[int]) -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"

    def listed(cpus):
        return ",".join(map(str, sorted(cpus)))

    return (
        f"env nproc={len(generator_cpus | server_cpus)} cpus=generator:{listed(generator_cpus)}"
        f"/server:{listed(server_cpus)} python={platform.python_version()} "
        f"numpy={numpy_version} sqlite={sqlite3.sqlite_version} commit={git_commit()}"
    )


def bench(args: argparse.Namespace, work: Path) -> dict:
    from layers import PER_LAYER, per_layer
    from workloads import WORKLOADS

    # Left to the scheduler, where the generator's and the server's threads
    # land changes from run to run, and with it every latency (served-mix
    # lookup p50 moved by up to 37% between five runs); on CPUs of their
    # own, five runs agreed within 10%.  Threads started later inherit
    # this thread's affinity.
    generator_cpus, server_cpus = split_cpus(os.sched_getaffinity(0))
    os.sched_setaffinity(0, generator_cpus)
    workload = WORKLOADS[args.workload]()
    started = time.perf_counter()
    workload.build(args.seed, args.seconds, work / "pristine")
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(environment(generator_cpus, server_cpus))
    print(f"inputs built in {time.perf_counter() - started:.1f} s: {workload.describe()}")
    untraced = run_phase(workload, work, args.seconds, traced=False, server_cpus=server_cpus)
    # every phase's requests count towards attempted and failed
    phases = [untraced]
    if untraced.mostly_stolen:
        print("untraced run: the hypervisor stole CPU time through most of the load, "
              "so it is measured again once the host is quiet")
        report_checks(workload, untraced)
        print(f"  waited {await_quiet_host():.0f} s for the host to go quiet")
        untraced = run_phase(workload, work, args.seconds, traced=False, server_cpus=server_cpus)
        phases.append(untraced)
    metrics, lines = end_to_end(workload, untraced)
    report("untraced run:", lines)
    report_checks(workload, untraced)
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    if args.trace:
        traced = run_phase(workload, work, args.seconds, traced=True, server_cpus=server_cpus)
        phases.append(traced)
        traced_metrics, traced_lines = end_to_end(workload, traced)
        report("traced run:", traced_lines)
        report_checks(workload, traced)
        print("end-to-end metrics, untraced vs traced (the tracing overhead):")
        for name, unit in END_TO_END.items():
            plain, with_trace = metrics[name], traced_metrics[name]
            change = (with_trace / plain - 1) * 100 if plain else 0.0
            print(f"  {name:<28} {plain:>14.6g} {with_trace:>14.6g} {unit:<9} {change:+7.1f}%")
        extras = {
            "wal_bytes_max": traced.wal_bytes_max,
            "label_bits_avg": statistics.fmean(
                run.average_label_length_bits() for run in workload.stored_runs()
            ),
            "retries": traced.retries,
            "lag_ms_max": max((s.lag for s in traced.samples), default=0.0) * 1e3,
        }
        layers, accounting = per_layer(
            traced.server_spans, traced.client_spans, traced.window, traced.counters, extras
        )
        print("accounting: layer self times + client decode + server.other_ms vs client latency")
        for family, parts in accounting.items():
            print(f"  {family:<7} " + " ".join(
                f"{key}={value:.6g}" for key, value in parts.items()
            ))
        print("per-layer metrics (traced run):")
        for name, (unit, _better) in PER_LAYER.items():
            print(f"  {name:<32} {layers[name]:>14.6g} {unit}")
        result = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    sent = [s for phase in phases for s in phase.settle + phase.samples]
    attempted = len(sent)
    failed = sum(1 for s in sent if not s.ok)
    return {
        "correct": failed == 0 and all(phase.ok for phase in phases),
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Drive a live repro serve daemon.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_FAULTS"):
        print(
            "perfbench: REPRO_FAULTS is set; injected faults would distort every "
            "number, so the benchmark refuses to run",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = bench(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
