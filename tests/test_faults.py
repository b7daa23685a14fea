"""The fault-tolerance layer under deterministic fault injection.

Covers the injection framework itself (the ``REPRO_FAULTS`` grammar,
trigger rules, seeded determinism, suppression, env activation), graceful
degradation in the local stack (pushdown SQL faults falling back to the
streamed kernel, crashed or hung worker chunks retried then re-run
sequentially), the client's retry/backoff/reconnect
machinery (transport faults on send and receive, exactly-once ingest
replay across a forced mid-flush disconnect and across a server restart,
the circuit breaker), the HEALTH op, the stop()-during-buffered-ingest
regression, and the CLI ``health`` subcommand.  Every recovery asserts
bit-identical answers against an unfaulted oracle — degradation may
never change a result.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import faults
from repro.api import (
    CrossRunQuery,
    DownstreamQuery,
    PointQuery,
    ProvenanceSession,
)
from repro.cli import main
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
import repro.engine.parallel as parallel
from repro.engine.parallel import CrossRunExecutor
from repro.exceptions import (
    CircuitOpenError,
    FaultSpecError,
    ProtocolError,
    WorkerCrashError,
)
from repro.faults import (
    CHAOS_POINTS,
    FaultPlan,
    FaultRule,
    InjectedConnectionError,
    InjectedOperationalError,
    active_plans,
    fault_point,
    parse_fault_spec,
    suppressed,
)
from repro.server import RemoteStore, ServerThread
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import ShardedProvenanceStore
from repro.storage.store import ProvenanceStore
from repro.workflow.execution import generate_run_with_size


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """These tests count exact fires of explicit plans; a REPRO_FAULTS
    chaos profile (the CI chaos leg) would add fires of its own and skew
    every counter assertion, so the env plan is masked here.  The chaos
    leg's coverage of this surface comes from ``test_faults_properties``
    and the server/parallel suites, which assert outcomes, not counts."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# ----------------------------------------------------------------------
# the injection framework
# ----------------------------------------------------------------------
class TestFaultRules:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan([FaultRule("pool.task", "crash", nth=2)])
        with plan.active():
            fault_point("pool.task")
            with pytest.raises(WorkerCrashError):
                fault_point("pool.task")
            for _ in range(5):
                fault_point("pool.task")
        assert plan.calls == {"pool.task": 7}
        assert plan.fired == {"pool.task": 1}

    def test_every_fires_periodically(self):
        plan = FaultPlan([FaultRule("client.send", "oserror", every=3)])
        fired = 0
        with plan.active():
            for _ in range(9):
                try:
                    fault_point("client.send")
                except InjectedConnectionError:
                    fired += 1
        assert fired == 3
        assert plan.fired == {"client.send": 3}

    def test_times_caps_total_fires(self):
        plan = FaultPlan([FaultRule("client.recv", "oserror", every=1, times=2)])
        fired = 0
        with plan.active():
            for _ in range(10):
                try:
                    fault_point("client.recv")
                except InjectedConnectionError:
                    fired += 1
        assert fired == 2

    def test_probabilistic_rule_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultRule("pool.task", "crash", p=0.5)], seed=seed
            )
            observed = []
            with plan.active():
                for _ in range(64):
                    try:
                        fault_point("pool.task")
                        observed.append(False)
                    except WorkerCrashError:
                        observed.append(True)
            return observed

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # astronomically unlikely to collide

    def test_reset_rewinds_the_deterministic_stream(self):
        plan = FaultPlan([FaultRule("pool.task", "crash", p=0.5)], seed=3)

        def sample():
            observed = []
            with plan.active():
                for _ in range(32):
                    try:
                        fault_point("pool.task")
                        observed.append(False)
                    except WorkerCrashError:
                        observed.append(True)
            return observed

        first = sample()
        plan.reset()
        assert sample() == first

    def test_kinds_map_to_exception_shapes(self):
        import sqlite3

        with FaultPlan([FaultRule("store.connect", "sql", once=True)]).active():
            with pytest.raises(sqlite3.OperationalError):
                fault_point("store.connect")
        with FaultPlan([FaultRule("client.send", "oserror", once=True)]).active():
            with pytest.raises(OSError):
                fault_point("client.send")

    def test_unknown_point_and_kind_fail_fast(self):
        with pytest.raises(FaultSpecError, match="unknown fault point"):
            FaultRule("store.nope", "oserror", once=True)
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            FaultRule("pool.task", "segfault", once=True)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(FaultSpecError, match="exactly one trigger"):
            FaultRule("pool.task", "crash")
        with pytest.raises(FaultSpecError, match="exactly one trigger"):
            FaultRule("pool.task", "crash", nth=1, every=2)
        with pytest.raises(FaultSpecError, match="mutually exclusive"):
            FaultRule("pool.task", "crash", once=True, nth=2)

    def test_suppressed_masks_every_point(self):
        plan = FaultPlan([FaultRule("pool.task", "crash", every=1)])
        with plan.active():
            with suppressed():
                for _ in range(5):
                    fault_point("pool.task")  # must not raise
            with pytest.raises(WorkerCrashError):
                fault_point("pool.task")
        # suppression did not advance the counters
        assert plan.calls == {"pool.task": 1}

    def test_inactive_points_are_free(self):
        fault_point("client.send")  # no active plan: a no-op


class TestFaultSpecGrammar:
    def test_full_spec_round_trip(self):
        plan = parse_fault_spec(
            "client.recv:oserror,nth=3;pool.task:crash,p=0.05;seed=7"
        )
        assert plan.seed == 7
        assert [(r.point, r.kind, r.nth, r.p) for r in plan.rules] == [
            ("client.recv", "oserror", 3, None),
            ("pool.task", "crash", None, 0.05),
        ]

    def test_kind_defaults_to_oserror(self):
        (rule,) = parse_fault_spec("client.send:once").rules
        assert rule.kind == "oserror" and rule.nth == 1

    def test_chaos_expands_to_recoverable_points(self):
        plan = parse_fault_spec("chaos:p=0.25;seed=42")
        assert plan.seed == 42
        assert {rule.point: rule.kind for rule in plan.rules} == CHAOS_POINTS
        assert all(rule.p == 0.25 for rule in plan.rules)

    def test_chaos_default_probability(self):
        plan = parse_fault_spec("chaos")
        assert all(rule.p == 0.01 for rule in plan.rules)

    def test_spec_errors(self):
        with pytest.raises(FaultSpecError, match="unknown fault point"):
            parse_fault_spec("disk.melt:oserror,once")
        with pytest.raises(FaultSpecError, match="unknown fault point"):
            parse_fault_spec("pool.submit:oserror")
        with pytest.raises(FaultSpecError, match="unknown fault point"):
            parse_fault_spec("routing.migrate:crash,once")
        with pytest.raises(FaultSpecError, match="unknown key"):
            parse_fault_spec("pool.task:crash,when=later")
        with pytest.raises(FaultSpecError, match="bad seed"):
            parse_fault_spec("seed=many")
        with pytest.raises(FaultSpecError, match="chaos profile picks the kind"):
            parse_fault_spec("chaos:oserror")
        with pytest.raises(FaultSpecError, match="unknown key"):
            parse_fault_spec("chaos:p=0.1,seed=7")  # seed is its own clause
        with pytest.raises(FaultSpecError, match="two fault kinds"):
            parse_fault_spec("pool.task:crash,oserror,once")

    def test_env_activation_and_hot_swap(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "client.send:oserror,nth=1")
        with pytest.raises(InjectedConnectionError):
            fault_point("client.send")
        fault_point("client.send")  # nth=1 spent
        # changing the variable re-parses (fresh counters)
        monkeypatch.setenv("REPRO_FAULTS", "client.send:oserror,nth=1;seed=9")
        assert [plan.seed for plan in active_plans()] == [9]
        with pytest.raises(InjectedConnectionError):
            fault_point("client.send")
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_plans() == []


# ----------------------------------------------------------------------
# local degradation: pushdown fallback + worker retry/sequential
# ----------------------------------------------------------------------
def _forest_spec(name, seed=11, n_modules=14):
    return generate_specification(
        SyntheticSpecConfig(
            n_modules=n_modules,
            n_edges=n_modules - 1,
            hierarchy_size=4,
            hierarchy_depth=2,
            name=name,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def degradation_store(tmp_path_factory):
    """An interval-labeled store (pushdown-capable) with several runs."""
    spec = _forest_spec("faults-forest")
    labeler = SkeletonLabeler(spec, "interval")
    store = ProvenanceStore(tmp_path_factory.mktemp("faults") / "prov.db")
    anchor = None
    for index in range(6):
        generated = generate_run_with_size(
            spec, 40, seed=index, name=f"faulted-{index}"
        )
        store.add_labeled_run(labeler.label_run(generated.run))
        if anchor is None:
            vertex = generated.run.vertices()[0]
            anchor = (vertex.module, vertex.instance)
    yield store, spec, anchor
    store.close()


class TestPushdownDegradation:
    def test_single_run_sweep_falls_back_bit_identically(self, degradation_store):
        store, spec, anchor = degradation_store
        session = ProvenanceSession(store)
        query = DownstreamQuery(anchor, run_id=1, pushdown="always")
        oracle = session.run(query)
        before = store.cache_stats()["degraded"].get("pushdown_fallback", 0)
        plan = FaultPlan([FaultRule("pushdown.sql", "sql", nth=1)])
        with plan.active():
            degraded = session.run(query)
        assert plan.fired == {"pushdown.sql": 1}
        assert degraded == oracle
        after = store.cache_stats()["degraded"]["pushdown_fallback"]
        assert after == before + 1

    def test_cross_run_sweep_falls_back_bit_identically(self, degradation_store):
        store, spec, anchor = degradation_store
        session = ProvenanceSession(store)
        query = CrossRunQuery(spec.name, anchor, pushdown="always", workers=1)
        oracle = session.run(query)
        plan = FaultPlan([FaultRule("pushdown.sql", "sql", nth=1)])
        with plan.active():
            degraded = session.run(query)
        assert plan.fired == {"pushdown.sql": 1}
        assert degraded.per_run == oracle.per_run
        assert degraded.skipped_runs == oracle.skipped_runs
        assert store.cache_stats()["degraded"]["pushdown_fallback"] >= 1


class TestWorkerDegradation:
    def test_crashed_chunk_is_retried_once(self, degradation_store):
        store, spec, anchor = degradation_store
        executor = CrossRunExecutor(store, workers=2)
        oracle = executor.sweep(spec.name, anchor)
        before = store.cache_stats()["degraded"].get("worker_retry", 0)
        plan = FaultPlan([FaultRule("pool.task", "crash", nth=1)])
        with plan.active():
            degraded = executor.sweep(spec.name, anchor)
        assert plan.fired == {"pool.task": 1}
        assert degraded == oracle
        assert store.cache_stats()["degraded"]["worker_retry"] == before + 1

    def test_persistent_crash_degrades_to_sequential(self, degradation_store):
        store, spec, anchor = degradation_store
        executor = CrossRunExecutor(store, workers=2)
        oracle = executor.sweep(spec.name, anchor)
        # every=1: the retry fails too; only the suppressed() sequential
        # fallback can finish — and it must match bit-identically
        plan = FaultPlan([FaultRule("pool.task", "crash", every=1)])
        with plan.active():
            degraded = executor.sweep(spec.name, anchor)
        assert degraded == oracle
        counters = store.cache_stats()["degraded"]
        assert counters["worker_retry"] >= 1
        assert counters["worker_sequential"] >= 1

    @pytest.mark.parametrize(
        ("hangs", "inline_reruns"),
        [(2, 1), (1, 0)],
        ids=["retry-hangs-too", "retry-answers"],
    )
    def test_hung_chunk_times_out_without_waiting_for_its_thread(
        self, degradation_store, monkeypatch, hangs, inline_reruns
    ):
        store, spec, anchor = degradation_store
        oracle = CrossRunExecutor(store, workers=1).sweep(spec.name, anchor)
        hung_run = int(store.list_runs(spec.name)[0]["run_id"])
        caller = threading.current_thread()
        release = threading.Event()
        hung_threads = []
        fetch = parallel._fetch_chunk_arrays

        def hanging_fetch(db_path, run_ids):
            # the first *hangs* worker attempts at the hung run's chunk
            # block; later attempts, and the inline fallback on the
            # calling thread, get through
            worker = threading.current_thread() is not caller
            if hung_run in run_ids and worker and len(hung_threads) < hangs:
                hung_threads.append(threading.current_thread())
                release.wait()
            return fetch(db_path, run_ids)

        monkeypatch.setattr(parallel, "_fetch_chunk_arrays", hanging_fetch)
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.2")
        before = store.cache_stats()["degraded"]
        # never hang the suite, even if the sweep waited for its workers
        failsafe = threading.Timer(5.0, release.set)
        failsafe.start()
        try:
            degraded = CrossRunExecutor(store, workers=2).sweep(spec.name, anchor)
            # the sweep returned while the hung chunk's thread still waited
            assert not release.is_set()
        finally:
            release.set()
            failsafe.cancel()
            for thread in hung_threads:
                thread.join(5.0)
        assert degraded == oracle
        after = store.cache_stats()["degraded"]
        assert after["worker_retry"] == before.get("worker_retry", 0) + 1
        inline = after.get("worker_sequential", 0) - before.get("worker_sequential", 0)
        assert inline == inline_reruns

    def test_crashed_pushdown_chunk_is_retried_once(self, degradation_store):
        store, spec, anchor = degradation_store
        executor = CrossRunExecutor(store, workers=2)
        oracle = CrossRunExecutor(store, workers=1).sweep_pushdown(spec.name, anchor)
        assert executor.sweep_pushdown(spec.name, anchor) == oracle
        before = store.cache_stats()["degraded"].get("worker_retry", 0)
        plan = FaultPlan([FaultRule("pool.task", "crash", nth=1)])
        with plan.active():
            degraded = executor.sweep_pushdown(spec.name, anchor)
        assert plan.fired == {"pool.task": 1}
        assert degraded == oracle
        assert store.cache_stats()["degraded"]["worker_retry"] == before + 1


# ----------------------------------------------------------------------
# the client retry machinery, exactly-once ingest, breaker and HEALTH
# ----------------------------------------------------------------------
@pytest.fixture()
def served_faulted(tmp_path, paper_spec, paper_labeler, paper_run):
    """A sharded store with one run behind a ServerThread, plus a client."""
    store = ShardedProvenanceStore(tmp_path / "served-faults", 2)
    store.add_labeled_runs([paper_labeler.label_run(paper_run)])
    with ServerThread(store) as server:
        client = RemoteStore(
            server.url, retries=3, backoff_base=0.01, retry_seed=1
        )
        try:
            yield store, server, client
        finally:
            client.close()
    store.close()


class TestClientRetry:
    def test_recv_fault_is_retried_transparently(self, served_faulted):
        store, server, client = served_faulted
        oracle = client.list_runs()
        plan = FaultPlan([FaultRule("client.recv", "oserror", nth=1)])
        with plan.active():
            assert client.list_runs() == oracle
        assert plan.fired == {"client.recv": 1}
        assert client.fault_stats["retries"] >= 1
        assert client.fault_stats["reconnects"] >= 1

    def test_send_fault_is_retried_transparently(self, served_faulted):
        store, server, client = served_faulted
        session = client.session()
        run_id = int(client.list_runs()[0]["run_id"])
        query = PointQuery(("a", 1), ("h", 1), run_id=run_id)
        oracle = session.run(query)
        plan = FaultPlan([FaultRule("client.send", "oserror", nth=1)])
        with plan.active():
            assert session.run(query) == oracle
        assert plan.fired == {"client.send": 1}
        assert client.fault_stats["retries"] >= 1

    def test_retries_exhausted_raises_typed_error(self, served_faulted):
        store, server, client = served_faulted
        # more consecutive faults than retries: the typed error surfaces,
        # the client stays usable afterwards
        plan = FaultPlan(
            [FaultRule("client.send", "oserror", every=1, times=10)]
        )
        with plan.active():
            with pytest.raises((ProtocolError, OSError)):
                client.list_runs()
        assert client.list_runs()  # recovered once the plan is gone

    def test_mid_flush_disconnect_commits_exactly_once(
        self, served_faulted, paper_spec, paper_labeler, paper_run
    ):
        store, server, client = served_faulted
        labeled = paper_labeler.label_run(
            generate_run_with_size(
                paper_spec, 24, seed=31, name="mid-flush"
            ).run
        )
        baseline = len(client.list_runs(paper_spec.name))
        assert client.ingest([labeled], flush=False) == []
        assert client.pending_ingest == 1
        # the flush commits server-side, then the ack is lost: the client
        # reconnects and replays the entry, and the store answers the run
        # it already holds under that name with its id — never a second
        # copy
        plan = FaultPlan([FaultRule("client.recv", "oserror", nth=1)])
        with plan.active():
            run_ids = client.flush()
        assert plan.fired == {"client.recv": 1}
        assert len(run_ids) == 1
        assert client.pending_ingest == 0
        assert client.fault_stats["retries"] >= 1
        rows = client.list_runs(paper_spec.name)
        assert len(rows) == baseline + 1
        assert run_ids[0] in {int(row["run_id"]) for row in rows}

    def test_replayed_ingest_never_duplicates_across_reconnects(
        self, served_faulted, paper_spec, paper_labeler, paper_run
    ):
        store, server, client = served_faulted
        labeled = [
            paper_labeler.label_run(
                generate_run_with_size(
                    paper_spec, 24, seed=seed, name=f"replay-{seed}"
                ).run
            )
            for seed in (7, 8)
        ]
        baseline = len(client.list_runs(paper_spec.name))
        # lose the ack of each of the two flushes: two reconnect/replay
        # cycles, still exactly two new runs
        plan = FaultPlan([FaultRule("client.recv", "oserror", nth=1, times=1)])
        with plan.active():
            first = client.ingest([labeled[0]], flush=True)
        second = client.ingest([labeled[1]], flush=True)
        assert len(first) == 1 and len(second) == 1
        rows = client.list_runs(paper_spec.name)
        assert len(rows) == baseline + 2
        names = [row["name"] for row in rows]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("shards", [None, 2], ids=["file", "sharded"])
    def test_lost_ack_replays_after_a_server_restart(
        self, tmp_path, paper_spec, paper_labeler, shards
    ):
        first, second = (
            paper_labeler.label_run(
                generate_run_with_size(paper_spec, 24, seed=seed, name=name).run
            )
            for seed, name in ((41, "before-restart"), (42, "after-restart"))
        )
        path = tmp_path / ("restart.db" if shards is None else "restart")
        server = ServerThread(path=path, shards=shards).start()
        port = server.port
        client = RemoteStore(server.url, retries=0)
        try:
            assert client.ingest([first], flush=False) == []
            # the flush commits, then its acknowledgment never leaves
            plan = FaultPlan([FaultRule("server.write", "oserror", nth=1)])
            with plan.active():
                with pytest.raises(ProtocolError):
                    client.flush()
            assert plan.fired == {"server.write": 1}
            assert client.pending_ingest == 1
            server.stop()
            # a new process would find the same store and nothing else
            server = ServerThread(path=path, shards=shards, port=port).start()
            (stored,) = client.list_runs(paper_spec.name)
            assert client.flush() == [stored["run_id"]]
            assert client.pending_ingest == 0
            (fresh_id,) = client.ingest([second])
            names = {row["run_id"]: row["name"] for row in client.list_runs()}
            assert names == {
                stored["run_id"]: "before-restart",
                fresh_id: "after-restart",
            }
        finally:
            client.close()
            server.stop()

    def test_circuit_breaker_opens_and_half_opens(self, tmp_path, paper_labeler, paper_run):
        store = ProvenanceStore(tmp_path / "breaker.db")
        store.add_labeled_run(paper_labeler.label_run(paper_run))
        server = ServerThread(store).start()
        client = RemoteStore(
            server.url,
            retries=0,
            backoff_base=0.001,
            breaker_threshold=2,
            breaker_reset=0.2,
        )
        try:
            assert client.list_runs()
            server.stop()
            for _ in range(2):
                with pytest.raises((ProtocolError, OSError)):
                    client.list_runs()
            assert client.fault_stats["breaker_opens"] == 1
            # open: fast-fail without touching the socket
            with pytest.raises(CircuitOpenError):
                client.list_runs()
            assert client.fault_stats["circuit_rejections"] >= 1
            # half-open after the reset window: a real (failing) probe, so
            # a typed connection error again, not CircuitOpenError
            time.sleep(0.25)
            with pytest.raises((ProtocolError, OSError)) as excinfo:
                client.list_runs()
            assert not isinstance(excinfo.value, CircuitOpenError)
        finally:
            client.close()
            store.close()

    def test_closed_client_refuses_requests(self, served_faulted):
        store, server, client = served_faulted
        client.close()
        with pytest.raises(ProtocolError, match="closed"):
            client.list_runs()


class TestHealthOp:
    def test_health_reports_shards_and_protocol(self, served_faulted):
        store, server, client = served_faulted
        report = client.health()
        assert report["status"] == "ok"
        assert report["protocol"] == 6
        assert report["shards_total"] == 2
        assert report["shards_reachable"] == 2
        assert report["connections"] >= 1
        assert isinstance(report["degraded"], dict)

    def test_cli_health_subcommand(self, served_faulted, capsys):
        store, server, client = served_faulted
        assert main(["health", "--database", server.url]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["shards_total"] == 2

    def test_cli_health_rejects_local_paths(self, tmp_path, capsys):
        assert main(["health", "--database", str(tmp_path / "x.db")]) == 2
        assert "repro://" in capsys.readouterr().err


# ----------------------------------------------------------------------
# stop() vs buffered ingest (the shutdown regression)
# ----------------------------------------------------------------------
class TestStopFlushesBufferedIngest:
    def test_stop_flushes_ingest_buffered_on_a_live_connection(
        self, tmp_path, paper_spec, paper_labeler, paper_run
    ):
        store = ProvenanceStore(tmp_path / "stop-flush.db")
        server = ServerThread(store).start()
        client = RemoteStore(server.url)
        try:
            assert client.ingest(
                [paper_labeler.label_run(paper_run)], flush=False
            ) == []
            # the entry sits in the server's per-connection buffer with no
            # disconnect to trigger the eof flush: stop() must commit it
            server.stop()
        finally:
            client.close()
        assert len(store.list_runs(paper_spec.name)) == 1
        store.close()

    def test_disconnect_racing_stop_commits_exactly_once(
        self, tmp_path, paper_spec, paper_labeler, paper_run
    ):
        store = ProvenanceStore(tmp_path / "stop-race.db")
        server = ServerThread(store).start()
        client = RemoteStore(server.url)
        client.ingest([paper_labeler.label_run(paper_run)], flush=False)
        # eof-triggered disconnect-flush races the shutdown flush; both
        # paths serialize on the event-loop thread and pop the buffer first,
        # so exactly one commit survives
        client.close()
        server.stop()
        assert len(store.list_runs(paper_spec.name)) == 1
        store.close()
