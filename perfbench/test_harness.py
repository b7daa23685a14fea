"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench

Covers the percentile rule (at least ten samples beyond a tail), failure
accounting, open-loop lateness, the windows left out for CPU steal, the
split of CPUs between load generator and server, span self-time
arithmetic and the span recorder, and that BENCHMARK.json names what the
harness reports.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from harness import (
    Sample,
    beyond,
    failure_accounting,
    highest_supported,
    open_loop,
    open_loop_schedule,
    outside,
    percentile,
    split_cpus,
    steal_fraction,
    stolen_windows,
    supported,
    whole_blocks,
)
from layers import PER_LAYER, per_layer
from run import END_TO_END, WORKLOAD_NAMES
from tracing import Recorder, adopt_orphans, covered, parallel_excess, self_times

HERE = Path(__file__).resolve().parent


def span(name, start, end, span_id, parent=0, thread=1, attrs=None):
    return (name, start, end, span_id, parent, thread, attrs)


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_a_tail_needs_ten_samples_beyond_it(self):
        assert beyond(1000, 99) == 10 and supported(1000, 99)
        assert not supported(999, 99)
        assert supported(100, 90) and not supported(99, 90)
        assert supported(40, 75) and not supported(39, 75)
        assert supported(20, 50) and not supported(19, 50)
        assert not supported(0, 50)

    def test_highest_supported_percentile(self):
        assert highest_supported(10_000) == 99.9
        assert highest_supported(1_000) == 99.0
        assert highest_supported(150) == 90.0
        assert highest_supported(40) == 75.0
        assert highest_supported(12) is None


class TestFailureAccounting:
    def test_failed_over_attempted(self):
        samples = [
            Sample(0, index, "lookup", 0.0, 0.0, 0.001, ok)
            for index, ok in enumerate([True, False, True, True])
        ]
        assert failure_accounting(samples) == (4, 1, 0.25)
        assert failure_accounting([]) == (0, 0, 0.0)

    def test_percentiles_see_whole_blocks(self):
        samples = [Sample(0, i, "lookup", 0, 0, 1, True) for i in reversed(range(23))]
        samples += [Sample(1, i, "bulk", 0, 0, 1, True) for i in range(3)]
        kept = whole_blocks(samples, {0: 10, 1: 5})
        assert [s.index for s in kept if s.conn == 0] == list(range(20))
        assert len([s for s in kept if s.conn == 1]) == 3  # under one block: all


class TestStolenWindows:
    @staticmethod
    def cpu(steal, total):
        """A ``/proc/stat`` cpu line: steal is the eighth field."""
        return [total - steal, 0, 0, 0, 0, 0, 0, steal]

    def test_requests_touching_a_stolen_window_are_left_out(self):
        readings = [
            (0.0, self.cpu(0, 0)),
            (1.0, self.cpu(1, 200)),
            (2.0, self.cpu(41, 400)),  # 40 of 200 jiffies stolen
            (3.0, self.cpu(42, 600)),
        ]
        assert steal_fraction(readings[1][1], readings[2][1]) == 0.2
        windows = stolen_windows(readings, 0.02)
        assert windows == [(1.0, 2.0)]
        samples = [
            Sample(0, index, "lookup", start, start, start + 0.3, True)
            for index, start in enumerate((0.2, 0.8, 1.5, 2.1))
        ]
        assert [s.index for s in outside(samples, windows)] == [0, 3]
        # an open-loop request counts from its due time
        late = Sample(0, 4, "bulk", 1.9, 2.2, 2.5, True)
        assert outside([late], windows) == []


def test_generator_and_server_get_cpus_of_their_own():
    assert split_cpus({3, 1}) == ({1}, {3})
    assert split_cpus([0, 1, 2, 3]) == ({0}, {1, 2, 3})
    assert split_cpus([5]) == ({5}, {5})  # one CPU: shared


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestOpenLoop:
    def test_schedule(self):
        assert open_loop_schedule(10.0, 2.0, 2.0) == [10.0, 10.5, 11.0, 11.5]
        assert len(open_loop_schedule(0.0, 2.0, 20.0)) == 40

    def test_latency_counts_from_the_due_time(self):
        clock = FakeClock()
        durations = [0.2, 0.9, 0.1, 0.1]  # the second send overruns its slot

        def send(index):
            clock.now += durations[index]
            return True

        sent = open_loop(open_loop_schedule(0.0, 2.0, 2.0), send, clock, clock.sleep)
        samples = [Sample(0, k, "bulk", *record) for k, record in enumerate(sent)]
        assert [s.scheduled for s in samples] == [0.0, 0.5, 1.0, 1.5]
        assert [s.lag for s in samples] == pytest.approx([0.0, 0.0, 0.4, 0.0])
        assert [s.latency for s in samples] == pytest.approx([0.2, 0.9, 0.5, 0.1])


class TestSpanArithmetic:
    def test_covered_is_the_union_clipped_to_the_parent(self):
        assert covered([(0, 10), (5, 20), (30, 40)], 0, 35) == 25
        assert covered([], 0, 10) == 0

    def test_self_time_subtracts_what_children_cover(self):
        spans = [
            span("root", 0, 100, 1),
            span("a", 10, 40, 2, 1),
            span("b", 30, 60, 3, 1),  # overlaps a: two pool workers
            span("c", 50, 55, 4, 3),
        ]
        selfs = self_times(spans)
        assert selfs == {1: 50, 2: 30, 3: 25, 4: 5}
        excess = parallel_excess(spans)
        assert excess == {1: 10, 3: 0}
        assert sum(selfs.values()) - sum(excess.values()) == 100

    def test_pool_thread_spans_join_the_request_they_ran_under(self):
        spans = [
            span("api.run", 0, 100, 1, thread=1),
            span("engine.executor", 10, 90, 2, 1, thread=1),
            span("storage.fetch", 20, 50, 3, thread=2),
            span("storage.fetch", 25, 60, 4, thread=3),
            span("server.encode", 100, 110, 5, thread=1),
            span("storage.fetch", 200, 210, 6, thread=2),
        ]
        parents = {s[3]: s[4] for s in adopt_orphans(spans, "api.run")}
        assert parents == {1: 0, 2: 1, 3: 2, 4: 2, 5: 0, 6: 0}

    def test_layers_and_other_add_up_to_the_client_latency(self):
        run = {"op": "CrossRunQuery", "pairs": 0, "rows": 10}
        server = [
            span("api.run", 100, 200, 1, attrs=run),
            span("engine.executor", 110, 190, 2, 1),
            span("storage.fetch", 120, 170, 3, thread=2, attrs={"rows": 20}),
            span("server.encode", 205, 215, 4),
        ]
        client = [
            span("client.run", 90, 240, 11, thread=9, attrs={"op": "CrossRunQuery"}),
            span("server.response", 220, 220, 12, 11, thread=9, attrs={"bytes": 64}),
            span("server.decode", 225, 235, 13, 11, thread=9),
        ]
        extras = {"wal_bytes_max": 0, "label_bits_avg": 0.0, "retries": 0, "lag_ms_max": 0.0}
        metrics, accounting = per_layer(server, client, (0, 1000), {}, extras)
        sweep = accounting["sweep"]
        assert sweep["client_ms"] * 1e6 == pytest.approx(150)
        assert sweep["other_ms"] * 1e6 == pytest.approx(150 - 100 - 10 - 10)
        assert sweep["error_frac"] == 0
        assert metrics["server.response_bytes.sweep"] == 64
        assert metrics["storage.fetch_useful_frac"] == 0.5
        assert metrics["engine.executor_self_ms"] * 1e6 == pytest.approx(80 - 50)


class TestRecorder:
    def test_wraps_records_parents_and_restores(self):
        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        original = Box.__dict__["outer"]
        recorder = Recorder()
        recorder.patch_method(Box, "outer", "outer")
        recorder.patch_method(Box, "inner", "inner", lambda _args, result: {"value": result})
        assert Box().outer() == 2
        inner, outer = recorder.spans
        assert (inner[0], outer[0]) == ("inner", "outer")
        assert inner[4] == outer[3] and outer[4] == 0
        assert inner[6] == {"value": 1}
        recorder.restore()
        assert Box.__dict__["outer"] is original

    def test_reentry_into_one_layer_is_one_span(self):
        recorder = Recorder()

        def countdown(n):
            return 0 if n == 0 else wrapped(n - 1)

        wrapped = recorder.wrap("layer", countdown)
        wrapped(3)
        assert len(recorder.spans) == 1


def test_benchmark_json_names_what_the_harness_reports():
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
