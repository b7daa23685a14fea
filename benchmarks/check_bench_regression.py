#!/usr/bin/env python3
"""Diff fresh BENCH_*.json results against the committed baselines.

Usage::

    python benchmarks/check_bench_regression.py \
        [--results-dir benchmarks/results] \
        [--baseline-dir benchmarks/baselines] \
        [--threshold 0.30] [--strict-qps]

For every experiment present in **both** directories, rows are matched on
their identity columns (scheme / workload / kernel / run counts) and the
throughput metrics are compared.  By default only the ``speedup`` columns
are gated — speedups are ratios of two timings taken on the same machine
in the same process, so they transfer across hardware, which absolute
queries/second numbers (committed from a different machine) do not.  Pass
``--strict-qps`` to additionally gate every ``*_qps``/``*_vps`` column,
e.g. when regenerating baselines on the same host.

Exit status is 1 when any gated metric fell more than ``threshold``
(default 30%) below its baseline.  Small speedups (baseline < 3x) are
short cold-store timing ratios where scheduler noise alone can eat 30%,
so they get a wider 50% margin — floored at 1.0x, because a batched path
that stops beating its per-pair baseline at all is a real regression on
any hardware.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: row keys that identify a row rather than measure it
_IDENTITY_KEYS = (
    "scheme",
    "spec_scheme",
    "workload",
    "kernel",
    "mode",
    "runs",
    "vertices_per_run",
    "run_size",
    "pairs",
    "appends",
    "workers",
    "shards",
    "pool",
    "clients",
    "op_mix",
    "pushdown",
    "vertices",
    "updates",
    "faults",
)


def _row_identity(row: dict) -> tuple:
    return tuple((key, row[key]) for key in _IDENTITY_KEYS if key in row)


def _gated_metrics(row: dict, strict_qps: bool) -> dict:
    metrics = {}
    for key, value in row.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key == "speedup":
            metrics[key] = float(value)
        elif strict_qps and (key.endswith("_qps") or key.endswith("_vps")):
            metrics[key] = float(value)
    return metrics


def check(results_dir: Path, baseline_dir: Path, threshold: float, strict_qps: bool) -> int:
    baselines = {path.name: path for path in sorted(baseline_dir.glob("BENCH_*.json"))}
    if not baselines:
        print(f"no baselines under {baseline_dir}; nothing to gate")
        return 0
    failures: list[str] = []
    compared = 0
    for name, baseline_path in baselines.items():
        result_path = results_dir / name
        if not result_path.exists():
            print(f"SKIP {name}: no fresh result (experiment not run)")
            continue
        baseline = json.loads(baseline_path.read_text())
        result = json.loads(result_path.read_text())
        fresh_rows = {_row_identity(row): row for row in result.get("rows", [])}
        for baseline_row in baseline.get("rows", []):
            identity = _row_identity(baseline_row)
            fresh_row = fresh_rows.get(identity)
            if fresh_row is None:
                failures.append(f"{name}: row {dict(identity)} disappeared")
                continue
            for metric, old in _gated_metrics(baseline_row, strict_qps).items():
                new = fresh_row.get(metric)
                if not isinstance(new, (int, float)):
                    failures.append(
                        f"{name}: {dict(identity)} lost metric {metric!r}"
                    )
                    continue
                compared += 1
                if metric == "speedup" and old < 3.0:
                    # thin ratios wobble on shared runners: wide margin,
                    # but never accept dropping below break-even — unless
                    # the baseline itself was below break-even (the forced
                    # worker-pool rows on few-core hosts record honest
                    # sub-1x ratios; those gate at half their baseline)
                    floor = max(old * 0.5, 1.0) if old >= 1.0 else old * 0.5
                else:
                    floor = old * (1.0 - threshold)
                status = "FAIL" if new < floor else "ok"
                print(
                    f"{status:4s} {name} {dict(identity)} {metric}: "
                    f"{old:g} -> {new:g} (floor {floor:g})"
                )
                if new < floor:
                    failures.append(
                        f"{name}: {dict(identity)} {metric} regressed "
                        f"{old:g} -> {new:g} (> {threshold:.0%} drop)"
                    )
    print(f"compared {compared} gated metrics against {len(baselines)} baselines")
    if failures:
        print(f"\n{len(failures)} throughput regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path, default=here / "results")
    parser.add_argument("--baseline-dir", type=Path, default=here / "baselines")
    parser.add_argument("--threshold", type=float, default=0.30)
    parser.add_argument("--strict-qps", action="store_true")
    args = parser.parse_args(argv)
    return check(args.results_dir, args.baseline_dir, args.threshold, args.strict_qps)


if __name__ == "__main__":
    sys.exit(main())
