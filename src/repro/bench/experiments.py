"""Experiment drivers reproducing every table and figure of Section 8.

Each ``figure_*`` / ``table_*`` function regenerates one published result and
returns an :class:`~repro.bench.reporting.ExperimentResult` whose rows mirror
the series plotted in the paper.  All functions take a *scale*
(``"smoke"``, ``"default"`` or ``"paper"``) controlling run sizes and query
counts, so the same code backs the unit tests, the default benchmark suite
and a full paper-sized reproduction.

Absolute milliseconds differ from the 2010 Java/Pentium testbed, so the
reproduction targets are the *shapes*: logarithmic label growth (Fig. 12),
linear construction time (Fig. 13, 16, 19), constant query time for the
TCM-backed variants (Fig. 14, 17), the amortization cross-over between
TCM+SKL and BFS+SKL (Fig. 15, 16), the orders-of-magnitude gap to the direct
TCM / BFS baselines (Fig. 16, 17) and the weak influence of the specification
size on large runs (Fig. 18-20).
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from typing import Optional

from repro.bench.harness import (
    BenchScale,
    generate_run_series,
    get_scale,
    measure_direct_scheme,
    measure_skeleton_scheme,
)
from repro.bench.metrics import (
    amortized_construction_seconds,
    amortized_label_bits,
    measure_query_seconds,
    sample_query_pairs,
    time_call,
)
from repro.bench.reporting import ExperimentResult
from repro.datasets.reallife import REAL_WORKFLOW_PROFILES, load_real_workflow
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.engine import QueryEngine
from repro.exceptions import ReproError
from repro.labeling.registry import build_index
from repro.skeleton.skl import SkeletonLabeler
from repro.workflow.execution import generate_run_with_size

__all__ = [
    "ablation_spec_schemes",
    "comparison_specification",
    "figure_12_label_length",
    "figure_13_construction_time",
    "figure_14_query_time",
    "scheme_comparison",
    "figure_15_label_length_comparison",
    "figure_16_construction_comparison",
    "figure_17_query_comparison",
    "spec_influence",
    "figure_18_spec_influence_label_length",
    "figure_19_spec_influence_construction",
    "figure_20_spec_influence_query",
    "table_1_real_workflows",
    "table_2_complexity",
    "throughput_query_engine",
    "throughput_handle_path",
    "throughput_cross_run",
    "throughput_parallel_cross_run",
    "throughput_sharded_ingest",
    "throughput_server",
    "throughput_sql_pushdown",
    "throughput_incremental_updates",
    "all_experiments",
]

#: amortization settings of Figures 15 and 16 (number of runs sharing the spec labels)
AMORTIZATION_RUNS: tuple[int, ...] = (1, 2, 10)

#: the synthetic workflow of Sections 8.2/8.3: nG=100, mG=200, |TG|=10, [TG]=4
_COMPARISON_SPEC = SyntheticSpecConfig(
    n_modules=100, n_edges=200, hierarchy_size=10, hierarchy_depth=4,
    name="synthetic-100", seed=42,
)


def comparison_specification():
    """The synthetic specification of Sections 8.2/8.3 (nG=100, mG=200)."""
    return generate_specification(_COMPARISON_SPEC)


# backwards-compatible private alias used by earlier revisions
_comparison_specification = comparison_specification


def _spec_influence_specification(n_modules: int):
    return generate_specification(
        SyntheticSpecConfig(
            n_modules=n_modules,
            n_edges=2 * n_modules,
            hierarchy_size=10,
            hierarchy_depth=4,
            name=f"synthetic-{n_modules}",
            seed=42 + n_modules,
        )
    )


# ----------------------------------------------------------------------
# Section 8.1 — SKL performance on a real workflow (Figures 12-14)
# ----------------------------------------------------------------------
def figure_12_label_length(
    scale: str | BenchScale = "default", *, workflow: str = "QBLAST", seed: int = 0
) -> ExperimentResult:
    """Figure 12: maximum and average SKL label length vs run size."""
    preset = get_scale(scale)
    spec = load_real_workflow(workflow)
    labeler = SkeletonLabeler(spec, "tcm")
    rows: list[dict] = []
    for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
        labeled = labeler.label_run(generated.run)
        run_size = generated.run.vertex_count
        rows.append(
            {
                "run_size": run_size,
                "max_label_bits": labeled.max_label_length_bits(),
                "avg_label_bits": round(labeled.average_label_length_bits(), 2),
                "bound_3log_nR": round(3 * math.log2(run_size), 2),
                "nonempty_plus_nodes": labeled.nonempty_plus_count,
            }
        )
    return ExperimentResult(
        experiment_id="figure-12",
        title=f"SKL label length for {workflow} (spec labeled by TCM)",
        rows=rows,
        notes=[
            "expected shape: both curves grow logarithmically with run size and the "
            "maximum stays below the 3*log2(nR) asymptote (Lemma 4.7)",
            f"scale={preset.name}; the specification labeling cost is excluded (Section 8.1)",
        ],
    )


def figure_13_construction_time(
    scale: str | BenchScale = "default", *, workflow: str = "QBLAST", seed: int = 0
) -> ExperimentResult:
    """Figure 13: SKL construction time, with and without a precomputed plan."""
    preset = get_scale(scale)
    spec = load_real_workflow(workflow)
    labeler = SkeletonLabeler(spec, "tcm")
    rows: list[dict] = []
    repetitions = 3  # best-of-3 guards single-shot timings against OS/GC hiccups
    for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
        default_seconds = min(
            time_call(labeler.label_run, generated.run)[1] for _ in range(repetitions)
        )
        with_plan_seconds = min(
            time_call(
                labeler.label_run,
                generated.run,
                plan=generated.plan,
                context=generated.context,
            )[1]
            for _ in range(repetitions)
        )
        rows.append(
            {
                "run_size": generated.run.vertex_count,
                "run_edges": generated.run.edge_count,
                "default_ms": round(default_seconds * 1e3, 3),
                "with_plan_ms": round(with_plan_seconds * 1e3, 3),
            }
        )
    return ExperimentResult(
        experiment_id="figure-13",
        title=f"SKL construction time for {workflow}",
        rows=rows,
        notes=[
            "expected shape: both settings grow linearly with run size and the "
            "'with execution plan & context' setting is markedly cheaper (the plan "
            "reconstruction dominates the default setting)",
            f"scale={preset.name}",
        ],
    )


def figure_14_query_time(
    scale: str | BenchScale = "default", *, workflow: str = "QBLAST", seed: int = 0
) -> ExperimentResult:
    """Figure 14: SKL query time vs run size (constant, TCM skeleton labels)."""
    preset = get_scale(scale)
    spec = load_real_workflow(workflow)
    labeler = SkeletonLabeler(spec, "tcm")
    rng = random.Random(seed)
    rows: list[dict] = []
    for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
        measurement, _ = measure_skeleton_scheme(
            labeler, generated.run, query_count=preset.query_count, rng=rng
        )
        rows.append(
            {
                "run_size": measurement.run_size,
                "query_us": round(measurement.query_seconds * 1e6, 4),
                "fast_path_fraction": round(measurement.fast_path_fraction or 0.0, 3),
            }
        )
    return ExperimentResult(
        experiment_id="figure-14",
        title=f"SKL query time for {workflow} (spec labeled by TCM)",
        rows=rows,
        notes=[
            "expected shape: flat (constant) query time across three orders of "
            "magnitude of run size",
            f"{preset.query_count} random queries per point (the paper uses 10^6)",
        ],
    )


# ----------------------------------------------------------------------
# Section 8.2 — TCM+SKL vs BFS+SKL vs direct TCM / BFS (Figures 15-17)
# ----------------------------------------------------------------------
def scheme_comparison(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """The shared sweep behind Figures 15, 16 and 17.

    Rows carry one (run size, scheme, amortization) combination with label
    length, construction time, query time and the fast-path fraction.
    """
    preset = get_scale(scale)
    spec = _comparison_specification()
    tcm_labeler = SkeletonLabeler(spec, "tcm")
    bfs_labeler = SkeletonLabeler(spec, "bfs")
    rng = random.Random(seed)
    rows: list[dict] = []

    for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
        run = generated.run
        run_size = run.vertex_count

        tcm_measurement, tcm_labeled = measure_skeleton_scheme(
            tcm_labeler, run, query_count=preset.query_count, rng=rng,
            scheme_label="tcm+skl",
        )
        bfs_measurement, _ = measure_skeleton_scheme(
            bfs_labeler, run, query_count=preset.query_count, rng=rng,
            scheme_label="bfs+skl",
        )

        spec_bits = tcm_labeler.spec_index.total_label_bits()
        for runs_amortized in AMORTIZATION_RUNS:
            rows.append(
                {
                    "run_size": run_size,
                    "scheme": "tcm+skl",
                    "amortized_runs": runs_amortized,
                    "max_label_bits": round(
                        amortized_label_bits(
                            tcm_measurement.max_label_bits, spec_bits, run_size, runs_amortized
                        ),
                        2,
                    ),
                    "construction_ms": round(
                        amortized_construction_seconds(
                            tcm_measurement.construction_seconds,
                            tcm_labeler.spec_labeling_seconds,
                            runs_amortized,
                        )
                        * 1e3,
                        3,
                    ),
                    "query_us": round(tcm_measurement.query_seconds * 1e6, 4),
                    "fast_path_fraction": round(tcm_measurement.fast_path_fraction or 0.0, 3),
                }
            )
        rows.append(
            {
                "run_size": run_size,
                "scheme": "bfs+skl",
                "amortized_runs": 1,
                "max_label_bits": round(bfs_measurement.max_label_bits, 2),
                "construction_ms": round(bfs_measurement.construction_seconds * 1e3, 3),
                "query_us": round(bfs_measurement.query_seconds * 1e6, 4),
                "fast_path_fraction": round(bfs_measurement.fast_path_fraction or 0.0, 3),
            }
        )

        # the run generator may overshoot the nominal target by a few vertices,
        # so compare against the limit with a small tolerance
        if run_size <= preset.direct_tcm_limit * 1.05:
            direct_tcm = measure_direct_scheme(
                "tcm", run, query_count=preset.query_count, rng=rng
            )
            rows.append(
                {
                    "run_size": run_size,
                    "scheme": "tcm",
                    "amortized_runs": 1,
                    "max_label_bits": round(direct_tcm.max_label_bits, 2),
                    "construction_ms": round(direct_tcm.construction_seconds * 1e3, 3),
                    "query_us": round(direct_tcm.query_seconds * 1e6, 4),
                    "fast_path_fraction": "",
                }
            )
        if run_size <= preset.direct_bfs_limit * 1.05:
            direct_bfs = measure_direct_scheme(
                "bfs", run, query_count=max(50, preset.query_count // 20), rng=rng
            )
            rows.append(
                {
                    "run_size": run_size,
                    "scheme": "bfs",
                    "amortized_runs": 1,
                    "max_label_bits": round(direct_bfs.max_label_bits, 2),
                    "construction_ms": round(direct_bfs.construction_seconds * 1e3, 3),
                    "query_us": round(direct_bfs.query_seconds * 1e6, 4),
                    "fast_path_fraction": "",
                }
            )
        del tcm_labeled
    return ExperimentResult(
        experiment_id="scheme-comparison",
        title="TCM+SKL vs BFS+SKL vs direct TCM / BFS (synthetic nG=100, mG=200, |TG|=10, [TG]=4)",
        rows=rows,
        notes=[
            "the TCM and BFS baselines label the run graph directly; they are only "
            "attempted up to the scale's size limits (the paper similarly caps TCM at "
            "25.6K vertices for memory reasons)",
            "TCM+SKL label length and construction time include the specification cost "
            "amortized over 1, 2 and 10 runs (Table 2 accounting)",
        ],
    )


def _filter_columns(result: ExperimentResult, experiment_id: str, title: str,
                    columns: list[str], keep) -> ExperimentResult:
    rows = [
        {name: row[name] for name in columns}
        for row in result.rows
        if keep(row)
    ]
    return ExperimentResult(
        experiment_id=experiment_id, title=title, rows=rows, columns=columns,
        notes=list(result.notes),
    )


def figure_15_label_length_comparison(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 15: amortized maximum label length of TCM+SKL vs BFS+SKL."""
    shared = shared or scheme_comparison(scale, seed=seed)
    return _filter_columns(
        shared,
        "figure-15",
        "Label length (amortized): TCM+SKL (1/2/10 runs) vs BFS+SKL",
        ["run_size", "scheme", "amortized_runs", "max_label_bits"],
        keep=lambda row: row["scheme"] in ("tcm+skl", "bfs+skl"),
    )


def figure_16_construction_comparison(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 16: amortized construction time of TCM+SKL, BFS+SKL and direct TCM."""
    shared = shared or scheme_comparison(scale, seed=seed)
    return _filter_columns(
        shared,
        "figure-16",
        "Construction time (amortized): TCM+SKL vs BFS+SKL vs direct TCM",
        ["run_size", "scheme", "amortized_runs", "construction_ms"],
        keep=lambda row: row["scheme"] in ("tcm+skl", "bfs+skl", "tcm"),
    )


def figure_17_query_comparison(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 17: query time of TCM+SKL, BFS+SKL, direct TCM and direct BFS."""
    shared = shared or scheme_comparison(scale, seed=seed)
    result = _filter_columns(
        shared,
        "figure-17",
        "Query time: TCM+SKL vs BFS+SKL vs TCM vs BFS",
        ["run_size", "scheme", "query_us", "fast_path_fraction"],
        keep=lambda row: row["amortized_runs"] == 1,
    )
    result.notes.append(
        "expected shape: TCM+SKL and TCM are flat; BFS+SKL decreases slightly with run "
        "size (more queries short-circuit on the context encoding); BFS grows linearly"
    )
    return result


# ----------------------------------------------------------------------
# Section 8.3 — influence of the specification (Figures 18-20)
# ----------------------------------------------------------------------
def spec_influence(
    scale: str | BenchScale = "default", *, seed: int = 0,
    spec_sizes: tuple[int, ...] = (50, 100, 200),
) -> ExperimentResult:
    """The shared sweep behind Figures 18, 19 and 20 (nG in {50, 100, 200})."""
    preset = get_scale(scale)
    rng = random.Random(seed)
    rows: list[dict] = []
    for n_modules in spec_sizes:
        spec = _spec_influence_specification(n_modules)
        tcm_labeler = SkeletonLabeler(spec, "tcm")
        bfs_labeler = SkeletonLabeler(spec, "bfs")
        spec_bits = tcm_labeler.spec_index.total_label_bits()
        for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
            run = generated.run
            tcm_measurement, _ = measure_skeleton_scheme(
                tcm_labeler, run, query_count=preset.query_count, rng=rng,
                scheme_label="tcm+skl",
            )
            bfs_measurement, _ = measure_skeleton_scheme(
                bfs_labeler, run, query_count=preset.query_count, rng=rng,
                scheme_label="bfs+skl",
            )
            rows.append(
                {
                    "spec_size": n_modules,
                    "run_size": run.vertex_count,
                    "tcm_skl_max_label_bits_k2": round(
                        amortized_label_bits(
                            tcm_measurement.max_label_bits, spec_bits, run.vertex_count, 2
                        ),
                        2,
                    ),
                    "tcm_skl_construction_ms_k2": round(
                        amortized_construction_seconds(
                            tcm_measurement.construction_seconds,
                            tcm_labeler.spec_labeling_seconds,
                            2,
                        )
                        * 1e3,
                        3,
                    ),
                    "bfs_skl_query_us": round(bfs_measurement.query_seconds * 1e6, 4),
                    "bfs_skl_fast_path": round(bfs_measurement.fast_path_fraction or 0.0, 3),
                }
            )
    return ExperimentResult(
        experiment_id="spec-influence",
        title="Influence of the specification size (mG/nG=2, |TG|=10, [TG]=4)",
        rows=rows,
        notes=[
            "label length and construction time are amortized over 2 runs; query time "
            "uses BFS skeleton labels — the three quantities Table 2 marks as "
            "nG-sensitive",
        ],
    )


def figure_18_spec_influence_label_length(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 18: TCM+SKL label length for nG in {50, 100, 200}."""
    shared = shared or spec_influence(scale, seed=seed)
    return _filter_columns(
        shared,
        "figure-18",
        "Influence of specification size on TCM+SKL label length (amortized over 2 runs)",
        ["spec_size", "run_size", "tcm_skl_max_label_bits_k2"],
        keep=lambda row: True,
    )


def figure_19_spec_influence_construction(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 19: TCM+SKL construction time for nG in {50, 100, 200}."""
    shared = shared or spec_influence(scale, seed=seed)
    return _filter_columns(
        shared,
        "figure-19",
        "Influence of specification size on TCM+SKL construction time (amortized over 2 runs)",
        ["spec_size", "run_size", "tcm_skl_construction_ms_k2"],
        keep=lambda row: True,
    )


def figure_20_spec_influence_query(
    scale: str | BenchScale = "default", *, seed: int = 0,
    shared: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """Figure 20: BFS+SKL query time for nG in {50, 100, 200}."""
    shared = shared or spec_influence(scale, seed=seed)
    return _filter_columns(
        shared,
        "figure-20",
        "Influence of specification size on BFS+SKL query time",
        ["spec_size", "run_size", "bfs_skl_query_us", "bfs_skl_fast_path"],
        keep=lambda row: True,
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table_1_real_workflows() -> ExperimentResult:
    """Table 1: characteristics of the real-life scientific workflows."""
    rows = []
    for profile in REAL_WORKFLOW_PROFILES:
        spec = load_real_workflow(profile.name)
        rows.append(
            {
                "workflow": profile.name,
                "nG": spec.vertex_count,
                "mG": spec.edge_count,
                "|TG|": spec.hierarchy.size,
                "[TG]": spec.hierarchy.depth,
                "forks": len(spec.forks),
                "loops": len(spec.loops),
            }
        )
    return ExperimentResult(
        experiment_id="table-1",
        title="Characteristics of real-life scientific workflows (synthesized stand-ins)",
        rows=rows,
        notes=[
            "the myExperiment repository is unavailable offline; these specifications "
            "are synthesized to match the published nG / mG / |TG| / [TG] exactly "
            "(see DESIGN.md)",
        ],
    )


def table_2_complexity(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Table 2: complexity comparison with amortized costs, checked empirically."""
    preset = get_scale(scale)
    spec = _comparison_specification()
    run_size = preset.run_sizes[min(len(preset.run_sizes) - 1, 4)]
    generated = generate_run_with_size(spec, run_size, seed=seed, name="table2-run")
    run = generated.run
    rng = random.Random(seed)

    n_g = spec.vertex_count
    n_r = run.vertex_count
    rows = []

    tcm_labeler = SkeletonLabeler(spec, "tcm")
    tcm_measurement, _ = measure_skeleton_scheme(
        tcm_labeler, run, query_count=preset.query_count, rng=rng, scheme_label="tcm+skl"
    )
    k = 2
    rows.append(
        {
            "scheme": "TCM+SKL",
            "label_length_formula": "3 log nR + log nG + nG^2/(k nR)",
            "predicted_bits": round(
                3 * math.log2(n_r) + math.log2(n_g) + n_g * n_g / (k * n_r), 1
            ),
            "measured_bits": round(
                amortized_label_bits(
                    tcm_measurement.max_label_bits,
                    tcm_labeler.spec_index.total_label_bits(),
                    n_r,
                    k,
                ),
                1,
            ),
            "query_time": "O(1)",
            "measured_query_us": round(tcm_measurement.query_seconds * 1e6, 3),
        }
    )

    bfs_labeler = SkeletonLabeler(spec, "bfs")
    bfs_measurement, _ = measure_skeleton_scheme(
        bfs_labeler, run, query_count=preset.query_count, rng=rng, scheme_label="bfs+skl"
    )
    rows.append(
        {
            "scheme": "BFS+SKL",
            "label_length_formula": "3 log nR + log nG",
            "predicted_bits": round(3 * math.log2(n_r) + math.log2(n_g), 1),
            "measured_bits": round(bfs_measurement.max_label_bits, 1),
            "query_time": "O(mG + nG)",
            "measured_query_us": round(bfs_measurement.query_seconds * 1e6, 3),
        }
    )

    if n_r <= preset.direct_tcm_limit:
        direct_tcm = measure_direct_scheme("tcm", run, query_count=preset.query_count, rng=rng)
        rows.append(
            {
                "scheme": "TCM",
                "label_length_formula": "nR",
                "predicted_bits": n_r,
                "measured_bits": round(direct_tcm.max_label_bits, 1),
                "query_time": "O(1)",
                "measured_query_us": round(direct_tcm.query_seconds * 1e6, 3),
            }
        )
    direct_bfs = measure_direct_scheme(
        "bfs", run, query_count=max(50, preset.query_count // 20), rng=rng
    )
    rows.append(
        {
            "scheme": "BFS",
            "label_length_formula": "0",
            "predicted_bits": 0,
            "measured_bits": round(direct_bfs.max_label_bits, 1),
            "query_time": "O(mR + nR)",
            "measured_query_us": round(direct_bfs.query_seconds * 1e6, 3),
        }
    )
    return ExperimentResult(
        experiment_id="table-2",
        title=f"Complexity comparison with amortized costs (k=2 runs, nR={n_r})",
        rows=rows,
        notes=[
            "label-length predictions follow the Table 2 formulas; measured values use "
            "the library's bit accounting on one generated run of the synthetic "
            "nG=100 workflow",
        ],
    )


def ablation_spec_schemes(
    scale: str | BenchScale = "default",
    *,
    seed: int = 0,
    schemes: tuple[str, ...] = ("tcm", "bfs", "dfs", "tree-cover", "chain", "2-hop"),
) -> ExperimentResult:
    """Ablation: how much does the specification labeling scheme matter?

    Section 8.2 concludes that "when labeling large runs, SKL is insensitive
    to the quality of the labeling scheme used to label the specification".
    This sweep labels the same runs with every registered specification
    scheme and reports label length, construction time, query time and the
    context fast-path fraction, which quantifies that insensitivity (and adds
    the tree-cover / chain / 2-hop families from the related work).
    """
    preset = get_scale(scale)
    spec = comparison_specification()
    rng = random.Random(seed)
    labelers = {scheme: SkeletonLabeler(spec, scheme) for scheme in schemes}
    rows: list[dict] = []
    for generated in generate_run_series(spec, preset.run_sizes, seed=seed):
        run = generated.run
        for scheme in schemes:
            measurement, _ = measure_skeleton_scheme(
                labelers[scheme], run, query_count=preset.query_count, rng=rng,
                scheme_label=f"{scheme}+skl",
            )
            rows.append(
                {
                    "run_size": run.vertex_count,
                    "spec_scheme": scheme,
                    "max_label_bits": round(measurement.max_label_bits, 2),
                    "construction_ms": round(measurement.construction_seconds * 1e3, 3),
                    "query_us": round(measurement.query_seconds * 1e6, 4),
                    "fast_path_fraction": round(measurement.fast_path_fraction or 0.0, 3),
                    "spec_index_bits": labelers[scheme].spec_index.total_label_bits(),
                }
            )
    return ExperimentResult(
        experiment_id="ablation-spec-schemes",
        title="Ablation: SKL under different specification labeling schemes",
        rows=rows,
        notes=[
            "run label lengths exclude the per-specification index size, which is "
            "reported separately in spec_index_bits (stored once per specification)",
            "expected outcome: label length and construction time are nearly "
            "identical across schemes; only the query time of traversal-based "
            "skeletons differs, and that difference shrinks as the fast-path "
            "fraction grows with the run size",
        ],
    )


# ----------------------------------------------------------------------
# Batch query throughput (beyond the paper: the repro.engine subsystem)
# ----------------------------------------------------------------------

#: workload sizes of the batch-throughput experiment, per benchmark scale
_THROUGHPUT_PAIR_COUNTS = {"smoke": 5_000, "default": 100_000, "paper": 500_000}

#: per-pair traversal baselines answer this many queries at most (each
#: per-pair BFS costs O(n + m), so the full workload would take minutes)
_BFS_DIRECT_PAIR_LIMIT = 2_000

#: number of distinct sources in the "hot-source" dependency-sweep workload
_HOT_SOURCE_COUNT = 32


def _timed_single_loop(reaches, pairs, repetitions: int = 2) -> tuple[list, float]:
    """Best-of-N timing of the classical per-pair query loop."""
    best = float("inf")
    answers: list = []
    for _ in range(repetitions):
        started = time.perf_counter()
        answers = [reaches(source, target) for source, target in pairs]
        best = min(best, time.perf_counter() - started)
    return answers, best


def _timed_batch(engine, pairs, repetitions: int = 3) -> tuple[list, float]:
    """Best-of-N timing of one batched call, after a small warm-up batch."""
    engine.reaches_batch(pairs[:256])  # touch the kernel outside the timing
    best = float("inf")
    answers: list = []
    for _ in range(repetitions):
        started = time.perf_counter()
        answers = engine.reaches_batch(pairs)
        best = min(best, time.perf_counter() - started)
    return answers, best


def throughput_query_engine(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Queries/second: the batched :class:`~repro.engine.QueryEngine` vs the
    per-pair loop, on the same scheme and the same workload.

    Two workload shapes are measured: ``uniform`` (pairs drawn uniformly at
    random, the Section 8 setting) and ``hot-source`` (many targets per few
    sources — the "which downstream results did this bad input affect"
    dependency sweep, where the engine's CSR-grouped traversal shines).
    The skeleton variants run on the largest run of the scale's sweep; the
    direct TCM / BFS baselines run on a dedicated run capped at the scale's
    direct-scheme limit, like Figures 15-17.  Every batch answer set is
    checked for equality with the per-pair loop before any number is
    reported, and all timings are best-of-N.
    """
    preset = get_scale(scale)
    pair_count = _THROUGHPUT_PAIR_COUNTS.get(preset.name, 20 * preset.query_count)
    spec = comparison_specification()
    rng = random.Random(seed)

    generated = generate_run_with_size(spec, preset.run_sizes[-1], seed=seed)
    run = generated.run
    uniform_pairs = sample_query_pairs(run.vertices(), pair_count, rng)

    direct_size = min(preset.run_sizes[-1], preset.direct_tcm_limit)
    direct_run = generate_run_with_size(spec, direct_size, seed=seed + 1).run
    direct_vertices = direct_run.vertices()
    uniform_direct = sample_query_pairs(direct_vertices, pair_count, rng)
    hot_sources = rng.sample(
        direct_vertices, min(_HOT_SOURCE_COUNT, len(direct_vertices))
    )
    hot_direct = [
        (rng.choice(hot_sources), rng.choice(direct_vertices))
        for _ in range(min(pair_count, _BFS_DIRECT_PAIR_LIMIT))
    ]

    configurations: list[tuple[str, object, list, str]] = [
        ("tcm+skl", SkeletonLabeler(spec, "tcm").label_run(run), uniform_pairs, "uniform"),
        ("bfs+skl", SkeletonLabeler(spec, "bfs").label_run(run), uniform_pairs, "uniform"),
        ("tcm", build_index("tcm", direct_run.graph), uniform_direct, "uniform"),
        ("bfs", build_index("bfs", direct_run.graph), hot_direct, "hot-source"),
    ]

    rows: list[dict] = []
    for scheme, index, pairs, workload in configurations:
        engine = QueryEngine(index)
        single_answers, single_seconds = _timed_single_loop(index.reaches, pairs)
        batch_answers, batch_seconds = _timed_batch(engine, pairs)
        if batch_answers != single_answers:
            raise ReproError(
                f"batch engine disagrees with the per-pair loop on scheme {scheme!r}"
            )
        rows.append(
            {
                "scheme": scheme,
                "workload": workload,
                "kernel": engine.kernel_name,
                "run_size": index.graph.vertex_count
                if hasattr(index, "graph")
                else run.vertex_count,
                "pairs": len(pairs),
                "single_qps": round(len(pairs) / single_seconds)
                if single_seconds > 0
                else None,
                "batch_qps": round(len(pairs) / batch_seconds)
                if batch_seconds > 0
                else None,
                "speedup": round(single_seconds / batch_seconds, 2)
                if batch_seconds > 0
                else None,
            }
        )
    return ExperimentResult(
        experiment_id="throughput-query-engine",
        title="Batch query engine throughput (queries/s, single vs batch)",
        rows=rows,
        notes=[
            "every batch answer set is verified equal to the per-pair loop's",
            "expected outcome: large speedups wherever the per-pair path pays "
            "per-query traversals or big-integer shifts (bfs+skl, direct tcm, "
            "direct bfs); a modest constant-factor win on tcm+skl, whose "
            "per-pair path is already a few comparisons",
            f"scale={preset.name}; engine kernels per row in the 'kernel' column",
        ],
    )


def _timed_handle_batch(engine, source_ids, target_ids, repetitions: int = 3):
    """Best-of-N timing of a pre-interned handle batch, after a warm-up."""
    engine.reaches_many_ids(source_ids[:256], target_ids[:256])
    best = float("inf")
    answers = []
    for _ in range(repetitions):
        started = time.perf_counter()
        answers = engine.reaches_many_ids(source_ids, target_ids)
        best = min(best, time.perf_counter() - started)
    return answers, best


def throughput_handle_path(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Queries/second: pre-interned handle replay vs the object batch path.

    Both paths run the *same* compiled kernel over the *same* workload; the
    only difference is where the object -> handle resolution happens.  The
    object path (``reaches_batch``) re-interns every vertex pair on every
    call — the dict-lookup cost that profiling showed dominating PR 1's
    uniform tcm+skl batches — while the handle path interns the workload
    once (``intern_pairs``) and replays integer arrays through
    ``reaches_many_ids``.  The tcm+skl and direct-tcm rows are the headline
    (their kernels are pure array arithmetic, so resolution was most of the
    batch); the tree-cover / chain / 2-hop rows additionally witness that
    the flattened offset-array kernels compile (no generic fallback) on the
    schemes that used to fall back to pure python.
    """
    preset = get_scale(scale)
    pair_count = _THROUGHPUT_PAIR_COUNTS.get(preset.name, 20 * preset.query_count)
    spec = comparison_specification()
    rng = random.Random(seed)

    run = generate_run_with_size(spec, preset.run_sizes[-1], seed=seed).run
    run_pairs = sample_query_pairs(run.vertices(), pair_count, rng)

    direct_size = min(preset.run_sizes[-1], preset.direct_tcm_limit)
    direct_run = generate_run_with_size(spec, direct_size, seed=seed + 1).run
    direct_pairs = sample_query_pairs(direct_run.vertices(), pair_count, rng)

    spec_pairs = sample_query_pairs(spec.graph.vertices(), pair_count, rng)

    configurations: list[tuple[str, object, list]] = [
        ("tcm+skl", SkeletonLabeler(spec, "tcm").label_run(run), run_pairs),
        ("tcm", build_index("tcm", direct_run.graph), direct_pairs),
        ("tree-cover", build_index("tree-cover", spec.graph), spec_pairs),
        ("chain", build_index("chain", spec.graph), spec_pairs),
        ("2-hop", build_index("2-hop", spec.graph), spec_pairs),
    ]

    rows: list[dict] = []
    for scheme, index, pairs in configurations:
        engine = QueryEngine(index)
        object_answers, object_seconds = _timed_batch(engine, pairs)
        source_ids, target_ids = engine.intern_pairs(pairs)
        handle_answers, handle_seconds = _timed_handle_batch(
            engine, source_ids, target_ids
        )
        if [bool(a) for a in handle_answers] != [bool(a) for a in object_answers]:
            raise ReproError(
                f"handle path disagrees with the object path on scheme {scheme!r}"
            )
        rows.append(
            {
                "scheme": scheme,
                "kernel": engine.kernel_name,
                "pairs": len(pairs),
                "object_qps": round(len(pairs) / object_seconds)
                if object_seconds > 0
                else None,
                "handle_qps": round(len(pairs) / handle_seconds)
                if handle_seconds > 0
                else None,
                "speedup": round(object_seconds / handle_seconds, 2)
                if handle_seconds > 0
                else None,
            }
        )
    return ExperimentResult(
        experiment_id="throughput-handle-path",
        title="Interned handle replay vs object batch path (queries/s)",
        rows=rows,
        notes=[
            "every handle answer set is verified equal to the object path's",
            "object path re-interns each vertex pair per call; handle path "
            "interns once and replays integer handle arrays",
            "expected outcome: large speedups on kernels that are pure array "
            "arithmetic (tcm+skl, tcm), where per-call resolution dominated",
            f"scale={preset.name}; engine kernels per row in the 'kernel' column",
        ],
    )


#: cross-run sweep workload per benchmark scale: (stored runs, vertices/run)
_CROSS_RUN_SETTINGS = {
    "smoke": (6, 500),
    "default": (12, 6_400),
    "paper": (16, 12_800),
}


def _per_run_engine_sweep(store, run_ids, anchor, *, downstream=True):
    """The baseline a user writes today: one cached engine per swept run."""
    results = {}
    for run_id in run_ids:
        engine = store.query_engine(run_id)
        interner = engine.interner
        anchor_id = interner.id_of(anchor)
        candidates = [i for i in range(len(interner)) if i != anchor_id]
        anchors = [anchor_id] * len(candidates)
        if downstream:
            answers = engine.reaches_many_ids(anchors, candidates)
        else:
            answers = engine.reaches_many_ids(candidates, anchors)
        vertex_at = interner.vertex_at
        results[run_id] = [
            vertex_at(candidate)
            for candidate, answer in zip(candidates, answers)
            if answer
        ]
    return results


def throughput_cross_run(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Cross-run dependency sweeps: the session's shared-spec-kernel path vs
    a per-run ``store.query_engine`` loop.

    Both paths answer the same question — everything downstream of one
    anchor execution, in **every** stored run of one specification — from a
    cold store.  The per-run loop compiles a full engine per run (label
    objects, interner, handle tables, kernel arrays); the session's
    :class:`~repro.api.CrossRunQuery` plan compiles the per-specification
    fall-through kernel **once** and streams each run's raw label columns
    through it, so the per-run cost collapses to one SQL fetch plus a
    vectorized anchored sweep.  The headline row is a non-TCM stable spec
    scheme (``tree-cover``), whose dense spec matrix costs ``nG²``
    predicate evaluations — the cost the shared kernel amortizes across the
    whole sweep.  Result sets are verified equal before any number is
    reported; timings are best-of-N from a fresh store each.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.api.queries import CrossRunQuery
    from repro.api.session import ProvenanceSession
    from repro.storage.store import ProvenanceStore

    preset = get_scale(scale)
    run_count, run_size = _CROSS_RUN_SETTINGS.get(preset.name, (6, 500))
    spec = comparison_specification()
    anchor_module = min(
        (v for v in spec.graph.vertices() if not spec.graph.predecessors(v)),
        default=spec.graph.vertices()[0],
    )
    anchor = (anchor_module, 1)
    generated_runs = [
        generate_run_with_size(spec, run_size, seed=seed + i, name=f"sweep-run-{i}").run
        for i in range(run_count)
    ]
    base_dir = _Path(tempfile.mkdtemp(prefix="repro-cross-run-"))

    rows: list[dict] = []
    repetitions = 3
    for scheme in ("tree-cover", "tcm", "bfs"):
        database = base_dir / f"{scheme}.db"
        labeler = SkeletonLabeler(spec, scheme)
        with ProvenanceStore(database) as store:
            run_ids = [
                store.add_labeled_run(labeler.label_run(run))
                for run in generated_runs
            ]

        loop_seconds = float("inf")
        loop_results = None
        for _ in range(repetitions):
            with ProvenanceStore(database) as store:  # cold caches each rep
                started = time.perf_counter()
                loop_results = _per_run_engine_sweep(store, run_ids, anchor)
                loop_seconds = min(loop_seconds, time.perf_counter() - started)

        query = CrossRunQuery(spec.name, anchor, "downstream")
        sweep_seconds = float("inf")
        sweep_result = None
        for _ in range(repetitions):
            with ProvenanceStore(database) as store:
                session = ProvenanceSession(store)
                started = time.perf_counter()
                sweep_result = session.run(query)
                sweep_seconds = min(sweep_seconds, time.perf_counter() - started)

        for run_id in run_ids:
            if sorted(sweep_result.per_run[run_id]) != sorted(loop_results[run_id]):
                raise ReproError(
                    f"cross-run sweep disagrees with the per-run engine loop "
                    f"on scheme {scheme!r}, run {run_id}"
                )
        total_vertices = sum(run.vertex_count for run in generated_runs)
        rows.append(
            {
                "spec_scheme": scheme,
                "runs": run_count,
                "vertices_per_run": generated_runs[0].vertex_count,
                "affected": sweep_result.affected_count,
                "loop_ms": round(loop_seconds * 1e3, 3),
                "sweep_ms": round(sweep_seconds * 1e3, 3),
                "loop_vps": round(total_vertices / loop_seconds)
                if loop_seconds > 0
                else None,
                "sweep_vps": round(total_vertices / sweep_seconds)
                if sweep_seconds > 0
                else None,
                "speedup": round(loop_seconds / sweep_seconds, 2)
                if sweep_seconds > 0
                else None,
            }
        )
    return ExperimentResult(
        experiment_id="throughput-cross-run",
        title="Cross-run dependency sweeps: shared spec kernel vs per-run engines",
        rows=rows,
        notes=[
            "every sweep result set is verified equal to the per-run loop's",
            "both paths start from a cold store; loop_vps/sweep_vps count "
            "candidate vertices swept per second across all runs",
            "expected outcome: the largest win on non-TCM stable spec schemes "
            "(tree-cover), whose dense nG^2 fall-through matrix the shared "
            "kernel compiles once instead of once per run; tcm/bfs still win "
            "by streaming raw label columns instead of building per-run label "
            "objects, interners and kernels",
            f"scale={preset.name}; {run_count} runs per scheme",
        ],
    )


#: parallel cross-run workload per scale: (runs, vertices/run, batch pairs,
#: online appends)
_PARALLEL_CROSS_RUN_SETTINGS = {
    "smoke": (8, 500, 2_000, 150),
    "default": (16, 6_400, 20_000, 1_200),
    "paper": (24, 12_800, 100_000, 4_000),
}

#: pool size the parallel rows are measured with (fixed so the row identity
#: is stable across hosts; the auto-sized default is exercised by tests)
PARALLEL_BENCH_WORKERS = 4


def _common_executions(store, run_ids):
    """Executions present in every stored run (the cross-batch domain)."""
    common = None
    for arrays in store.run_label_arrays_many(run_ids).values():
        executions = set(arrays.executions)
        common = executions if common is None else (common & executions)
    return sorted(common or ())


def _timed_cold_store(database, operation, repetitions: int = 3):
    """Best-of-N timing of *operation* against a freshly opened store."""
    from repro.storage.store import ProvenanceStore

    best = float("inf")
    outcome = None
    for _ in range(repetitions):
        with ProvenanceStore(database) as store:
            started = time.perf_counter()
            outcome = operation(store)
            best = min(best, time.perf_counter() - started)
    return outcome, best


def _online_append_measurement(spec, scheme: str, appends: int):
    """Append-heavy microworkload: per-event engine rebuild vs incremental.

    Both sides replay the same event stream — one execution appended into
    the (already nonempty) root scope, then one point query — through the
    session's online target.  The baseline rebuilds a per-append
    :class:`~repro.engine.QueryEngine` over a fresh query view, which is
    what the session did before the incremental kernel; the optimized side
    keeps one :class:`~repro.engine.online.OnlineKernel` and extends its
    label arrays in place.
    """
    from repro.engine import QueryEngine
    from repro.engine.online import OnlineKernel
    from repro.skeleton.online import OnlineRun
    from repro.workflow.execution import owned_vertices
    from repro.workflow.hierarchy import ROOT_NAME

    module = min(owned_vertices(spec)[ROOT_NAME])
    labeler = SkeletonLabeler(spec, scheme)

    def baseline() -> tuple[list, float]:
        online = OnlineRun(labeler, name="bench-online-baseline")
        root = online.root_scope
        first = root.execute(module)
        answers = []
        started = time.perf_counter()
        for _ in range(appends):
            vertex = root.execute(module)
            engine = QueryEngine(online.query_view())
            answers.append(engine.reaches(first, vertex))
        return answers, time.perf_counter() - started

    def incremental() -> tuple[list, float]:
        online = OnlineRun(labeler, name="bench-online-incremental")
        root = online.root_scope
        first = root.execute(module)
        kernel = OnlineKernel(online)
        answers = []
        started = time.perf_counter()
        for _ in range(appends):
            vertex = root.execute(module)
            answers.append(kernel.reaches(first, vertex))
        return answers, time.perf_counter() - started

    baseline_answers, baseline_seconds = baseline()
    incremental_answers, incremental_seconds = incremental()
    if [bool(a) for a in incremental_answers] != [bool(a) for a in baseline_answers]:
        raise ReproError(
            "incremental online kernel disagrees with the per-append rebuild"
        )
    return baseline_seconds, incremental_seconds


def throughput_parallel_cross_run(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Parallel cross-run execution vs the sequential PR 3 paths.

    Three workloads share one file-backed store per scheme:

    * ``sweep`` — the PR 3 sequential streaming sweep (``workers=1``)
      against the parallel executor's worker threads; every parallel
      result set is verified bit-identical to the sequential one before
      any number is reported;
    * ``cross-batch`` — the same pair workload asked of every run.  The
      baseline is what PR 3 offered for that question: one per-run
      session ``BatchQuery`` through the store's cached engines.  The
      optimized side is the new ``CrossRunBatchQuery`` streaming path;
    * ``online-append`` — the incremental ``OnlineRun`` kernel against the
      per-append engine rebuild it replaces (satellite of the same PR).

    Worker counts are pinned at :data:`PARALLEL_BENCH_WORKERS` so row
    identities stay comparable across hosts; the thread pool only pays off
    with real cores, so single-core hosts legitimately record sub-1x
    speedups on the pool rows (the production executor auto-selects the
    sequential path there — see
    :func:`repro.engine.parallel.resolve_workers`).
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.api.queries import BatchQuery as _BatchQuery
    from repro.api.queries import CrossRunBatchQuery, CrossRunQuery
    from repro.api.session import ProvenanceSession
    from repro.engine.parallel import CrossRunExecutor
    from repro.storage.store import ProvenanceStore

    preset = get_scale(scale)
    run_count, run_size, pair_count, appends = _PARALLEL_CROSS_RUN_SETTINGS.get(
        preset.name, _PARALLEL_CROSS_RUN_SETTINGS["smoke"]
    )
    spec = comparison_specification()
    anchor_module = min(
        (v for v in spec.graph.vertices() if not spec.graph.predecessors(v)),
        default=spec.graph.vertices()[0],
    )
    anchor = (anchor_module, 1)
    rng = random.Random(seed)
    generated_runs = [
        generate_run_with_size(
            spec, run_size, seed=seed + i, name=f"parallel-run-{i}"
        ).run
        for i in range(run_count)
    ]
    total_vertices = sum(run.vertex_count for run in generated_runs)
    base_dir = _Path(tempfile.mkdtemp(prefix="repro-parallel-cross-run-"))

    rows: list[dict] = []
    for scheme in ("tree-cover", "tcm"):
        database = base_dir / f"{scheme}.db"
        labeler = SkeletonLabeler(spec, scheme)
        with ProvenanceStore(database) as store:
            run_ids = [
                store.add_labeled_run(labeler.label_run(run))
                for run in generated_runs
            ]
            common = _common_executions(store, run_ids)
        pairs = [
            (rng.choice(common), rng.choice(common)) for _ in range(pair_count)
        ]

        # -- sweep: sequential PR 3 path vs the parallel executor ---------
        sequential_sweep, sequential_seconds = _timed_cold_store(
            database,
            lambda store: CrossRunExecutor(store, workers=1).sweep(
                spec.name, anchor
            ),
        )
        parallel_sweep, parallel_seconds = _timed_cold_store(
            database,
            lambda store: CrossRunExecutor(
                store, workers=PARALLEL_BENCH_WORKERS
            ).sweep(spec.name, anchor),
        )
        if parallel_sweep != sequential_sweep:
            raise ReproError(
                f"parallel sweep disagrees with the sequential path on "
                f"scheme {scheme!r}"
            )
        rows.append(
            {
                "workload": "sweep",
                "spec_scheme": scheme,
                "mode": "thread",
                "runs": run_count,
                "vertices_per_run": generated_runs[0].vertex_count,
                "workers": PARALLEL_BENCH_WORKERS,
                "baseline_ms": round(sequential_seconds * 1e3, 3),
                "optimized_ms": round(parallel_seconds * 1e3, 3),
                "swept_vps": round(total_vertices / parallel_seconds)
                if parallel_seconds > 0
                else None,
                "speedup": round(sequential_seconds / parallel_seconds, 2)
                if parallel_seconds > 0
                else None,
            }
        )

        # -- cross-batch: per-run engine loop vs the streaming batch ------
        def engine_loop(store):
            session = ProvenanceSession(store)
            return {
                run_id: [
                    bool(answer)
                    for answer in session.run(
                        _BatchQuery(pairs=pairs, run_id=run_id)
                    )
                ]
                for run_id in run_ids
            }

        def cross_batch(store):
            result = ProvenanceSession(store).run(
                CrossRunBatchQuery(spec.name, pairs)
            )
            return result.per_run, result.skipped_runs

        loop_answers, loop_seconds = _timed_cold_store(database, engine_loop)
        (batch_answers, batch_skipped), batch_seconds = _timed_cold_store(
            database, cross_batch
        )
        if batch_skipped or batch_answers != loop_answers:
            raise ReproError(
                f"cross-run batch disagrees with the per-run engine loop "
                f"on scheme {scheme!r}"
            )
        rows.append(
            {
                "workload": "cross-batch",
                "spec_scheme": scheme,
                "mode": "auto",
                "runs": run_count,
                "vertices_per_run": generated_runs[0].vertex_count,
                "pairs": pair_count,
                "baseline_ms": round(loop_seconds * 1e3, 3),
                "optimized_ms": round(batch_seconds * 1e3, 3),
                "speedup": round(loop_seconds / batch_seconds, 2)
                if batch_seconds > 0
                else None,
            }
        )

    # -- online append microworkload (incremental kernel satellite) --------
    baseline_seconds, incremental_seconds = _online_append_measurement(
        spec, "tcm", appends
    )
    rows.append(
        {
            "workload": "online-append",
            "spec_scheme": "tcm",
            "mode": "incremental",
            "runs": 1,
            "appends": appends,
            "baseline_ms": round(baseline_seconds * 1e3, 3),
            "optimized_ms": round(incremental_seconds * 1e3, 3),
            "speedup": round(baseline_seconds / incremental_seconds, 2)
            if incremental_seconds > 0
            else None,
        }
    )
    return ExperimentResult(
        experiment_id="throughput-parallel-cross-run",
        title="Parallel cross-run execution vs the sequential PR 3 paths",
        rows=rows,
        columns=[
            "workload",
            "spec_scheme",
            "mode",
            "runs",
            "vertices_per_run",
            "pairs",
            "appends",
            "workers",
            "baseline_ms",
            "optimized_ms",
            "swept_vps",
            "speedup",
        ],
        notes=[
            "every parallel/optimized result set is verified bit-identical "
            "to its sequential baseline before any number is reported",
            "sweep rows: the PR 3 sequential streaming sweep vs the chunked "
            "parallel executor (workers pinned at "
            f"{PARALLEL_BENCH_WORKERS}); these rows legitimately dip below "
            "1x on few-core hosts, where the production executor "
            "auto-selects the sequential path instead",
            "cross-batch rows: the same pairs asked of every run — per-run "
            "session BatchQuery loop (full cached engine per run) vs the "
            "shared-spec-kernel streaming CrossRunBatchQuery",
            "online-append row: per-append QueryEngine rebuild vs the "
            "incremental OnlineKernel (in-place array extension)",
            f"scale={preset.name}; cpu_count={os.cpu_count()}",
        ],
    )


#: sharded ingest workload per scale: (specifications, runs per spec,
#: vertices per run, shard count)
_SHARDED_INGEST_SETTINGS = {
    "smoke": (4, 3, 400, 4),
    "default": (8, 4, 2_500, 4),
    "paper": (12, 6, 8_000, 8),
}


def throughput_sharded_ingest(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Sharded parallel ingest vs the single-file store's write path.

    The ``ingest`` workload stores the same pre-labeled runs (several
    specifications, so the stable spec-name hash spreads them across
    shards) through the single-file store's per-run ``add_labeled_run``
    loop (one transaction per run, one writer for everything) vs the
    sharded store's
    :meth:`~repro.storage.sharded.ShardedProvenanceStore.add_labeled_runs`
    (one batched transaction per shard, shards committing concurrently on
    one thread each).  Labeling happens outside the timed region — this
    measures the **write path**.  Before any number is reported, every
    specification's cross-run sweep is verified bit-identical between the
    two stores.

    Wall-clock parallel wins need real cores: single-core hosts
    legitimately record thin ``ingest`` ratios (the batched-transaction
    win remains), and CI gates accordingly (see
    ``benchmarks/bench_throughput_sharded_ingest.py``).
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.engine.parallel import CrossRunExecutor
    from repro.storage.sharded import ShardedProvenanceStore
    from repro.storage.store import ProvenanceStore

    preset = get_scale(scale)
    spec_count, runs_per_spec, run_size, shards = _SHARDED_INGEST_SETTINGS.get(
        preset.name, _SHARDED_INGEST_SETTINGS["smoke"]
    )
    specs = [
        generate_specification(
            SyntheticSpecConfig(
                n_modules=60,
                n_edges=120,
                hierarchy_size=8,
                hierarchy_depth=3,
                name=f"sharded-ingest-{index}",
                seed=100 + index,
            )
        )
        for index in range(spec_count)
    ]
    labelers = {spec.name: SkeletonLabeler(spec, "tcm") for spec in specs}
    labeled = []
    # interleave the specifications so every shard's sub-batch stays busy
    for round_index in range(runs_per_spec):
        for spec in specs:
            run = generate_run_with_size(
                spec, run_size, seed=seed + round_index, name=f"ingest-{round_index}"
            ).run
            labeled.append(labelers[spec.name].label_run(run))
    label_rows = sum(item.run.vertex_count for item in labeled)
    base_dir = _Path(tempfile.mkdtemp(prefix="repro-sharded-ingest-"))

    def timed_single(repetition: int):
        store = ProvenanceStore(base_dir / f"single-{repetition}.db")
        started = time.perf_counter()
        for item in labeled:
            store.add_labeled_run(item)
        return store, time.perf_counter() - started

    def timed_sharded(repetition: int):
        store = ShardedProvenanceStore(base_dir / f"shards-{repetition}", shards)
        started = time.perf_counter()
        store.add_labeled_runs(labeled)
        return store, time.perf_counter() - started

    single_seconds = sharded_seconds = float("inf")
    single_store = sharded_store = None
    for repetition in range(3):
        store, seconds = timed_single(repetition)
        single_seconds = min(single_seconds, seconds)
        if single_store is not None:
            single_store.close()
        single_store = store
        store, seconds = timed_sharded(repetition)
        sharded_seconds = min(sharded_seconds, seconds)
        if sharded_store is not None:
            sharded_store.close()
        sharded_store = store

    # correctness gate: every spec's sweep must be bit-identical across
    # layouts (run ids differ by construction; insertion order per spec
    # does not, so the ordered answer lists must match exactly)
    anchors = {}
    for spec in specs:
        anchor_module = min(
            (v for v in spec.graph.vertices() if not spec.graph.predecessors(v)),
            default=spec.graph.vertices()[0],
        )
        anchors[spec.name] = (anchor_module, 1)
        single_sweep, single_skipped = CrossRunExecutor(
            single_store, workers=1
        ).sweep(spec.name, anchors[spec.name])
        sharded_sweep, sharded_skipped = CrossRunExecutor(
            sharded_store, workers=2
        ).sweep(spec.name, anchors[spec.name])
        if (
            list(single_sweep.values()) != list(sharded_sweep.values())
            or len(single_skipped) != len(sharded_skipped)
        ):
            raise ReproError(
                f"sharded sweep disagrees with the single-file store on "
                f"specification {spec.name!r}"
            )

    rows: list[dict] = [
        {
            "workload": "ingest",
            "mode": "thread",
            "shards": shards,
            "pool": "per-shard-batch",
            "runs": len(labeled),
            "specs": spec_count,
            "vertices_per_run": run_size,
            "label_rows": label_rows,
            "baseline_ms": round(single_seconds * 1e3, 3),
            "optimized_ms": round(sharded_seconds * 1e3, 3),
            "rows_per_s": round(label_rows / sharded_seconds)
            if sharded_seconds > 0
            else None,
            "speedup": round(single_seconds / sharded_seconds, 2)
            if sharded_seconds > 0
            else None,
        }
    ]

    single_store.close()
    sharded_store.close()
    return ExperimentResult(
        experiment_id="throughput-sharded-ingest",
        title="Sharded parallel ingest vs the single-file write path",
        rows=rows,
        columns=[
            "workload",
            "mode",
            "shards",
            "pool",
            "runs",
            "specs",
            "vertices_per_run",
            "label_rows",
            "baseline_ms",
            "optimized_ms",
            "rows_per_s",
            "speedup",
        ],
        notes=[
            "ingest row: per-run add_labeled_run transactions on one SQLite "
            "file vs one batched transaction per shard, shards committing "
            "concurrently on one thread each; labeling is excluded from "
            "both timed regions",
            "every specification's cross-run sweep is verified bit-identical "
            "between the two layouts before any number is reported",
            "parallel ingest needs real cores; single-core hosts keep only "
            "the batched-transaction win and record honestly thin ratios",
            f"scale={preset.name}; cpu_count={os.cpu_count()}",
        ],
    )


#: server workload per scale: (runs, vertices per run, replay pairs,
#: reader clients, requests per reader, writer ingest runs)
_SERVER_SETTINGS = {
    "smoke": (2, 300, 48, 2, 24, 2),
    "default": (3, 1_200, 192, 4, 80, 3),
    "paper": (4, 4_000, 512, 8, 200, 4),
}

#: the sustained workload's per-reader request mix (see _reader_worker)
_SERVER_OP_MIX = "6pt/1batch/1sweep"


def throughput_server(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """The network daemon under load: batch replay and sustained mixed QPS.

    Four workloads, all over a loopback TCP connection to a
    :class:`~repro.server.daemon.ProvenanceServer` fronting a sharded
    store:

    * ``batch-replay`` — the same pairs asked as one point-query round
      trip each vs a single handle-native batch frame (whose body is the
      binary pair workload, replayed by the server with zero parsing).
      This is the protocol's headline structural win: N round trips
      collapse to one, so the ratio is gated in the committed baseline.
    * ``retry-overhead`` — the same batch frame through a bare client
      (``retries=0``) and the guarded default, fault-free: the retry /
      reconnect / circuit-breaker machinery must cost nothing measurable
      on the happy path.
    * ``lossy-sustained`` — point queries under a deterministic
      :class:`~repro.faults.FaultPlan` dropping 1% of response reads;
      every answer is verified bit-identical while the client rides its
      reconnect-and-replay machinery through the drops.
    * ``mixed-sustained`` — several concurrent reader clients, each
      firing a fixed point/batch/sweep mix, while one writer client
      ingests labeled runs through the buffered ingest op.  Reported as
      sustained answers/second plus the p99 request latency; absolute
      QPS is hardware-bound and therefore only gated under
      ``--strict-qps``.

    Every reader verifies each answer against the in-process session's
    expected answer *while the writer is ingesting* — the bench doubles
    as a consistency check that concurrent ingest never bleeds into
    fixed-run answers.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor as _ClientPool
    from pathlib import Path as _Path

    from repro.api.queries import BatchQuery, DownstreamQuery, PointQuery
    from repro.api.session import ProvenanceSession
    from repro.faults import FaultPlan, FaultRule
    from repro.faults import suppressed as fault_suppressed
    from repro.server import RemoteStore, ServerThread
    from repro.storage.sharded import ShardedProvenanceStore

    preset = get_scale(scale)
    run_count, run_size, pair_count, reader_clients, requests_per_reader, ingest_runs = (
        _SERVER_SETTINGS.get(preset.name, _SERVER_SETTINGS["smoke"])
    )
    spec = generate_specification(
        SyntheticSpecConfig(
            n_modules=60,
            n_edges=120,
            hierarchy_size=8,
            hierarchy_depth=3,
            name="server-bench",
            seed=4242,
        )
    )
    labeler = SkeletonLabeler(spec, "tcm")
    labeled = [
        labeler.label_run(
            generate_run_with_size(
                spec, run_size, seed=seed + index, name=f"served-{index}"
            ).run
        )
        for index in range(run_count)
    ]
    writer_payload = [
        labeler.label_run(
            generate_run_with_size(
                spec, run_size, seed=seed + 100 + index, name=f"ingested-{index}"
            ).run
        )
        for index in range(ingest_runs)
    ]
    base_dir = _Path(tempfile.mkdtemp(prefix="repro-server-bench-"))
    store = ShardedProvenanceStore(base_dir / "store", 2)
    run_ids = store.add_labeled_runs(labeled)
    run_id = run_ids[0]
    run = labeled[0].run
    rng = random.Random(seed)
    pairs = [
        ((source.module, source.instance), (target.module, target.instance))
        for source, target in sample_query_pairs(run.vertices(), pair_count, rng)
    ]
    anchor = pairs[0][0]

    # the ground truth every remote answer is checked against
    local = ProvenanceSession(store)
    expected_batch = local.run(BatchQuery(pairs=pairs, run_id=run_id))
    expected_sweep = local.run(DownstreamQuery(anchor, run_id=run_id))
    source_ids, target_ids = store.query_engine(run_id).intern_pairs(pairs)
    handle_query = BatchQuery(
        source_ids=source_ids, target_ids=target_ids, run_id=run_id
    )

    rows: list[dict] = []
    with ServerThread(store) as server:
        with RemoteStore(server.url) as client:
            session = client.session()
            # bit-identity gate before any number is reported
            if session.run(BatchQuery(pairs=pairs, run_id=run_id)) != expected_batch:
                raise ReproError("remote batch answers diverge from in-process")
            if session.run(DownstreamQuery(anchor, run_id=run_id)) != expected_sweep:
                raise ReproError("remote sweep answers diverge from in-process")
            if session.run(handle_query) != expected_batch:
                raise ReproError("remote handle-native batch diverges from in-process")

            point_seconds = batch_seconds = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                point_answers = [
                    session.run(PointQuery(source, target, run_id=run_id))
                    for source, target in pairs
                ]
                point_seconds = min(point_seconds, time.perf_counter() - started)
                started = time.perf_counter()
                batch_answers = session.run(handle_query)
                batch_seconds = min(batch_seconds, time.perf_counter() - started)
            if point_answers != expected_batch or batch_answers != expected_batch:
                raise ReproError("replay answers diverged between repetitions")
            rows.append(
                {
                    "workload": "batch-replay",
                    "mode": "loopback",
                    "clients": 1,
                    "op_mix": "point-vs-batch",
                    "runs": run_count,
                    "vertices_per_run": run_size,
                    "pairs": pair_count,
                    "baseline_ms": round(point_seconds * 1e3, 3),
                    "optimized_ms": round(batch_seconds * 1e3, 3),
                    "answers_qps": round(pair_count / batch_seconds)
                    if batch_seconds > 0
                    else None,
                    "speedup": round(point_seconds / batch_seconds, 2)
                    if batch_seconds > 0
                    else None,
                }
            )

        # -- retry overhead: the guarded client vs a bare one --------------
        # the fault-tolerance machinery (per-attempt lock, injection hook,
        # breaker check) must be free on the happy path; both clients run
        # the identical wire exchange, so min-of timings isolate the
        # machinery itself
        def timed_group(timed_session, group=100):
            started = time.perf_counter()
            for _ in range(group):
                got = timed_session.run(handle_query)
            elapsed = (time.perf_counter() - started) / group
            if got != expected_batch:
                raise ReproError("retry-overhead answers diverged from in-process")
            return elapsed

        # a single loopback batch frame is ~0.1 ms, where one scheduler
        # blip reads as tens of percent: each sample times a group of
        # exchanges, the two clients' samples interleave so ambient load
        # drift hits both equally, and min-of-samples drops the blips.
        # This is also the *fault-free* leg by definition: an ambient
        # REPRO_FAULTS profile (the chaos CI job) must not smear a retry
        # into the timing, so every injection point is masked
        with fault_suppressed():
            with RemoteStore(server.url, retries=0) as bare, RemoteStore(
                server.url, retries=3
            ) as guarded:
                bare_session, guarded_session = bare.session(), guarded.session()
                timed_group(bare_session, group=5)  # warm-up both
                timed_group(guarded_session, group=5)
                bare_seconds = guarded_seconds = float("inf")
                for _ in range(9):
                    bare_seconds = min(bare_seconds, timed_group(bare_session))
                    guarded_seconds = min(
                        guarded_seconds, timed_group(guarded_session)
                    )
        rows.append(
            {
                "workload": "retry-overhead",
                "mode": "loopback",
                "faults": "none",
                "clients": 1,
                "op_mix": "batch",
                "runs": run_count,
                "vertices_per_run": run_size,
                "pairs": pair_count,
                "baseline_ms": round(bare_seconds * 1e3, 3),
                "optimized_ms": round(guarded_seconds * 1e3, 3),
                "overhead_pct": round(
                    (guarded_seconds / bare_seconds - 1.0) * 100, 2
                )
                if bare_seconds > 0
                else None,
            }
        )

        # -- lossy: sustained verified throughput under 1% dropped reads ---
        lossy_requests = max(200, reader_clients * requests_per_reader)
        lossy_plan = FaultPlan(
            [FaultRule("client.recv", "oserror", every=100)], seed=seed
        )
        with lossy_plan.active():
            with RemoteStore(
                server.url, retries=3, backoff_base=0.01, retry_seed=seed
            ) as lossy:
                lossy_session = lossy.session()
                started = time.perf_counter()
                for index in range(lossy_requests):
                    source, target = pairs[index % len(pairs)]
                    got = lossy_session.run(
                        PointQuery(source, target, run_id=run_id)
                    )
                    if got != expected_batch[index % len(pairs)]:
                        raise ReproError(
                            "lossy-leg answer diverged under injected drops"
                        )
                lossy_elapsed = time.perf_counter() - started
                client_retries = lossy.fault_stats["retries"]
        injected = lossy_plan.fired.get("client.recv", 0)
        if injected < 1:
            raise ReproError("lossy leg injected no faults; nothing was proven")
        rows.append(
            {
                "workload": "lossy-sustained",
                "mode": "loopback",
                "faults": "drop-1pct",
                "clients": 1,
                "op_mix": "point",
                "runs": run_count,
                "vertices_per_run": run_size,
                "pairs": len(pairs),
                "requests": lossy_requests,
                "injected_faults": injected,
                "client_retries": client_retries,
                "elapsed_ms": round(lossy_elapsed * 1e3, 3),
                "answers_qps": round(lossy_requests / lossy_elapsed)
                if lossy_elapsed > 0
                else None,
            }
        )

        # -- sustained mixed load: concurrent readers + one writer --------
        mix_pairs = pairs[: max(16, pair_count // 4)]
        mix_handles = BatchQuery(
            source_ids=source_ids[: len(mix_pairs)],
            target_ids=target_ids[: len(mix_pairs)],
            run_id=run_id,
        )
        expected_mix = expected_batch[: len(mix_pairs)]

        def reader_worker(reader_index: int) -> tuple[int, list[float]]:
            answers = 0
            latencies: list[float] = []
            with RemoteStore(server.url) as reader:
                reader_session = reader.session()
                for request_index in range(requests_per_reader):
                    slot = (reader_index + request_index) % 8
                    started = time.perf_counter()
                    if slot == 6:
                        got = reader_session.run(mix_handles)
                        ok = got == expected_mix
                        answers += len(got)
                    elif slot == 7:
                        got = reader_session.run(
                            DownstreamQuery(anchor, run_id=run_id)
                        )
                        ok = got == expected_sweep
                        answers += 1
                    else:
                        source, target = pairs[
                            (reader_index * 31 + request_index) % len(pairs)
                        ]
                        got = reader_session.run(
                            PointQuery(source, target, run_id=run_id)
                        )
                        ok = got == expected_batch[
                            (reader_index * 31 + request_index) % len(pairs)
                        ]
                        answers += 1
                    latencies.append(time.perf_counter() - started)
                    if not ok:
                        raise ReproError(
                            "concurrent reader answer diverged from the "
                            "in-process expectation during ingest"
                        )
            return answers, latencies

        def writer_worker() -> list[int]:
            with RemoteStore(server.url) as writer:
                writer.ingest(writer_payload, flush=False)
                return writer.flush()

        with _ClientPool(max_workers=reader_clients + 1) as clients:
            started = time.perf_counter()
            writer_future = clients.submit(writer_worker)
            reader_futures = [
                clients.submit(reader_worker, index) for index in range(reader_clients)
            ]
            reader_results = [future.result() for future in reader_futures]
            ingested_ids = writer_future.result()
            elapsed = time.perf_counter() - started
        if len(ingested_ids) != ingest_runs:
            raise ReproError(
                f"writer ingested {len(ingested_ids)} of {ingest_runs} runs"
            )
        answers = sum(count for count, _ in reader_results)
        latencies = sorted(
            latency for _, reader_latencies in reader_results
            for latency in reader_latencies
        )
        p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
        rows.append(
            {
                "workload": "mixed-sustained",
                "mode": "loopback",
                "clients": reader_clients,
                "op_mix": _SERVER_OP_MIX,
                "runs": run_count,
                "vertices_per_run": run_size,
                "pairs": len(mix_pairs),
                "requests": reader_clients * requests_per_reader,
                "ingested_runs": ingest_runs,
                "elapsed_ms": round(elapsed * 1e3, 3),
                "answers_qps": round(answers / elapsed) if elapsed > 0 else None,
                "p99_ms": round(p99 * 1e3, 3),
            }
        )
    store.close()
    return ExperimentResult(
        experiment_id="throughput-server",
        title="The provenance daemon: batch replay and sustained mixed QPS",
        rows=rows,
        columns=[
            "workload",
            "mode",
            "faults",
            "clients",
            "op_mix",
            "runs",
            "vertices_per_run",
            "pairs",
            "requests",
            "ingested_runs",
            "injected_faults",
            "client_retries",
            "baseline_ms",
            "optimized_ms",
            "elapsed_ms",
            "answers_qps",
            "p99_ms",
            "overhead_pct",
            "speedup",
        ],
        notes=[
            "batch-replay row: the same pairs as one point round trip each "
            "vs a single handle-native batch frame (the body is the binary "
            "pair workload, replayed server-side with zero parsing); the "
            "ratio is the protocol's structural win and is gated",
            "mixed-sustained row: concurrent reader clients (the op mix is "
            "points, a batch every 7th and a sweep every 8th request) "
            "while one writer ingests through the buffered ingest op; "
            "answers/second is hardware-bound and gated only under "
            "--strict-qps",
            "every reader verifies every answer against the in-process "
            "session's expected answer while the writer is ingesting — "
            "divergence fails the experiment before any number is reported",
            "retry-overhead row: the same batch frame through a bare "
            "client (retries=0) vs the guarded default — the retry/"
            "breaker machinery must cost nothing on the fault-free path",
            "lossy-sustained row: point queries under a deterministic "
            "FaultPlan dropping 1% of response reads (client.recv, "
            "every=100); every answer is verified bit-identical while "
            "the client reconnects and retries through the drops",
            f"scale={preset.name}; cpu_count={os.cpu_count()}",
        ],
    )


#: SQL pushdown workload per benchmark scale: (stored runs, vertices/run)
_SQL_PUSHDOWN_SETTINGS = {
    "smoke": (6, 500),
    "default": (12, 6_400),
    "paper": (16, 12_800),
}


def _pushdown_specification(n_modules: int = 40):
    """A forest specification (``n_edges = n_modules - 1``) so the interval
    scheme — which only labels forests — can join the comparison."""
    return generate_specification(
        SyntheticSpecConfig(
            n_modules=n_modules,
            n_edges=n_modules - 1,
            hierarchy_size=8,
            hierarchy_depth=3,
            name=f"synthetic-forest-{n_modules}",
            seed=7 + n_modules,
        )
    )


def throughput_sql_pushdown(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Cross-run reachability sweeps: SQL pushdown vs the streamed kernel.

    Both paths answer the same :class:`~repro.api.CrossRunQuery` — everything
    downstream of one anchor execution, in every stored run of one
    specification — from a cold store.  The ``pushdown="never"`` leg streams
    each run's raw label columns out of SQLite and evaluates the anchored
    range predicate in the spec kernel; the ``pushdown="always"`` leg
    compiles the same predicate into a parameterized ``SELECT`` that rides
    the schema-v3 covering indexes, so only the *matching* rows ever cross
    the SQLite boundary and no label arrays are materialized at all.  Each
    capable scheme (interval, tree-cover, chain) reports one row per leg;
    the ``always`` row carries the speedup.  Result sets are verified equal
    before any number is reported; timings are best-of-N from a fresh store
    each so neither leg benefits from warm caches.
    """
    import tempfile
    from pathlib import Path as _Path

    from repro.api.queries import CrossRunQuery
    from repro.api.session import ProvenanceSession

    preset = get_scale(scale)
    run_count, run_size = _SQL_PUSHDOWN_SETTINGS.get(preset.name, (6, 500))
    spec = _pushdown_specification()
    # a median-selectivity anchor: the module whose downstream closure covers
    # about half the spec.  A root anchor would make every row match and hide
    # the pushdown's point — only *matching* rows cross the SQLite boundary,
    # while the streamed kernel always pays for the full label columns.
    graph = spec.graph

    def _downstream_module_count(module):
        seen = {module}
        stack = [module]
        while stack:
            for successor in graph.successors(stack.pop()):
                if successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        return len(seen)

    target = len(graph.vertices()) // 2
    anchor_module = min(
        sorted(graph.vertices()),
        key=lambda module: (abs(_downstream_module_count(module) - target), module),
    )
    anchor = (anchor_module, 1)
    generated_runs = [
        generate_run_with_size(spec, run_size, seed=seed + i, name=f"pushdown-run-{i}").run
        for i in range(run_count)
    ]
    base_dir = _Path(tempfile.mkdtemp(prefix="repro-sql-pushdown-"))

    rows: list[dict] = []
    for scheme in ("interval", "tree-cover", "chain"):
        database = base_dir / f"{scheme}.db"
        labeler = SkeletonLabeler(spec, scheme)
        from repro.storage.store import ProvenanceStore

        with ProvenanceStore(database) as store:
            for run in generated_runs:
                store.add_labeled_run(labeler.label_run(run))

        legs = {}
        for mode in ("never", "always"):
            query = CrossRunQuery(spec.name, anchor, "downstream", pushdown=mode)
            result, seconds = _timed_cold_store(
                database, lambda store: ProvenanceSession(store).run(query)
            )
            legs[mode] = (seconds, result)

        kernel_seconds, kernel_result = legs["never"]
        sql_seconds, sql_result = legs["always"]
        if (
            sorted(kernel_result.per_run) != sorted(sql_result.per_run)
            or sorted(kernel_result.skipped_runs) != sorted(sql_result.skipped_runs)
            or any(
                kernel_result.per_run[run_id] != sql_result.per_run[run_id]
                for run_id in kernel_result.per_run
            )
        ):
            raise ReproError(
                f"SQL pushdown sweep disagrees with the streamed kernel "
                f"on scheme {scheme!r}"
            )
        total_vertices = run_count * run_size
        for mode, (seconds, result) in legs.items():
            rows.append(
                {
                    "spec_scheme": scheme,
                    "pushdown": mode,
                    "runs": run_count,
                    "vertices_per_run": generated_runs[0].vertex_count,
                    "affected": result.affected_count,
                    "sweep_ms": round(seconds * 1e3, 3),
                    "sweep_vps": round(total_vertices / seconds)
                    if seconds > 0
                    else None,
                    "speedup": (
                        round(kernel_seconds / seconds, 2)
                        if mode == "always" and seconds > 0
                        else None
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="throughput-sql-pushdown",
        title="Cross-run sweeps: SQL pushdown (indexed range scan) vs streamed kernel",
        rows=rows,
        notes=[
            "every pushdown result set is verified bit-identical to the "
            "streamed-kernel answer before any number is reported",
            "both legs start from a cold store (best-of-N, fresh open each); "
            "the never leg streams full label columns and evaluates the "
            "anchored range predicate in the spec kernel, the always leg "
            "evaluates it inside SQLite on the schema-v3 covering indexes "
            "and returns only matching rows",
            "speedup is on the always row: streamed-kernel seconds over "
            "pushdown seconds for the same scheme",
            "the anchor is the median-selectivity module (downstream closure "
            "covers about half the spec) — a root anchor would match every "
            "row and mask the transfer saving the pushdown exists for",
            f"scale={preset.name}; {run_count} runs per scheme on a forest "
            "spec (interval only labels forests)",
        ],
    )


#: (graph vertices, delete+insert cycles, verification pairs) per scale
_INCREMENTAL_UPDATE_SETTINGS = {
    "smoke": (400, 10, 12),
    "default": (3_000, 30, 16),
    "paper": (12_000, 60, 16),
}


def throughput_incremental_updates(
    scale: str | BenchScale = "default", *, seed: int = 0
) -> ExperimentResult:
    """Subtree-local edge updates: incremental label repair vs full relabel.

    Each mutable tree-shaped scheme (interval, tree-cover, chain) absorbs
    the same sequence of leaf-edge delete/insert cycles on one random
    recursive forest twice: once through the :mod:`repro.dynamic` delta
    strategies (``index.delete_edge`` / ``index.insert_edge``), and once by
    rebuilding the index from scratch after every mutation — the only
    option the library offered before dynamic updates existed.  After each
    mutation both legs answer the same fixed query workload, and the two
    answer streams must be bit-identical before any number is reported.
    The ``speedup`` column is rebuild seconds over incremental seconds for
    the identical update+query sequence.
    """
    from repro.graphs.digraph import DiGraph

    preset = get_scale(scale)
    n_vertices, cycles, pair_count = _INCREMENTAL_UPDATE_SETTINGS.get(
        preset.name, (3_000, 30, 16)
    )
    rng = random.Random(seed * 7919 + 11)
    forest = DiGraph()
    # a forest of ~100-vertex random recursive trees: provenance stores hold
    # many moderate workflow trees, and the shape makes "subtree-local"
    # mean what it says — the interval scheme's insert repair renumbers the
    # one tree it touched, never the whole forest
    tree_size = min(100, n_vertices)
    for vertex in range(n_vertices):
        forest.add_vertex(vertex)
    for vertex in range(n_vertices):
        root = vertex - vertex % tree_size
        if vertex > root:
            forest.add_edge(rng.randrange(root, vertex), vertex)
    leaves = [
        vertex
        for vertex in range(n_vertices)
        if forest.out_degree(vertex) == 0 and forest.in_degree(vertex) == 1
    ]
    cycled = [
        (forest.predecessors(leaf)[0], leaf)
        for leaf in rng.sample(leaves, min(cycles, len(leaves)))
    ]
    # pairs anchored on the mutated leaves flip between delete and insert,
    # so a repair that forgets a region cannot slip past the equality check
    pairs = [(parent, leaf) for parent, leaf in cycled[:pair_count]]
    while len(pairs) < pair_count:
        pairs.append(
            (rng.randrange(n_vertices), rng.randrange(n_vertices))
        )

    def answer_stream(index) -> list[bool]:
        return [index.reaches(source, target) for source, target in pairs]

    rows: list[dict] = []
    for scheme in ("interval", "tree-cover", "chain"):
        index = build_index(scheme, forest)
        # one untimed warmup cycle: the first update pays the lazy strategy
        # imports and the one-time reconstruction of the scheme's dynamic
        # state (e.g. the tree-cover spanning forest); the monitoring loops
        # this bench prices run in steady state
        warm_parent, warm_leaf = cycled[0]
        index.delete_edge(warm_parent, warm_leaf)
        index.insert_edge(warm_parent, warm_leaf)
        warmup_records = len(index.update_log)
        incremental_answers: list[list[bool]] = []
        started = time.perf_counter()
        for parent, leaf in cycled:
            index.delete_edge(parent, leaf)
            incremental_answers.append(answer_stream(index))
            index.insert_edge(parent, leaf)
            incremental_answers.append(answer_stream(index))
        incremental_seconds = time.perf_counter() - started

        rebuild_answers: list[list[bool]] = []
        started = time.perf_counter()
        for parent, leaf in cycled:
            forest.remove_edge(parent, leaf)
            rebuild_answers.append(answer_stream(build_index(scheme, forest)))
            forest.add_edge(parent, leaf)
            rebuild_answers.append(answer_stream(build_index(scheme, forest)))
        rebuild_seconds = time.perf_counter() - started

        if incremental_answers != rebuild_answers:
            raise ReproError(
                f"incremental updates disagree with relabel-from-scratch "
                f"on scheme {scheme!r}"
            )
        updates = 2 * len(cycled)
        rows.append(
            {
                "scheme": scheme,
                "vertices": n_vertices,
                "updates": updates,
                "pairs": len(pairs),
                "incremental_ms": round(incremental_seconds * 1e3, 3),
                "rebuild_ms": round(rebuild_seconds * 1e3, 3),
                "updates_per_s": (
                    round(updates / incremental_seconds)
                    if incremental_seconds > 0
                    else None
                ),
                "speedup": (
                    round(rebuild_seconds / incremental_seconds, 2)
                    if incremental_seconds > 0
                    else None
                ),
                "strategies": dict(
                    sorted(
                        Counter(
                            record.strategy
                            for record in list(index.update_log)[warmup_records:]
                        ).items()
                    )
                ),
            }
        )
    return ExperimentResult(
        experiment_id="throughput-incremental-updates",
        title="Edge updates: incremental label repair vs relabel-from-scratch",
        rows=rows,
        notes=[
            "every post-update answer of the incremental leg is verified "
            "bit-identical to a fresh relabel of the mutated graph before "
            "any number is reported",
            "workload: leaf-edge delete/insert cycles on one random "
            "recursive forest — the subtree-local case the delta "
            "strategies exist for; the rebuild leg relabels the whole "
            "graph after every mutation (the pre-dynamic-updates cost)",
            "each update is followed by the same fixed point-query "
            "workload in both legs, so the speedup prices update+query, "
            "not the update alone",
            "one untimed warmup cycle per scheme pays the lazy strategy "
            "imports and the one-time dynamic-state reconstruction, so "
            "the numbers price steady-state monitoring updates",
            f"scale={preset.name}; {n_vertices} vertices, "
            f"{2 * len(cycled)} updates, {len(pairs)} pairs per scheme",
        ],
    )


def all_experiments(scale: str | BenchScale = "default", *, seed: int = 0) -> list[ExperimentResult]:
    """Run every experiment at the given scale (used by the CLI)."""
    shared_comparison = scheme_comparison(scale, seed=seed)
    shared_influence = spec_influence(scale, seed=seed)
    return [
        table_1_real_workflows(),
        table_2_complexity(scale, seed=seed),
        figure_12_label_length(scale, seed=seed),
        figure_13_construction_time(scale, seed=seed),
        figure_14_query_time(scale, seed=seed),
        figure_15_label_length_comparison(scale, seed=seed, shared=shared_comparison),
        figure_16_construction_comparison(scale, seed=seed, shared=shared_comparison),
        figure_17_query_comparison(scale, seed=seed, shared=shared_comparison),
        figure_18_spec_influence_label_length(scale, seed=seed, shared=shared_influence),
        figure_19_spec_influence_construction(scale, seed=seed, shared=shared_influence),
        figure_20_spec_influence_query(scale, seed=seed, shared=shared_influence),
        ablation_spec_schemes(scale, seed=seed),
        throughput_query_engine(scale, seed=seed),
        throughput_handle_path(scale, seed=seed),
        throughput_cross_run(scale, seed=seed),
        throughput_parallel_cross_run(scale, seed=seed),
        throughput_sharded_ingest(scale, seed=seed),
        throughput_server(scale, seed=seed),
        throughput_sql_pushdown(scale, seed=seed),
        throughput_incremental_updates(scale, seed=seed),
    ]
