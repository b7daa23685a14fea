"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.workflow.serialization import read_run, read_specification, write_run, write_specification


class TestParser:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        subactions = [
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        ]
        commands = set(subactions[0].choices)
        assert commands == {
            "generate-spec", "generate-run", "label", "query", "query-batch",
            "pack-workload", "sweep", "cross-batch", "serve", "health",
            "stats", "verify", "info", "experiments",
        }

    def test_missing_command_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["rebalance", "replicate", "routing"])
    def test_retired_routing_commands_are_usage_errors(
        self, tmp_path, capsys, command
    ):
        # placement is the spec-name hash, so there is nothing to move,
        # copy or list; the parser refuses before any store is opened
        database = tmp_path / "sharded"
        with pytest.raises(SystemExit) as info:
            main([command, "--database", str(database)])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not database.exists()


class TestGenerateCommands:
    def test_generate_spec_and_run(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        exit_code = main([
            "generate-spec", "--modules", "40", "--edges", "60", "--regions", "5",
            "--depth", "3", "--seed", "1", "--output", str(spec_path),
        ])
        assert exit_code == 0
        spec = read_specification(spec_path)
        assert spec.vertex_count == 40 and spec.edge_count == 60

        run_path = tmp_path / "run.json"
        exit_code = main([
            "generate-run", "--spec", str(spec_path), "--size", "300",
            "--seed", "2", "--output", str(run_path),
        ])
        assert exit_code == 0
        run = read_run(run_path, spec)
        assert run.vertex_count >= 300
        output = capsys.readouterr().out
        assert "wrote specification" in output and "wrote run" in output

    def test_generate_spec_infeasible_parameters(self, tmp_path, capsys):
        exit_code = main([
            "generate-spec", "--modules", "5", "--edges", "100", "--regions", "10",
            "--depth", "4", "--output", str(tmp_path / "bad.json"),
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestLabelAndQuery:
    @pytest.fixture()
    def labeled_database(self, tmp_path, paper_spec, paper_run):
        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        database = tmp_path / "prov.db"
        write_specification(paper_spec, spec_path)
        write_run(paper_run, run_path)
        exit_code = main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database),
        ])
        assert exit_code == 0
        return database

    def test_query_reachable(self, labeled_database, capsys):
        exit_code = main([
            "query", "--database", str(labeled_database), "--run-id", "1",
            "--source", "a:1", "--target", "h:1",
        ])
        assert exit_code == 0
        assert "reaches" in capsys.readouterr().out

    def test_query_unreachable(self, labeled_database, capsys):
        exit_code = main([
            "query", "--database", str(labeled_database), "--run-id", "1",
            "--source", "b:1", "--target", "c:3",
        ])
        assert exit_code == 1
        assert "does not reach" in capsys.readouterr().out

    def test_query_bad_execution_format(self, labeled_database, capsys):
        exit_code = main([
            "query", "--database", str(labeled_database), "--run-id", "1",
            "--source", "a1", "--target", "h:1",
        ])
        assert exit_code == 2


class TestQueryBatch:
    @pytest.fixture()
    def labeled_database(self, tmp_path, paper_spec, paper_run):
        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        database = tmp_path / "prov.db"
        write_specification(paper_spec, spec_path)
        write_run(paper_run, run_path)
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database),
        ]) == 0
        return database

    def test_query_batch_answers_every_pair(self, labeled_database, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text(
            "# provenance queries\n"
            "a:1 h:1\n"
            "\n"
            "h:1 a:1\n"
            "b:1 c:2\n"
        )
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "a:1 reaches h:1" in output
        assert "h:1 does-not-reach a:1" in output
        assert "b:1 reaches c:2" in output
        assert "answered 3 queries" in output and "2 reachable" in output

    def test_query_batch_summary_only(self, labeled_database, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1\nh:1 a:1\n")
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--summary-only",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "answered 2 queries" in output
        assert "reaches h:1" not in output

    def test_query_batch_matches_single_queries(self, labeled_database, tmp_path, capsys):
        queries = [("a:1", "h:1"), ("b:1", "c:3"), ("e:1", "f:2"), ("c:1", "b:2")]
        single = []
        for source, target in queries:
            code = main([
                "query", "--database", str(labeled_database), "--run-id", "1",
                "--source", source, "--target", target,
            ])
            single.append(code == 0)
        capsys.readouterr()
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("".join(f"{s} {t}\n" for s, t in queries))
        assert main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ]) == 0
        output = capsys.readouterr().out
        for (source, target), answer in zip(queries, single):
            verdict = "reaches" if answer else "does-not-reach"
            assert f"{source} {verdict} {target}" in output

    def test_query_batch_large_file_uses_handle_path(
        self, labeled_database, tmp_path, capsys
    ):
        # Past _HANDLE_PATH_MIN_PAIRS the CLI interns the whole file once
        # through the store's cached engine; answers must be identical to
        # the small-file path.
        from repro.cli import _HANDLE_PATH_MIN_PAIRS

        lines = ["a:1 h:1", "h:1 a:1", "b:1 c:2"]
        repeats = _HANDLE_PATH_MIN_PAIRS // len(lines) + 1
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("".join(f"{line}\n" for line in lines * repeats))
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--summary-only",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        total = len(lines) * repeats
        assert f"answered {total} queries" in output
        assert f"{2 * repeats} reachable" in output

    def test_query_batch_from_stdin(self, labeled_database, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a:1 h:1\n"))
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", "-",
        ])
        assert exit_code == 0
        assert "a:1 reaches h:1" in capsys.readouterr().out

    def test_query_batch_malformed_line_errors(self, labeled_database, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1 extra\n")
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_query_batch_empty_file_errors(self, labeled_database, tmp_path, capsys):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("# nothing here\n")
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ])
        assert exit_code == 2

    def test_query_batch_missing_file_errors(self, labeled_database, tmp_path, capsys):
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(tmp_path / "nope.txt"),
        ])
        assert exit_code == 2


class TestQueryBatchErrors:
    @pytest.fixture()
    def labeled_database(self, tmp_path, paper_spec, paper_run):
        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        database = tmp_path / "prov.db"
        write_specification(paper_spec, spec_path)
        write_run(paper_run, run_path)
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database),
        ]) == 0
        return database

    def test_unknown_execution_reports_file_line_and_token(
        self, labeled_database, tmp_path, capsys
    ):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text(
            "# header comment\n"
            "a:1 h:1\n"
            "\n"
            "a:1 nosuch:7\n"
        )
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "line 4" in err
        assert "'nosuch:7'" in err
        assert "run 1" in err

    def test_unknown_source_on_large_handle_path(
        self, labeled_database, tmp_path, capsys
    ):
        from repro.api.plans import HANDLE_PATH_MIN_PAIRS

        lines = ["a:1 h:1"] * HANDLE_PATH_MIN_PAIRS + ["ghost:1 h:1"]
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("".join(f"{line}\n" for line in lines))
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--summary-only",
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert f"line {len(lines)}" in err and "'ghost:1'" in err

    def test_unknown_run_still_errors_cleanly(
        self, labeled_database, tmp_path, capsys
    ):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1\n")
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "99",
            "--pairs", str(pairs_path),
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestBinaryWorkload:
    @pytest.fixture()
    def labeled_database(self, tmp_path, paper_spec, paper_run):
        spec_path = tmp_path / "spec.json"
        run_path = tmp_path / "run.json"
        database = tmp_path / "prov.db"
        write_specification(paper_spec, spec_path)
        write_run(paper_run, run_path)
        assert main([
            "label", "--spec", str(spec_path), "--run", str(run_path),
            "--database", str(database),
        ]) == 0
        return database

    def test_pack_then_query_matches_text_path(
        self, labeled_database, tmp_path, capsys
    ):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1\nh:1 a:1\nb:1 c:2\nb:1 c:3\n")
        workload_path = tmp_path / "pairs.bin"
        assert main([
            "pack-workload", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--output", str(workload_path),
        ]) == 0
        assert "packed 4 pairs" in capsys.readouterr().out
        # 16-byte header, then two little-endian int64 columns per pair
        assert workload_path.stat().st_size == 16 + 4 * 16

        assert main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path),
        ]) == 0
        text_output = capsys.readouterr().out
        assert main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(workload_path), "--format", "bin",
        ]) == 0
        bin_output = capsys.readouterr().out
        for line in text_output.splitlines():
            if "reaches" in line and not line.startswith("answered"):
                assert line in bin_output
        assert "answered 4 queries" in bin_output and "2 reachable" in bin_output

    def test_pack_unknown_execution_reports_line(
        self, labeled_database, tmp_path, capsys
    ):
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1\nz:9 h:1\n")
        exit_code = main([
            "pack-workload", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--output", str(tmp_path / "out.bin"),
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'z:9'" in err

    def test_workload_for_another_run_rejected(
        self, labeled_database, tmp_path, capsys
    ):
        # handles only mean something for the run that issued them; the
        # embedded run id must stop a silent cross-run replay
        pairs_path = tmp_path / "pairs.txt"
        pairs_path.write_text("a:1 h:1\n")
        workload_path = tmp_path / "pairs.bin"
        assert main([
            "pack-workload", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(pairs_path), "--output", str(workload_path),
        ]) == 0
        capsys.readouterr()
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "2",
            "--pairs", str(workload_path), "--format", "bin",
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "packed against run 1" in err and "not run 2" in err

    def test_headerless_binary_workload_errors(
        self, labeled_database, tmp_path, capsys
    ):
        workload_path = tmp_path / "broken.bin"
        workload_path.write_bytes(b"\x00" * 21)
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(workload_path), "--format", "bin",
        ])
        assert exit_code == 2
        assert "header" in capsys.readouterr().err

    def test_truncated_binary_workload_errors(
        self, labeled_database, tmp_path, capsys
    ):
        from repro.api.workload import write_pair_workload

        workload_path = tmp_path / "broken.bin"
        write_pair_workload(workload_path, [0, 1], [1, 2], run_id=1)
        workload_path.write_bytes(workload_path.read_bytes()[:-5])
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(workload_path), "--format", "bin",
        ])
        assert exit_code == 2
        assert "multiple of 16" in capsys.readouterr().err

    def test_out_of_range_handle_errors(self, labeled_database, tmp_path, capsys):
        from repro.api.workload import write_pair_workload

        workload_path = tmp_path / "bad.bin"
        write_pair_workload(workload_path, [0, 10_000], [1, 2], run_id=1)
        exit_code = main([
            "query-batch", "--database", str(labeled_database), "--run-id", "1",
            "--pairs", str(workload_path), "--format", "bin",
        ])
        assert exit_code == 2
        assert "unknown vertex handle" in capsys.readouterr().err


class TestSweep:
    @pytest.fixture()
    def multi_run_database(self, tmp_path, paper_spec, paper_run):
        from repro.skeleton.skl import SkeletonLabeler
        from repro.storage.store import ProvenanceStore
        from repro.workflow.execution import generate_run_with_size

        database = tmp_path / "prov.db"
        labeler = SkeletonLabeler(paper_spec, "tcm")
        with ProvenanceStore(database) as store:
            store.add_labeled_run(labeler.label_run(paper_run))
            for seed in (1, 2):
                generated = generate_run_with_size(
                    paper_spec, 20, seed=seed, name=f"gen-{seed}"
                )
                store.add_labeled_run(labeler.label_run(generated.run))
        return database

    def test_sweep_covers_every_run(self, multi_run_database, capsys):
        exit_code = main([
            "sweep", "--database", str(multi_run_database),
            "--spec", "paper-example", "--source", "a:1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "run 1 (figure-3)" in output
        assert "run 2 (gen-1)" in output and "run 3 (gen-2)" in output
        assert "swept 3 runs of 'paper-example'" in output

    def test_sweep_upstream_summary(self, multi_run_database, capsys):
        exit_code = main([
            "sweep", "--database", str(multi_run_database),
            "--spec", "paper-example", "--source", "h:1",
            "--direction", "upstream", "--summary-only",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "executions upstream of h:1" in output
        # every other execution of figure-3 feeds h:1
        assert "run 1 (figure-3): 15 executions" in output

    def test_sweep_unknown_spec_errors(self, multi_run_database, capsys):
        exit_code = main([
            "sweep", "--database", str(multi_run_database),
            "--spec", "nope", "--source", "a:1",
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_verify_conforming_run(self, tmp_path, paper_spec, paper_run, capsys):
        spec_path, run_path = tmp_path / "spec.json", tmp_path / "run.json"
        write_specification(paper_spec, spec_path)
        write_run(paper_run, run_path)
        assert main(["verify", "--spec", str(spec_path), "--run", str(run_path)]) == 0
        output = capsys.readouterr().out
        assert "conforms" in output and "F1" in output

    def test_verify_non_conforming_run(self, tmp_path, paper_spec, paper_run, capsys):
        from repro.workflow.run import WorkflowRun

        spec_path, run_path = tmp_path / "spec.json", tmp_path / "bad-run.json"
        write_specification(paper_spec, spec_path)
        bad = WorkflowRun.from_edges(
            paper_spec,
            [(("a", 1), ("b", 1)), (("b", 1), ("c", 1)), (("c", 1), ("h", 1))],
            name="missing-branch",
        )
        write_run(bad, run_path)
        assert main(["verify", "--spec", str(spec_path), "--run", str(run_path)]) == 1
        assert "does NOT conform" in capsys.readouterr().out


class TestInfoAndExperiments:
    def test_info_catalog(self, capsys):
        assert main(["info", "--catalog", "QBLAST"]) == 0
        output = capsys.readouterr().out
        assert "nG (modules)  : 58" in output
        assert "|TG|          : 6" in output

    def test_info_from_file(self, tmp_path, paper_spec, capsys):
        path = tmp_path / "spec.xml"
        write_specification(paper_spec, path)
        assert main(["info", "--spec", str(path)]) == 0
        assert "paper-example" in capsys.readouterr().out

    def test_experiments_smoke(self, tmp_path, capsys):
        exit_code = main([
            "experiments", "--scale", "smoke", "--seed", "1",
            "--output-dir", str(tmp_path / "reports"),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "figure-12" in output and "table-1" in output
        written = list((tmp_path / "reports").glob("*.txt"))
        # tables 1-2, figures 12-20, spec-scheme ablation, engine throughput,
        # handle-path throughput, cross-run + parallel cross-run throughput,
        # sharded-ingest throughput, server throughput, sql-pushdown
        # throughput, incremental-update throughput
        assert len(written) == 20
        # every report also carries a machine-readable BENCH_*.json twin
        assert len(list((tmp_path / "reports").glob("BENCH_*.json"))) == 20
