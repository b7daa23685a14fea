"""Command-line interface for the provenance labeling library.

The CLI exposes the typical life cycle of the system:

* ``generate-spec`` — create a synthetic specification and write it to disk;
* ``generate-run`` — simulate a run of a specification;
* ``label`` — label a run with the skeleton-based scheme and store it in a
  SQLite provenance database;
* ``query`` — answer a reachability query from the stored labels;
* ``query-batch`` — answer a whole file of reachability queries in one
  batch (text ``source target`` lines, or the zero-parse binary handle
  format via ``--format bin``);
* ``pack-workload`` — resolve a text pair file against a stored run's
  persisted interner and write the binary handle workload;
* ``sweep`` — one dependency sweep across **all** stored runs of a
  specification (the cross-run query; ``--workers`` fans the per-run
  payloads across the parallel executor);
* ``cross-batch`` — the same pair workload asked of **every** stored run
  of a specification (a runs x pairs matrix; each run's endpoint labels
  are read by primary key);
* ``serve`` — put a provenance database behind a TCP socket (the binary
  wire protocol of :mod:`repro.server`);
* ``health`` — probe a running server for shard reachability and
  degradation counters (exit 0 on ``ok``, 1 on ``degraded``);
* ``experiments`` — regenerate the paper's tables and figures;
* ``info`` — show a specification's characteristics (the Table 1 columns).

Every query command routes through the one declarative surface,
:class:`repro.api.ProvenanceSession` — and every query command accepts a
``repro://host:port/`` URL for ``--database``, in which case it runs
against a remote ``serve`` daemon instead of a local file.

Example::

    repro-provenance generate-spec --modules 100 --edges 200 --regions 10 \\
        --depth 4 --output spec.json
    repro-provenance generate-run --spec spec.json --size 10000 --output run.json
    repro-provenance label --spec spec.json --run run.json --database prov.db
    repro-provenance query --database prov.db --run-id 1 --source m0003:1 --target m0090:2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.api.plans import HANDLE_PATH_MIN_PAIRS as _HANDLE_PATH_MIN_PAIRS
from repro.api.queries import (
    BatchQuery,
    CrossRunBatchQuery,
    CrossRunQuery,
    PointQuery,
)
from repro.api.workload import decode_pair_workload, write_pair_workload
from repro.bench.experiments import all_experiments
from repro.bench.reporting import write_report
from repro.datasets.reallife import load_real_workflow, real_workflow_names
from repro.datasets.synthetic import SyntheticSpecConfig, generate_specification
from repro.exceptions import LabelingError, ReproError, StorageError
from repro.server.client import RemoteStore, is_remote_target
from repro.server.daemon import INGEST_FLUSH_AFTER_DEFAULT, ProvenanceServer
from repro.server.protocol import DEFAULT_PORT
from repro.skeleton.skl import SkeletonLabeler
from repro.storage.sharded import MAX_SHARDS, open_store
from repro.workflow.execution import generate_run_with_size
from repro.workflow.serialization import (
    read_run,
    read_specification,
    write_run,
    write_specification,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-provenance`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-provenance",
        description="Skeleton-based reachability labeling for workflow provenance",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    spec_parser = subparsers.add_parser(
        "generate-spec", help="generate a synthetic workflow specification"
    )
    spec_parser.add_argument("--modules", type=int, required=True, help="nG")
    spec_parser.add_argument("--edges", type=int, required=True, help="mG")
    spec_parser.add_argument("--regions", type=int, required=True, help="|TG| (forks+loops+1)")
    spec_parser.add_argument("--depth", type=int, required=True, help="[TG]")
    spec_parser.add_argument("--seed", type=int, default=0)
    spec_parser.add_argument("--name", default="synthetic")
    spec_parser.add_argument("--output", type=Path, required=True, help=".json or .xml path")

    run_parser = subparsers.add_parser("generate-run", help="simulate a run of a specification")
    run_parser.add_argument("--spec", type=Path, required=True)
    run_parser.add_argument("--size", type=int, required=True, help="target number of vertices")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--name", default="run")
    run_parser.add_argument("--output", type=Path, required=True, help=".json or .xml path")

    label_parser = subparsers.add_parser(
        "label", help="label a run with SKL and store it in a provenance database"
    )
    label_parser.add_argument("--spec", type=Path, required=True)
    label_parser.add_argument("--run", type=Path, required=True)
    label_parser.add_argument("--scheme", default="tcm", help="spec labeling scheme")
    label_parser.add_argument(
        "--database",
        required=True,
        help="database path, or repro://host:port/ of a running server",
    )
    label_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard the provenance database across N SQLite files "
        f"(1-{MAX_SHARDS}; --database then names a directory).  Omit to "
        "use a single-file store, or to reuse the layout of an existing "
        "database",
    )

    query_parser = subparsers.add_parser(
        "query", help="answer a reachability query from stored labels"
    )
    query_parser.add_argument(
        "--database",
        required=True,
        help="database path, or repro://host:port/ of a running server",
    )
    query_parser.add_argument("--run-id", type=int, required=True)
    query_parser.add_argument("--source", required=True, help="module:instance, e.g. m0003:1")
    query_parser.add_argument("--target", required=True, help="module:instance, e.g. m0090:2")

    batch_parser = subparsers.add_parser(
        "query-batch",
        help="answer many reachability queries in one batch (labels fetched once)",
    )
    batch_parser.add_argument(
        "--database",
        required=True,
        help="database path, or repro://host:port/ of a running server",
    )
    batch_parser.add_argument("--run-id", type=int, required=True)
    batch_parser.add_argument(
        "--pairs",
        required=True,
        help="file of 'source target' lines (module:instance each), or - for stdin",
    )
    batch_parser.add_argument(
        "--format",
        choices=("text", "bin"),
        default="text",
        help="text lines, or the binary handle workload written by pack-workload",
    )
    batch_parser.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the summary line, not one line per pair",
    )

    pack_parser = subparsers.add_parser(
        "pack-workload",
        help="resolve a text pair file against a run's persisted interner "
        "and write the zero-parse binary workload",
    )
    pack_parser.add_argument(
        "--database",
        required=True,
        help="database path (pack-workload needs the on-disk interner)",
    )
    pack_parser.add_argument("--run-id", type=int, required=True)
    pack_parser.add_argument(
        "--pairs",
        required=True,
        help="text file of 'source target' lines, or - for stdin",
    )
    pack_parser.add_argument(
        "--output", type=Path, required=True, help="binary workload path"
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="one dependency sweep across ALL stored runs of a specification",
    )
    sweep_parser.add_argument(
        "--database",
        required=True,
        help="database path, or repro://host:port/ of a running server",
    )
    sweep_parser.add_argument("--spec", required=True, help="specification name")
    sweep_parser.add_argument(
        "--source", required=True, help="anchor execution, module:instance"
    )
    sweep_parser.add_argument(
        "--direction", choices=("downstream", "upstream"), default="downstream"
    )
    sweep_parser.add_argument(
        "--summary-only",
        action="store_true",
        help="print only per-run counts, not the affected executions",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for the per-run payloads (default: auto-sized "
        "from the CPU count; 1 forces the sequential path)",
    )
    sweep_parser.add_argument(
        "--pushdown",
        choices=("auto", "always", "never"),
        default="auto",
        help="answer the sweep as indexed SQL range scans inside the store "
        "('always' errors on schemes without the capability; default: auto)",
    )

    cross_batch_parser = subparsers.add_parser(
        "cross-batch",
        help="answer the same pair workload against EVERY stored run of a "
        "specification (a runs x pairs matrix)",
    )
    cross_batch_parser.add_argument(
        "--database",
        required=True,
        help="database path, or repro://host:port/ of a running server",
    )
    cross_batch_parser.add_argument(
        "--spec", required=True, help="specification name"
    )
    cross_batch_parser.add_argument(
        "--pairs",
        required=True,
        help="file of 'source target' lines (module:instance each), or - for stdin",
    )
    cross_batch_parser.add_argument(
        "--summary-only",
        action="store_true",
        help="print only per-run reachable counts, not one line per pair",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve a provenance database over TCP (the repro:// protocol)",
    )
    serve_parser.add_argument("--database", type=Path, required=True)
    serve_parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard a NEW database across N SQLite files (existing "
        "databases keep their layout)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--ingest-flush-after",
        type=int,
        default=INGEST_FLUSH_AFTER_DEFAULT,
        help="buffered ingest entries per connection before an automatic "
        "flush through the batch commit path",
    )

    health_parser = subparsers.add_parser(
        "health",
        help="probe a running provenance server (shard reachability, "
        "degradation counters)",
    )
    health_parser.add_argument(
        "--database",
        required=True,
        help="repro://host:port/ URL of the server to probe",
    )

    stats_parser = subparsers.add_parser(
        "stats",
        help="show a store's cache statistics and per-shard skew table",
    )
    stats_parser.add_argument(
        "--database",
        required=True,
        help="database directory/file, or a repro://host:port/ URL",
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="emit the raw statistics as JSON"
    )

    verify_parser = subparsers.add_parser(
        "verify", help="check that a run conforms to a specification"
    )
    verify_parser.add_argument("--spec", type=Path, required=True)
    verify_parser.add_argument("--run", type=Path, required=True)

    info_parser = subparsers.add_parser("info", help="show a specification's characteristics")
    info_group = info_parser.add_mutually_exclusive_group(required=True)
    info_group.add_argument("--spec", type=Path, help="specification file")
    info_group.add_argument(
        "--catalog", choices=real_workflow_names(), help="one of the Table 1 workflows"
    )

    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments_parser.add_argument(
        "--scale", choices=("smoke", "default", "paper"), default="default"
    )
    experiments_parser.add_argument("--seed", type=int, default=0)
    experiments_parser.add_argument(
        "--output-dir", type=Path, default=None, help="also write one report file per experiment"
    )
    return parser


def _parse_execution(text: str) -> tuple[str, int]:
    module, _, instance = text.rpartition(":")
    if not module:
        raise ReproError(
            f"executions must be written as module:instance, got {text!r}"
        )
    try:
        return module, int(instance)
    except ValueError:
        raise ReproError(f"instance must be an integer in {text!r}") from None


def _open_database(target: str, *, shards: Optional[int] = None):
    """Open a ``--database`` argument: a path on disk, or a server URL.

    Both shapes come back as context managers with the store surface the
    query commands use (``session()``, ``list_runs``, ``add_labeled_run``),
    so the commands themselves never branch on where the store lives.
    """
    if is_remote_target(target):
        if shards is not None:
            raise ReproError(
                "--shards configures the on-disk layout; the server that "
                f"owns {target} already chose one"
            )
        return RemoteStore(target)
    return open_store(Path(target), shards=shards)


def _command_generate_spec(args: argparse.Namespace) -> int:
    spec = generate_specification(
        SyntheticSpecConfig(
            n_modules=args.modules,
            n_edges=args.edges,
            hierarchy_size=args.regions,
            hierarchy_depth=args.depth,
            name=args.name,
            seed=args.seed,
        )
    )
    write_specification(spec, args.output)
    print(
        f"wrote specification {spec.name!r}: nG={spec.vertex_count} mG={spec.edge_count} "
        f"|TG|={spec.hierarchy.size} [TG]={spec.hierarchy.depth} -> {args.output}"
    )
    return 0


def _command_generate_run(args: argparse.Namespace) -> int:
    spec = read_specification(args.spec)
    generated = generate_run_with_size(spec, args.size, seed=args.seed, name=args.name)
    write_run(generated.run, args.output)
    print(
        f"wrote run {generated.run.name!r}: nR={generated.run.vertex_count} "
        f"mR={generated.run.edge_count} -> {args.output}"
    )
    return 0


def _command_label(args: argparse.Namespace) -> int:
    spec = read_specification(args.spec)
    run = read_run(args.run, spec)
    labeler = SkeletonLabeler(spec, args.scheme)
    labeled = labeler.label_run(run)
    with _open_database(args.database, shards=args.shards) as store:
        run_id = store.add_labeled_run(labeled)
        if hasattr(store, "shard_path_of"):
            layout = f"shard {store.shard_path_of(run_id).name} of {store.shard_count}"
        elif is_remote_target(args.database):
            layout = "sharded, via server" if store.sharded else "single file, via server"
        else:
            layout = "single file"
    print(
        f"labeled run {run.name!r} ({run.vertex_count} vertices) with "
        f"{args.scheme}+skl; stored as run_id={run_id} in {args.database} "
        f"({layout})"
    )
    print(
        f"max label length: {labeled.max_label_length_bits()} bits; "
        f"construction: {labeled.timings.total_seconds * 1e3:.2f} ms"
    )
    return 0


def _command_query(args: argparse.Namespace) -> int:
    source = _parse_execution(args.source)
    target = _parse_execution(args.target)
    with _open_database(args.database) as store:
        answer = store.session().run(
            PointQuery(source, target, run_id=args.run_id)
        )
    print(
        f"{args.source} {'reaches' if answer else 'does not reach'} {args.target} "
        f"in run {args.run_id}"
    )
    return 0 if answer else 1


def _parse_pair_lines(text: str):
    """Parse 'source target' lines; blank lines and ``#`` comments are skipped.

    Returns the pairs plus a parallel list of ``(line_number, source_token,
    target_token)`` records, so errors discovered later (e.g. an execution
    absent from the queried run) can point back into the input file.
    """
    pairs = []
    origins = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ReproError(
                f"line {line_number}: expected 'source target', got {line!r}"
            )
        pairs.append((_parse_execution(parts[0]), _parse_execution(parts[1])))
        origins.append((line_number, parts[0], parts[1]))
    return pairs, origins


def _read_pairs_source(pairs_argument: str) -> tuple[str, str]:
    """Read the text behind ``--pairs`` (a path or ``-``); returns (text, label)."""
    if pairs_argument == "-":
        return sys.stdin.read(), "<stdin>"
    pairs_path = Path(pairs_argument)
    if not pairs_path.exists():
        raise ReproError(f"pairs file not found: {pairs_path}")
    return pairs_path.read_text(), str(pairs_path)


def _raise_unknown_execution(
    store,
    run_id: int,
    pairs,
    origins,
    source_label: str,
    original: Exception,
) -> None:
    """Re-raise an unknown-execution failure with file/line/token context."""
    engine_of = getattr(store, "query_engine", None)
    if engine_of is None:
        # a remote store has no local interner to pinpoint the bad token;
        # the server's message already names the offending execution
        raise ReproError(str(original)) from None
    try:
        id_map = engine_of(run_id).interner.id_map
    except ReproError:
        raise ReproError(str(original)) from None
    for (source, target), (line_number, source_token, target_token) in zip(
        pairs, origins
    ):
        for execution, token in ((source, source_token), (target, target_token)):
            if execution not in id_map:
                raise ReproError(
                    f"{source_label}, line {line_number}: unknown execution "
                    f"{token!r} in run {run_id}"
                ) from None
    raise ReproError(str(original)) from None


def _command_query_batch(args: argparse.Namespace) -> int:
    import time

    with _open_database(args.database) as store:
        session = store.session()
        if args.format == "bin":
            if args.pairs == "-":
                payload = sys.stdin.buffer.read()
            else:
                pairs_path = Path(args.pairs)
                if not pairs_path.exists():
                    raise ReproError(f"pairs file not found: {pairs_path}")
                payload = pairs_path.read_bytes()
            _, source_ids, target_ids = decode_pair_workload(
                payload, expect_run_id=args.run_id
            )
            if not len(source_ids):
                raise ReproError("no query pairs given")
            started = time.perf_counter()
            try:
                answers = session.run(
                    BatchQuery(
                        source_ids=source_ids,
                        target_ids=target_ids,
                        run_id=args.run_id,
                    )
                )
            except LabelingError as exc:
                raise ReproError(f"run {args.run_id}: {exc}") from None
            elapsed = time.perf_counter() - started
            if args.summary_only:
                # the whole point of the binary format is the zero-parse
                # replay; only resolve handles back to names when printing
                pairs = source_ids
            elif hasattr(store, "query_engine"):
                vertex_at = store.query_engine(args.run_id).interner.vertex_at
                pairs = [
                    (vertex_at(int(source_id)), vertex_at(int(target_id)))
                    for source_id, target_id in zip(source_ids, target_ids)
                ]
            else:
                # a remote store keeps the interner server-side; print the
                # persisted handles the workload was packed with
                pairs = [
                    (("handle", int(source_id)), ("handle", int(target_id)))
                    for source_id, target_id in zip(source_ids, target_ids)
                ]
        else:
            text, source_label = _read_pairs_source(args.pairs)
            pairs, origins = _parse_pair_lines(text)
            if not pairs:
                raise ReproError("no query pairs given")
            started = time.perf_counter()
            try:
                answers = session.run(
                    BatchQuery(pairs=pairs, run_id=args.run_id)
                )
            except (StorageError, LabelingError) as exc:
                _raise_unknown_execution(
                    store, args.run_id, pairs, origins, source_label, exc
                )
            elapsed = time.perf_counter() - started
    if not args.summary_only:
        for (source, target), answer in zip(pairs, answers):
            verdict = "reaches" if answer else "does-not-reach"
            print(
                f"{source[0]}:{source[1]} {verdict} {target[0]}:{target[1]}"
            )
    reachable = sum(map(bool, answers))
    rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
    print(
        f"answered {len(pairs)} queries in {elapsed * 1e3:.2f} ms "
        f"({rate:,.0f} queries/s); {reachable} reachable"
    )
    return 0


def _command_pack_workload(args: argparse.Namespace) -> int:
    if is_remote_target(args.database):
        raise ReproError(
            "pack-workload resolves pairs against the run's on-disk "
            "interner; pack next to the database, then replay the file "
            "remotely with query-batch --format bin"
        )
    text, source_label = _read_pairs_source(args.pairs)
    pairs, origins = _parse_pair_lines(text)
    if not pairs:
        raise ReproError("no query pairs given")
    with open_store(Path(args.database)) as store:
        engine = store.query_engine(args.run_id)
        try:
            source_ids, target_ids = engine.intern_pairs(pairs)
        except LabelingError as exc:
            _raise_unknown_execution(
                store, args.run_id, pairs, origins, source_label, exc
            )
    count = write_pair_workload(
        args.output, source_ids, target_ids, run_id=args.run_id
    )
    print(
        f"packed {count} pairs -> {args.output} ({16 + count * 16} bytes; "
        f"persisted handles of run {args.run_id})"
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    import time

    anchor = _parse_execution(args.source)
    with _open_database(args.database) as store:
        started = time.perf_counter()
        result = store.session().run(
            CrossRunQuery(
                args.spec,
                anchor,
                args.direction,
                workers=args.workers,
                pushdown=args.pushdown,
            )
        )
        elapsed = time.perf_counter() - started
        names = {row["run_id"]: row["name"] for row in store.list_runs(args.spec)}
    relation = "downstream of" if args.direction == "downstream" else "upstream of"
    for run_id, affected in sorted(result.per_run.items()):
        print(
            f"run {run_id} ({names.get(run_id, '?')}): "
            f"{len(affected)} executions {relation} {args.source}"
        )
        if not args.summary_only:
            for module, instance in affected:
                print(f"  {module}:{instance}")
    for run_id in result.skipped_runs:
        print(
            f"run {run_id} ({names.get(run_id, '?')}): "
            f"never executed {args.source} (skipped)"
        )
    print(
        f"swept {result.run_count} runs of {args.spec!r} in "
        f"{elapsed * 1e3:.2f} ms; {result.affected_count} affected executions"
    )
    return 0


def _command_cross_batch(args: argparse.Namespace) -> int:
    import time

    text, _ = _read_pairs_source(args.pairs)
    pairs, _ = _parse_pair_lines(text)
    if not pairs:
        raise ReproError("no query pairs given")
    with _open_database(args.database) as store:
        started = time.perf_counter()
        result = store.session().run(CrossRunBatchQuery(args.spec, pairs))
        elapsed = time.perf_counter() - started
        names = {row["run_id"]: row["name"] for row in store.list_runs(args.spec)}
    for run_id in result.run_ids:
        answers = result.per_run[run_id]
        reachable = sum(answers)
        print(
            f"run {run_id} ({names.get(run_id, '?')}): "
            f"{reachable}/{len(answers)} pairs reachable"
        )
        if not args.summary_only:
            for (source, target), answer in zip(result.pairs, answers):
                verdict = "reaches" if answer else "does-not-reach"
                print(
                    f"  {source[0]}:{source[1]} {verdict} {target[0]}:{target[1]}"
                )
    for run_id in result.skipped_runs:
        print(
            f"run {run_id} ({names.get(run_id, '?')}): "
            "missing a queried execution (skipped)"
        )
    answered = result.run_count * len(pairs)
    rate = answered / elapsed if elapsed > 0 else float("inf")
    print(
        f"answered {len(pairs)} pairs x {result.run_count} runs of "
        f"{args.spec!r} in {elapsed * 1e3:.2f} ms ({rate:,.0f} answers/s); "
        f"{len(result.skipped_runs)} runs skipped"
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    server = ProvenanceServer(
        path=args.database,
        shards=args.shards,
        host=args.host,
        port=args.port,
        ingest_flush_after=args.ingest_flush_after,
    )

    async def _serve() -> None:
        host, port = await server.start()
        print(
            f"serving {args.database} at repro://{host}:{port}/ "
            "(Ctrl-C to stop)",
            flush=True,
        )
        # Ctrl-C cancels serving between requests.  Without this handler
        # Python 3.10 raises KeyboardInterrupt wherever the event-loop
        # thread is — inside a request's store operation, or inside stop().
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, asyncio.current_task().cancel
            )
        except (NotImplementedError, RuntimeError):
            pass  # no loop signal handlers: Windows, or not the main thread
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass  # the SIGINT above; serve_forever has stopped the server

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        # serve_forever's finally already drained and closed the store
        pass
    return 0


def _command_health(args: argparse.Namespace) -> int:
    import json

    if not is_remote_target(args.database):
        raise ReproError(
            f"health expects a repro://host:port/ URL, got {args.database!r}"
        )
    client = RemoteStore(args.database, retries=0)
    try:
        report = client.health()
    finally:
        client.close()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report.get("status") == "ok" else 1


def _print_skew_table(shards: dict) -> None:
    """Render ``cache_stats()['shards']`` as the operator's skew table."""
    header = (
        f"{'shard':>5}  {'file':<14} {'specs':>5} {'runs':>6} "
        f"{'file_bytes':>11} {'sweeps sql':>10} {'kernel':>6}"
    )
    print(header)
    for row in shards.get("per_shard", []):
        sweeps = row.get("sweeps", {})
        print(
            f"{row['shard']:>5}  {row['file']:<14} {row['specs']:>5} "
            f"{row['runs']:>6} {row['file_bytes']:>11} "
            f"{sweeps.get('sql', 0):>10} {sweeps.get('kernel', 0):>6}"
        )


def _command_stats(args: argparse.Namespace) -> int:
    import json

    with _open_database(args.database) as store:
        stats = store.cache_stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0
    shards = stats.get("shards")
    if isinstance(shards, dict):
        print(f"{args.database}: {shards.get('count')} shards")
        _print_skew_table(shards)
    else:
        print(f"{args.database}: single-file store")
    for key in sorted(stats):
        if key == "shards":
            continue
        value = stats[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, default=str)
        print(f"  {key}: {value}")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    from repro.skeleton.construct import construct_plan

    spec = read_specification(args.spec)
    run = read_run(args.run, spec)
    try:
        result = construct_plan(spec, run)
    except ReproError as exc:
        print(f"run {run.name!r} does NOT conform to specification {spec.name!r}: {exc}")
        return 1
    copies = result.plan.copies_per_region()
    print(f"run {run.name!r} conforms to specification {spec.name!r}")
    print(f"  executions : {run.vertex_count} modules, {run.edge_count} channels")
    print(f"  plan size  : {len(result.plan)} nodes")
    for region, count in sorted(copies.items()):
        print(f"  {region:12s}: {count} copies")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    spec = (
        load_real_workflow(args.catalog)
        if args.catalog is not None
        else read_specification(args.spec)
    )
    print(f"specification : {spec.name}")
    print(f"nG (modules)  : {spec.vertex_count}")
    print(f"mG (edges)    : {spec.edge_count}")
    print(f"|TG|          : {spec.hierarchy.size}")
    print(f"[TG]          : {spec.hierarchy.depth}")
    print(f"forks         : {', '.join(sorted(r.name for r in spec.forks)) or '(none)'}")
    print(f"loops         : {', '.join(sorted(r.name for r in spec.loops)) or '(none)'}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    results = all_experiments(args.scale, seed=args.seed)
    for result in results:
        print(result.to_text())
        print()
        if args.output_dir is not None:
            write_report(result, args.output_dir)
    if args.output_dir is not None:
        print(f"reports written to {args.output_dir}")
    return 0


_COMMANDS = {
    "generate-spec": _command_generate_spec,
    "generate-run": _command_generate_run,
    "label": _command_label,
    "query": _command_query,
    "query-batch": _command_query_batch,
    "pack-workload": _command_pack_workload,
    "sweep": _command_sweep,
    "cross-batch": _command_cross_batch,
    "serve": _command_serve,
    "health": _command_health,
    "stats": _command_stats,
    "verify": _command_verify,
    "info": _command_info,
    "experiments": _command_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
