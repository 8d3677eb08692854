"""Command-line interface.

Three groups of functionality::

    # Regenerate any table/figure of the paper (legacy shortcut: the
    # experiment name may be passed directly as the first argument).
    python -m repro.cli experiment fig3 --dataset Zipf_3
    python -m repro.cli fig9
    python -m repro.cli all

    # Build a persistent sketch archive from a log file.
    python -m repro.cli synth day46.log --length 100000
    python -m repro.cli build day46.log urls.sketch.gz --attribute object_id
    python -m repro.cli build clicks.csv clicks.sketch.gz --csv-column key

    # Query an archive about any past window.
    python -m repro.cli query urls.sketch.gz point --item 123 --s 0 --t 50000

    # Crash-safe ingestion (WAL + checkpoints) and post-crash recovery.
    python -m repro.cli ingest ./rt records.jsonl --create-stream urls:8:1024
    python -m repro.cli ingest ./rt more.jsonl --resume
    python -m repro.cli recover ./rt --export ./rt.store

    # Serve sketches over TCP: JSON-lines protocol, WAL-durable writes,
    # frozen/live cutover reads (see docs/serving.md).
    python -m repro.cli serve ./rt --create-stream urls:8:1024 --port 7071
    python -m repro.cli serve ./rt --resume --port 7071

    # Durability scrub: verify every WAL frame and checkpoint, classify
    # damage, optionally quarantine + repair (exit 0 clean, 1 damaged
    # but recoverable, 2 unrecoverable).
    python -m repro.cli fsck ./rt
    python -m repro.cli fsck ./rt --repair --json

    # Static analysis: the sketch-invariant linter (see
    # docs/static-analysis.md); `python -m repro.analysis` is equivalent.
    python -m repro.cli lint src --format json

``REPRO_BENCH_SCALE`` (float) scales experiment workload sizes.
``REPRO_CONTRACTS=1`` enables the runtime contract layer
(:mod:`repro.analysis.contracts`).
"""

from __future__ import annotations

import argparse
import sys

from repro.eval import experiments
from repro.eval.harness import DATASETS

#: Experiments keyed by CLI name; value = (runner, needs_dataset).
EXPERIMENTS = {
    "table1": (experiments.run_table1, False),
    "fig1": (experiments.run_fig1, False),
    "fig2": (experiments.run_fig2, False),
    "fig3": (experiments.run_fig3, True),
    "fig4": (experiments.run_fig4, True),
    "fig5": (experiments.run_fig5, True),
    "fig6": (experiments.run_fig6, True),
    "fig7": (experiments.run_fig7, True),
    "fig8": (experiments.run_fig8, True),
    "fig9": (experiments.run_fig9, True),
    "fig10": (experiments.run_fig10, True),
}

QUERY_KINDS = ("point", "self_join", "heavy_hitters", "mass")


def _run_experiments(name: str, dataset: str | None) -> int:
    names = sorted(EXPERIMENTS) if name == "all" else [name]
    for experiment in names:
        runner, needs_dataset = EXPERIMENTS[experiment]
        if needs_dataset:
            datasets = [dataset] if dataset else sorted(DATASETS)
            for ds in datasets:
                runner(ds)
        else:
            runner()
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from repro.streams.logs import synthesize_worldcup_log, write_worldcup_log

    records = synthesize_worldcup_log(args.length, seed=args.seed)
    count = write_worldcup_log(records, args.log)
    print(f"wrote {count} records to {args.log}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.core.persistent_ams import PersistentAMS
    from repro.core.persistent_countmin import PersistentCountMin
    from repro.io import save
    from repro.streams.logs import (
        attribute_stream,
        read_csv_stream,
        read_worldcup_log,
    )

    if args.csv_column:
        stream = read_csv_stream(
            args.log, item_column=args.csv_column, time_column=args.csv_time
        )
    else:
        stream = attribute_stream(read_worldcup_log(args.log), args.attribute)
    if args.kind == "countmin":
        sketch = PersistentCountMin(
            width=args.width, depth=args.depth, delta=args.delta,
            seed=args.seed,
        )
    else:
        sketch = PersistentAMS(
            width=args.width, depth=args.depth, delta=args.delta,
            seed=args.seed,
        )
    sketch.ingest(stream)
    if args.kind == "countmin":
        sketch.finalize()
    save(sketch, args.archive)
    print(
        f"ingested {len(stream)} updates; persistence "
        f"{sketch.persistence_words()} words -> {args.archive}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.sketchlint import run_lint

    select = args.select.split(",") if args.select else None
    try:
        return run_lint(
            args.paths,
            fmt=args.format,
            select=select,
            warn_only=args.warn_only,
            list_rules=args.list_rules,
            baseline=args.baseline,
            update_baseline=args.update_baseline,
            stats=args.stats,
            time_budget=args.time_budget,
            cache_dir=args.cache,
        )
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not a lint error.
        sys.stderr.close()
        return 0


def _parse_stream_specs(raw_specs: list[str]):
    """``name:delta[:universe]`` CLI specs into :class:`StreamSpec`."""
    from repro.store import StreamSpec

    specs = []
    for raw in raw_specs:
        parts = raw.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(
                f"--create-stream expects name:delta[:universe], got {raw!r}"
            )
        universe = int(parts[2]) if len(parts) == 3 else None
        specs.append(
            StreamSpec(
                name=parts[0],
                delta=float(parts[1]),
                universe=universe,
                heavy_hitters=universe is not None,
                quantiles=universe is not None,
            )
        )
    return specs


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.runtime import IngestPolicy, IngestRuntime
    from repro.store import SketchStore
    from repro.streams.records import read_jsonl_batches

    policy = IngestPolicy(
        on_malformed=args.on_malformed, on_late=args.on_late
    )
    if args.resume:
        runtime = IngestRuntime.recover(
            args.directory,
            policy=policy,
            checkpoint_every=args.checkpoint_every,
            buffer_window=args.buffer_window,
            buffer_mode=args.buffer_mode,
        )
        print(
            f"resumed at seq {runtime.applied_seq} "
            f"({runtime.stats.replayed} WAL records replayed)"
        )
    else:
        specs = _parse_stream_specs(args.create_stream)
        if not specs:
            raise SystemExit(
                "fresh runtimes need at least one --create-stream "
                "name:delta[:universe] (or pass --resume)"
            )
        store = SketchStore(
            width=args.width, depth=args.depth, seed=args.seed
        )
        for spec in specs:
            store.create(spec)
        runtime = IngestRuntime.create(
            args.directory,
            store,
            policy=policy,
            checkpoint_every=args.checkpoint_every,
            buffer_window=args.buffer_window,
            buffer_mode=args.buffer_mode,
        )
    for chunk in read_jsonl_batches(args.records, args.batch_size):
        runtime.ingest_batch(chunk)
    runtime.checkpoint()
    runtime.close()
    for key, value in runtime.stats.as_dict().items():
        print(f"{key}: {value}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import json as _json

    from repro.runtime import IngestRuntime, RecoveryError

    try:
        runtime = IngestRuntime.recover(
            args.directory,
            acknowledge_data_loss=args.acknowledge_data_loss,
        )
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    report = runtime.fsck_report
    if report is not None and not report.clean:
        print(f"fsck: {report.summary()}", file=sys.stderr)
        for action in report.actions:
            print(f"fsck: {action}", file=sys.stderr)
    if args.export:
        runtime.store.save(args.export)
        print(f"exported recovered store to {args.export}")
    runtime.close()
    print(_json.dumps(runtime.describe(), indent=2))
    if report is not None and report.data_loss and not args.acknowledge_data_loss:
        print(
            "recovered DEGRADED READ-ONLY: acknowledged records were lost "
            "(re-run with --acknowledge-data-loss to accept)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.runtime import IngestPolicy, IngestRuntime
    from repro.server import ServingRuntime, SketchServer
    from repro.store import SketchStore

    policy = IngestPolicy(
        on_malformed=args.on_malformed, on_late=args.on_late
    )
    if args.resume:
        runtime = IngestRuntime.recover(
            args.directory,
            policy=policy,
            checkpoint_every=args.checkpoint_every,
            buffer_window=args.buffer_window,
            buffer_mode=args.buffer_mode,
        )
        print(
            f"resumed at seq {runtime.applied_seq} "
            f"({runtime.stats.replayed} WAL records replayed)",
            flush=True,
        )
    else:
        specs = _parse_stream_specs(args.create_stream)
        if not specs:
            raise SystemExit(
                "fresh runtimes need at least one --create-stream "
                "name:delta[:universe] (or pass --resume)"
            )
        store = SketchStore(
            width=args.width, depth=args.depth, seed=args.seed
        )
        for spec in specs:
            store.create(spec)
        runtime = IngestRuntime.create(
            args.directory,
            store,
            policy=policy,
            checkpoint_every=args.checkpoint_every,
            buffer_window=args.buffer_window,
            buffer_mode=args.buffer_mode,
        )
    serving = ServingRuntime(
        runtime,
        freeze_every=args.freeze_every,
        freeze_interval_s=args.freeze_interval,
    )
    server = SketchServer(
        serving,
        host=args.host,
        port=args.port,
        cutover_poll_s=args.poll_interval,
    )
    server.start()
    host, port = server.address
    # Readiness line: supervisors and the CI smoke job wait for this.
    print(f"repro-serve listening on {host}:{port}", flush=True)

    def _graceful(_signum: int, _frame: object) -> None:
        server.stop()

    signal.signal(signal.SIGINT, _graceful)
    signal.signal(signal.SIGTERM, _graceful)
    server.serve_until_stopped()
    if server.crashed:
        print("repro-serve crashed", file=sys.stderr)
        return 1
    print(
        f"repro-serve stopped at seq {runtime.applied_seq} "
        f"({serving.cutovers} cutovers)",
        flush=True,
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from repro.runtime import run_fsck

    report = run_fsck(args.directory, repair=args.repair)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2))
    else:
        print(f"{args.directory}: {report.summary()}")
        for seg in report.segments:
            if seg.verdict != "clean" or seg.detail:
                print(f"  segment {seg.name}: {seg.verdict} {seg.detail}")
        for ckpt in report.checkpoints:
            if ckpt.verdict != "clean":
                print(f"  checkpoint {ckpt.name}: {ckpt.verdict}")
        if report.pointer.verdict != "clean":
            print(
                f"  pointer: {report.pointer.verdict} {report.pointer.detail}"
            )
        for action in report.actions:
            print(f"  repair: {action}")
    if not report.recoverable:
        return 2
    return 0 if report.clean else 1


def _query_items(args: argparse.Namespace) -> list[int]:
    items: list[int] = []
    if args.item is not None:
        items.append(args.item)
    if args.items:
        items.extend(int(raw) for raw in args.items.split(","))
    if not items:
        raise SystemExit("point queries require --item or --items")
    return items


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.io import load

    sketch = load(args.archive)
    if args.frozen:
        # Compile once, serve all of this invocation's queries from the
        # immutable columnar snapshot (bit-equal to the live path).
        sketch = sketch.freeze()
    t = args.t if args.t is not None else sketch.now
    if args.kind == "point":
        items = _query_items(args)
        if args.frozen and len(items) > 1:
            values = sketch.point_many(items, (args.s, t))
        else:
            values = [sketch.point(item, args.s, t) for item in items]
        for item, value in zip(items, values):
            print(f"f_{item}({args.s}, {t}] ~= {value:.1f}")
    elif args.kind == "self_join":
        value = sketch.self_join_size(args.s, t)
        print(f"F2({args.s}, {t}] ~= {value:.1f}")
    elif args.kind == "heavy_hitters":
        found = sketch.heavy_hitters(args.phi, args.s, t)
        for item, estimate in sorted(
            found.items(), key=lambda kv: kv[1], reverse=True
        ):
            print(f"{item}\t{estimate:.1f}")
    elif args.kind == "mass":
        value = sketch.window_mass(args.s, t)
        print(f"||f({args.s}, {t}]||_1 ~= {value:.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Persistent Data Sketching (SIGMOD 2015) reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper"
    )
    exp.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    exp.add_argument("--dataset", choices=sorted(DATASETS), default=None)

    synth = sub.add_parser(
        "synth", help="generate a synthetic WorldCup-format binary log"
    )
    synth.add_argument("log", help="output log path")
    synth.add_argument("--length", type=int, default=100_000)
    synth.add_argument("--seed", type=int, default=0)

    build = sub.add_parser(
        "build", help="ingest a log into a persistent sketch archive"
    )
    build.add_argument("log", help="input log (binary WorldCup or CSV)")
    build.add_argument("archive", help="output archive (.json or .json.gz)")
    build.add_argument(
        "--attribute",
        default="object_id",
        help="WorldCup attribute to stream (binary logs)",
    )
    build.add_argument(
        "--csv-column", default=None, help="treat the log as CSV; item column"
    )
    build.add_argument("--csv-time", default=None, help="CSV time column")
    build.add_argument(
        "--kind", choices=("countmin", "ams"), default="countmin"
    )
    build.add_argument("--width", type=int, default=2048)
    build.add_argument("--depth", type=int, default=5)
    build.add_argument("--delta", type=float, default=50)
    build.add_argument("--seed", type=int, default=0)

    lint = sub.add_parser(
        "lint", help="run sketchlint, the sketch-invariant static analyzer"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/dirs (default: src)"
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint.add_argument(
        "--select", default=None, help="comma-separated rule codes"
    )
    lint.add_argument("--warn-only", action="store_true")
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="ratchet file: fail only on findings beyond the baseline",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline from current findings and exit 0",
    )
    lint.add_argument(
        "--stats", action="store_true", help="print analysis statistics"
    )
    lint.add_argument(
        "--time-budget", type=float, default=120.0, metavar="SECONDS",
        help="hard wall-clock budget (0 disables; default 120)",
    )
    lint.add_argument(
        "--cache", default=None, metavar="DIR",
        help="directory for the parsed-AST cache",
    )

    ingest = sub.add_parser(
        "ingest",
        help="crash-safe ingestion of a JSON-lines record file "
        "(WAL + checkpoints; see docs/robustness.md)",
    )
    ingest.add_argument("directory", help="runtime directory")
    ingest.add_argument("records", help="JSON-lines record file")
    ingest.add_argument(
        "--resume",
        action="store_true",
        help="recover the runtime directory and continue ingesting",
    )
    ingest.add_argument(
        "--create-stream",
        action="append",
        default=[],
        metavar="NAME:DELTA[:UNIVERSE]",
        help="declare a stream for a fresh runtime (repeatable; a "
        "universe enables heavy hitters and quantiles)",
    )
    ingest.add_argument("--checkpoint-every", type=int, default=1000)
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="N",
        help="frame WAL records and apply updates in chunks of N "
        "(one fsync per chunk; bit-identical state, batch-level acks; "
        "default 1: per-record acks)",
    )
    ingest.add_argument(
        "--on-malformed",
        choices=("raise", "skip", "quarantine"),
        default="quarantine",
    )
    ingest.add_argument(
        "--on-late",
        choices=("raise", "skip", "quarantine"),
        default="quarantine",
    )
    ingest.add_argument("--width", type=int, default=2048)
    ingest.add_argument("--depth", type=int, default=5)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--buffer-window",
        type=int,
        default=None,
        metavar="N",
        help="enable the two-stage update buffer: stage N records "
        "in front of the trackers before each bulk flush (records "
        "are WAL-durable before staging; exact mode is bit-identical)",
    )
    ingest.add_argument(
        "--buffer-mode",
        choices=("exact", "coalesce"),
        default="exact",
        help="with --buffer-window: 'exact' replays the staged tail "
        "verbatim; 'coalesce' merges same-item touches per window "
        "(faster on high-cardinality streams, widens mid-window "
        "history error by the absorbed window mass — see docs/api.md)",
    )

    recover = sub.add_parser(
        "recover",
        help="rebuild a crashed ingest runtime (checkpoint + WAL replay) "
        "and print its state",
    )
    recover.add_argument("directory", help="runtime directory")
    recover.add_argument(
        "--export", default=None, help="also save the recovered store here"
    )
    recover.add_argument(
        "--acknowledge-data-loss",
        action="store_true",
        help="accept any record loss the pre-recovery fsck quarantined "
        "and resume writable (otherwise the runtime recovers degraded "
        "read-only)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the sketch-serving daemon: JSON-lines protocol over "
        "TCP, frozen/live cutover reads, WAL-durable writes (see "
        "docs/serving.md)",
    )
    serve.add_argument("directory", help="runtime directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: bind an ephemeral port and print it)",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="recover the runtime directory instead of creating fresh",
    )
    serve.add_argument(
        "--create-stream",
        action="append",
        default=[],
        metavar="NAME:DELTA[:UNIVERSE]",
        help="declare a stream for a fresh runtime (repeatable; a "
        "universe enables heavy hitters and quantiles)",
    )
    serve.add_argument("--checkpoint-every", type=int, default=1000)
    serve.add_argument(
        "--freeze-every",
        type=int,
        default=None,
        metavar="N",
        help="re-freeze once the newest checkpoint is >= N records past "
        "the served view (default: every new checkpoint)",
    )
    serve.add_argument(
        "--freeze-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also re-freeze when the served view is older than this",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="cutover ticker period",
    )
    serve.add_argument(
        "--on-malformed",
        choices=("raise", "skip", "quarantine"),
        default="quarantine",
    )
    serve.add_argument(
        "--on-late",
        choices=("raise", "skip", "quarantine"),
        default="quarantine",
    )
    serve.add_argument("--width", type=int, default=2048)
    serve.add_argument("--depth", type=int, default=5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--buffer-window",
        type=int,
        default=None,
        metavar="N",
        help="enable the two-stage update buffer on the write path "
        "(checkpoint saves flush it, so cutover views stay complete)",
    )
    serve.add_argument(
        "--buffer-mode",
        choices=("exact", "coalesce"),
        default="exact",
        help="with --buffer-window: 'exact' is bit-identical, "
        "'coalesce' merges same-item touches per window (see "
        "docs/api.md for the widened mid-window bound)",
    )

    fsck = sub.add_parser(
        "fsck",
        help="durability scrub: re-verify every WAL frame, checkpoint "
        "and the CHECKPOINT pointer; classify damage and optionally "
        "repair (exit 0 clean, 1 damaged-but-recoverable, 2 "
        "unrecoverable)",
    )
    fsck.add_argument("directory", help="runtime directory")
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine corrupt segments/checkpoints, truncate torn "
        "tails and rewrite the pointer at the best intact checkpoint",
    )
    fsck.add_argument(
        "--json",
        action="store_true",
        help="emit the full machine-readable report instead of a summary",
    )

    query = sub.add_parser("query", help="query a sketch archive")
    query.add_argument("archive")
    query.add_argument("kind", choices=QUERY_KINDS)
    query.add_argument("--item", type=int, default=None)
    query.add_argument(
        "--items",
        default=None,
        metavar="A,B,C",
        help="comma-separated items for batched point queries",
    )
    query.add_argument("--s", type=float, default=0)
    query.add_argument("--t", type=float, default=None)
    query.add_argument("--phi", type=float, default=0.01)
    query.add_argument(
        "--frozen",
        action="store_true",
        help="compile the archive into a frozen columnar snapshot "
        "(repro.engine.frozen) and serve the query from it",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy shortcut: `repro fig3 --dataset X` without the subcommand.
    if argv and argv[0] in set(EXPERIMENTS) | {"all"}:
        argv = ["experiment"] + argv
    args = build_parser().parse_args(argv)
    if args.command == "experiment":
        return _run_experiments(args.experiment, args.dataset)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "build":
        return _cmd_build(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "query":
        return _cmd_query(args)
    raise SystemExit(2)  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":
    sys.exit(main())
