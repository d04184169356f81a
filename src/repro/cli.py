"""Command-line interface: ``python -m repro <command>``.

Self-contained utilities that do not require the repository checkout:

* ``info``      — version and subsystem inventory;
* ``zipf``      — print the Figure 2 coverage curve for chosen parameters;
* ``partition`` — read intervals ("lo hi" per line) from a file or stdin
  and print their canonical stabbing partition and hotspots;
* ``fuzz``      — differential fuzzing of every maintained structure against
  brute-force oracles (``repro.check``), with delta-debugging shrinkage of
  failures into replayable JSON reproducers;
* ``replay``    — generate a deterministic mixed event stream and replay it
  through the sharded+batched runtime pipeline, asserting result-delta
  equivalence against the unsharded system and reporting throughput;
* ``serve``     — run the runtime pipeline as a long-lived loop over a
  synthetic stream, printing periodic metric snapshots; with ``--wal-dir``
  every event is write-ahead logged and checkpointed so an interrupted
  serve resumes where it stopped (Ctrl-C drains cleanly); ``--trace-out``
  records tracing spans to a Chrome trace, ``--metrics-port`` serves live
  Prometheus/JSON metrics, ``--snapshot-out`` appends JSONL snapshots;
* ``stats``     — render a metric snapshot from a ``--snapshot-out`` JSONL
  stream or a live ``--metrics-port`` endpoint (text, Prometheus, or JSON);
  ``--watch SECONDS`` re-renders on an interval like ``watch(1)``;
* ``top``       — a refreshing terminal dashboard over the same sources:
  throughput, end-to-end latency quantiles, hotspot churn, and a per-shard
  table (events, lag p95, ring occupancy, headroom);
* ``recover``   — rebuild an inline pipeline from a WAL directory (newest
  valid checkpoint + sequence-deduped WAL replay) and report what was
  restored.

Figure regeneration itself lives in ``benchmarks/`` (run with
``pytest benchmarks/ --benchmark-only`` from a checkout).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__
from repro.core.intervals import Interval
from repro.core.stabbing import canonical_stabbing_partition


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — Scalable Continuous Query Processing by Tracking Hotspots (VLDB 2006)")
    print("subsystems:")
    for name, what in [
        ("repro.core", "stabbing partitions, dynamic maintenance, hotspot tracking, SSI"),
        ("repro.dstruct", "B+ tree, R-tree, interval tree, treap"),
        ("repro.engine", "relations, query model, ContinuousQuerySystem facade"),
        ("repro.operators", "BJ-*/SJ-* strategies, hotspot processing, extensions"),
        ("repro.histogram", "EQW-HIST, SSI-HIST, OPTIMAL"),
        ("repro.workload", "Table 1 generators, Zipf popularity"),
        ("repro.fastpath", "columnar batch probes: flat snapshots, vectorized sort-merge kernels"),
        ("repro.runtime", "sharded micro-batched pipeline: routing, batches, metrics, replay"),
        ("repro.check", "differential fuzzing: brute-force oracles, invariant probes, shrinking"),
        ("repro.wire", "the one binary layer under WAL records and shard frames: record table, rows, bounds-checked reader"),
        ("repro.durability", "write-ahead log, checkpoints, crash recovery (serve --wal-dir, recover)"),
        ("repro.obs", "tracing spans, Prometheus/JSONL export, cross-process telemetry merge, dashboards (serve --trace-out, stats, top)"),
        ("repro.analysis", _analysis_summary()),
        ("repro.bench", "figure-shape library for benchmarks/: Series, measure_*, assert_*, print_figure"),
    ]:
        print(f"  {name:<16} {what}")
    return 0


def _analysis_summary() -> str:
    from repro.analysis import rule_catalog

    return (
        "project-aware static analysis: invariant lint engine "
        f"({len(rule_catalog())} rules), typing gate"
    )


def _cmd_zipf(args: argparse.Namespace) -> int:
    from repro.workload.zipf import coverage_curve

    tops = sorted({min(k, args.groups) for k in args.top})
    print(f"coverage of top-k of {args.groups} Zipf(beta={args.beta}) groups:")
    for k, coverage in zip(tops, coverage_curve(args.groups, args.beta, tops)):
        print(f"  top-{k:<6} {coverage:7.1%}")
    return 0


def _read_intervals(path: Optional[str]) -> List[Interval]:
    stream = sys.stdin if path in (None, "-") else open(path)
    intervals = []
    try:
        for line_no, line in enumerate(stream, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit(f"line {line_no}: expected 'lo hi', got {line!r}")
            intervals.append(Interval(float(parts[0]), float(parts[1])))
    finally:
        if stream is not sys.stdin:
            stream.close()
    return intervals


def _cmd_partition(args: argparse.Namespace) -> int:
    intervals = _read_intervals(args.file)
    if not intervals:
        print("no intervals read", file=sys.stderr)
        return 1
    partition = canonical_stabbing_partition(intervals)
    print(f"{len(intervals)} intervals -> tau = {partition.size} stabbing groups")
    hotspots = partition.hotspots(args.alpha)
    for rank, group in enumerate(
        sorted(partition.groups, key=lambda g: -g.size), start=1
    ):
        tag = "HOTSPOT" if group in hotspots else "       "
        print(
            f"  #{rank:<3} {tag} size={group.size:<6} "
            f"stab point={group.stabbing_point:g} common={group.common}"
        )
    covered = sum(group.size for group in hotspots) / len(intervals)
    print(f"{len(hotspots)} alpha={args.alpha:g} hotspots cover {covered:.0%} of intervals")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check import (
        DEFAULT_TARGETS,
        FuzzConfig,
        fuzz,
        replay_reproducer,
        save_reproducer,
    )

    targets = (
        [name.strip() for name in args.targets.split(",") if name.strip()]
        if args.targets
        else list(DEFAULT_TARGETS)
    )

    if args.replay:
        outcome = replay_reproducer(args.replay)
        if outcome.ok:
            print(
                f"replay: {args.replay} no longer diverges "
                f"({outcome.ops_applied} ops, {outcome.check_rounds} check rounds)"
            )
            return 0
        record = outcome.divergence
        print(f"replay: diverged at op {record.op_index}: {record.message}")
        return 1

    print(
        f"fuzzing {args.ops} ops (seed={args.seed}) against "
        f"{', '.join(targets)}; invariant sweep every {args.check_every} ops"
    )
    report = fuzz(
        FuzzConfig(seed=args.seed, n_ops=args.ops),
        targets=targets,
        check_every=args.check_every,
        shrink=args.shrink,
    )
    if report.ok:
        print(
            f"fuzz: {report.outcome.ops_applied} ops applied, "
            f"{report.outcome.check_rounds} invariant sweeps, zero divergences"
        )
        return 0
    record = report.outcome.divergence
    print(f"fuzz: DIVERGENCE at op {record.op_index}: {record.message}", file=sys.stderr)
    if report.shrunk_ops is not None:
        print(
            f"shrunk to {len(report.shrunk_ops)} op(s): "
            f"{report.shrunk_divergence.message}",
            file=sys.stderr,
        )
    save_reproducer(args.out, report.reproducer())
    print(f"reproducer written to {args.out} (replay with: repro fuzz --replay {args.out})")
    return 1


def _stream_profile_from_args(args: argparse.Namespace):
    from repro.runtime.replay import StreamProfile

    return StreamProfile(
        n_events=args.events,
        n_initial_queries=args.queries,
        band_fraction=args.band_fraction,
        delete_fraction=args.delete_fraction,
        churn=args.churn,
        seed=args.seed,
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    import time

    from repro.engine.events import DataEvent
    from repro.runtime.replay import generate_mixed_stream, run_replay

    stream = generate_mixed_stream(_stream_profile_from_args(args))
    data_events = sum(isinstance(e, DataEvent) for e in stream)
    print(
        f"replaying {data_events} data events / "
        f"{len(stream) - data_events} query events, "
        f"batch={args.batch_size}, mode={args.mode}"
    )
    start = time.perf_counter()
    report = run_replay(
        stream,
        num_shards=args.shards,
        batch_size=args.batch_size,
        alpha=args.alpha,
        mode=args.mode,
    )
    elapsed = time.perf_counter() - start
    print(report.summary())
    print(f"both passes took {elapsed:.2f}s total")
    stats = report.router_stats
    print(
        f"router: {stats['num_shards']} shard(s), "
        f"select queries/shard {stats['select_queries_per_shard']}, "
        f"band queries/shard {stats['band_queries_per_shard']}, "
        f"S-probe imbalance {stats['select_probe_imbalance']:.2f}"
    )
    if args.verbose:
        for name, value in report.metrics["counters"].items():
            print(f"  {name:<32} {value:>12,}")
    if not report.equivalent:
        for line in report.mismatches[:10]:
            print(f"MISMATCH {line}", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time
    from pathlib import Path

    from repro.engine.events import DataEvent
    from repro.obs.export import MetricsServer, SnapshotWriter, render_snapshot
    from repro.obs.tracing import NULL_TRACER, RingTracer, write_chrome_trace
    from repro.runtime.metrics import MetricsRegistry
    from repro.runtime.pipeline import EventPipeline
    from repro.runtime.replay import generate_mixed_stream

    metrics = MetricsRegistry()
    want_tracing = args.trace_out is not None or args.metrics_port is not None
    tracer = RingTracer() if want_tracing else NULL_TRACER
    durability = None
    if args.wal_dir is not None:
        from repro.durability import DurabilityManager

        durability = DurabilityManager(
            Path(args.wal_dir),
            fsync=args.fsync,
            checkpoint_every=args.checkpoint_every or None,
            metrics=metrics,
            tracer=tracer,
        )
    pipeline = EventPipeline(
        num_shards=args.shards,
        alpha=args.alpha,
        batch_size=args.batch_size,
        mode=args.mode,
        metrics=metrics,
        durability=durability,
        tracer=tracer,
    )
    snapshots = (
        SnapshotWriter(args.snapshot_out, max_bytes=args.snapshot_max_bytes)
        if args.snapshot_out
        else None
    )
    server = None
    if args.metrics_port is not None:
        server = MetricsServer(
            metrics,
            port=args.metrics_port,
            tracer=tracer if isinstance(tracer, RingTracer) else None,
        )
        print(f"metrics server listening on {server.url} (/metrics, /metrics.json, /trace.json)")
    resume_at = 0
    if durability is not None:
        report = durability.attach(pipeline)
        print(report.summary())
        resume_at = report.next_seq
    stream = generate_mixed_stream(_stream_profile_from_args(args))
    if resume_at:
        print(f"resuming the deterministic stream at event {resume_at}/{len(stream)}")
    print(
        f"serving {args.events} synthetic events on "
        f"{pipeline.router.num_shards} shard(s) "
        f"(batch={args.batch_size}, mode={args.mode}); "
        f"reporting every {args.report_every} events"
    )

    def publish() -> Dict[str, Dict[str, Any]]:
        """One snapshot per interval, for the JSONL stream, the console
        and the metrics server alike.  Sampling sets the obs/ gauges, so
        it runs before the snapshot."""
        pipeline.sample_hotspots()
        snapshot = metrics.snapshot()
        traced = isinstance(tracer, RingTracer)
        if snapshots is not None:
            extra = None
            if traced:
                extra = {"spans_recorded": tracer.recorded, "spans_dropped": tracer.dropped}
            snapshots.write(snapshot, extra)
        if server is not None:
            server.publish(snapshot, tracer.export_copy() if traced else None)
        return snapshot

    start = time.perf_counter()
    served = 0
    interrupted = False
    try:
        try:
            for event in stream[resume_at:]:
                pipeline.submit(event)
                if isinstance(event, DataEvent):
                    served += 1
                    if served % args.report_every == 0:
                        rate = served / max(time.perf_counter() - start, 1e-9)
                        snapshot = publish()
                        print(f"\n-- {served} events ({rate:,.0f} events/s) --")
                        print(render_snapshot(snapshot))
            pipeline.drain()
        except KeyboardInterrupt:
            # Clean shutdown: drain what was accepted (close() below also
            # syncs the WAL), report, and exit 0 — a durable serve resumes
            # from here on the next run.
            interrupted = True
            print("\ninterrupted — draining pending events", file=sys.stderr)
            pipeline.drain()
    finally:
        pipeline.close()
        if server is not None:
            server.close()
    snapshot = publish()
    elapsed = max(time.perf_counter() - start, 1e-9)
    state = "interrupted after" if interrupted else "served"
    print(f"\n{state} {served} events in {elapsed:.2f}s ({served / elapsed:,.0f} events/s)")
    print(render_snapshot(snapshot))
    if args.trace_out is not None and isinstance(tracer, RingTracer):
        written = write_chrome_trace(args.trace_out, tracer)
        print(
            f"trace written to {args.trace_out} "
            f"({written} span(s), {tracer.dropped} dropped)"
        )
    if snapshots is not None:
        print(f"metric snapshots written to {args.snapshot_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import top as obs_top
    from repro.obs.export import read_snapshots, render_prometheus, render_snapshot

    if (args.jsonl is None) == (args.url is None):
        print("stats: exactly one of --jsonl or --url is required", file=sys.stderr)
        return 2
    source = args.jsonl if args.jsonl is not None else args.url
    fetch = _record_fetcher(args)
    if args.watch is not None:
        if args.format != "text":
            print("stats: --watch implies --format text", file=sys.stderr)
            return 2
        if args.seq is not None:
            print("stats: --watch cannot be combined with --seq", file=sys.stderr)
            return 2

        def render_stats(record, previous):
            header = f"snapshot seq={record['seq']}" if "seq" in record else "live"
            return header + "\n" + render_snapshot(record["metrics"])

        obs_top.watch(
            fetch,
            render_stats,
            interval=args.watch,
            iterations=args.iterations,
        )
        return 0
    try:
        if args.seq is None or args.jsonl is None:
            record = fetch()
        else:
            matches = [
                r for r in read_snapshots(args.jsonl) if r.get("seq") == args.seq
            ]
            if not matches:
                print(f"stats: no snapshot with seq={args.seq}", file=sys.stderr)
                return 1
            record = matches[-1]
    except (OSError, ValueError) as exc:
        print(f"stats: {source}: {exc}", file=sys.stderr)
        return 1
    snapshot = record["metrics"]
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    elif args.format == "prom":
        sys.stdout.write(render_prometheus(snapshot))
    else:
        print(
            f"snapshot seq={record.get('seq', '-')} "
            f"uptime={record.get('uptime_us', 0) / 1e6:.1f}s from {source}"
        )
        print(render_snapshot(snapshot))
    return 0


def _record_fetcher(args: argparse.Namespace):
    """The newest record of ``--jsonl`` or of the server at ``--url``."""
    from repro.obs import top as obs_top

    if args.jsonl is not None:
        return lambda: obs_top.fetch_record_from_jsonl(args.jsonl)
    return lambda: obs_top.fetch_record_from_url(args.url)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import top as obs_top

    if (args.jsonl is None) == (args.url is None):
        print("top: exactly one of --jsonl or --url is required", file=sys.stderr)
        return 2
    obs_top.watch(
        _record_fetcher(args),
        obs_top.render_dashboard,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.durability import DurabilityError, recover_system

    try:
        pipeline, report = recover_system(
            Path(args.wal_dir),
            alpha=args.alpha,
            epsilon=args.epsilon,
        )
    except DurabilityError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 1
    print(report.summary())
    for name in report.skipped_checkpoints:
        print(f"  skipped invalid checkpoint: {name}", file=sys.stderr)
    tables = pipeline.shard_group
    print(
        f"recovered state: {len(tables.table_r)} R row(s), "
        f"{len(tables.table_s)} S row(s), "
        f"{pipeline.subscription_count} subscription(s)"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        all_rules,
        lint_paths,
        render_catalog,
        render_human,
        render_json,
    )
    from repro.analysis.engine import iter_python_files

    if args.list_rules:
        print(render_catalog("json" if args.format == "json" else "human"))
        return 0

    root = Path(args.root).resolve()
    raw_paths = args.paths or ["src/repro"]
    paths = [Path(p) if Path(p).is_absolute() else root / p for p in raw_paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2

    select = args.select.split(",") if args.select else None
    try:
        rules = all_rules(select)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    findings = lint_paths(paths, root, rules)
    files_checked = sum(1 for _ in iter_python_files(paths))

    if args.format == "json":
        print(render_json(findings, files_checked))
    else:
        print(render_human(findings))
    return 1 if findings else 0


def _int_in(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an int in ``[lo, hi]``, or a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_positive_int = _int_in(1)


def _add_runtime_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--events", type=int, default=5_000, help="data events to generate")
    parser.add_argument("--queries", type=int, default=200, help="initial subscriptions")
    parser.add_argument(
        "--shards", type=_positive_int, default=4,
        help="process-shm processes, one shard each (inline builds one shard)",
    )
    parser.add_argument("--batch-size", type=_positive_int, default=64)
    parser.add_argument("--alpha", type=float, default=0.01, help="hotspot threshold")
    parser.add_argument("--band-fraction", type=float, default=0.3,
                        help="fraction of subscriptions that are band joins")
    parser.add_argument("--delete-fraction", type=float, default=0.2)
    parser.add_argument("--churn", type=float, default=0.0,
                        help="fraction of deletions targeting just-inserted rows "
                             "(a row inserted and deleted in one batch)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode",
        choices=["inline", "process-shm"],
        default="inline",
    )


class _FuzzHelpFormatter(argparse.HelpFormatter):
    """Names the fuzz targets from the registry in ``--targets``' help.
    The registry loads the whole engine, so it is imported only when the
    help is printed, not for every verb."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest != "targets":
            return action.help
        from repro.check import DEFAULT_TARGETS, TARGET_FACTORIES

        opt_in = [name for name in TARGET_FACTORIES if name not in DEFAULT_TARGETS]
        return (
            f"{action.help} (default: all of {', '.join(DEFAULT_TARGETS)}; "
            f"opt-in: {', '.join(opt_in)})"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Hotspot-tracking continuous query processing (VLDB 2006 reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and subsystem inventory").set_defaults(func=_cmd_info)

    zipf = sub.add_parser("zipf", help="Figure 2 coverage curve")
    zipf.add_argument("--groups", type=int, default=5000)
    zipf.add_argument("--beta", type=float, default=1.0)
    zipf.add_argument("--top", type=int, nargs="+", default=[10, 50, 100, 500, 1000, 5000])
    zipf.set_defaults(func=_cmd_zipf)

    part = sub.add_parser("partition", help="stabbing-partition a file of intervals")
    part.add_argument("file", nargs="?", default="-", help="file with 'lo hi' lines (default: stdin)")
    part.add_argument("--alpha", type=float, default=0.1, help="hotspot threshold")
    part.set_defaults(func=_cmd_partition)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: run randomized ops against every target "
        "with brute-force oracles, shrinking any divergence to a minimal "
        "reproducer",
        formatter_class=_FuzzHelpFormatter,
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--ops", type=int, default=2_000, help="ops to generate")
    fuzz.add_argument(
        "--targets",
        default=None,
        help="comma-separated target subset",  # completed by _FuzzHelpFormatter
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug a failing sequence to a minimal reproducer",
    )
    fuzz.add_argument(
        "--check-every",
        type=int,
        default=32,
        help="ops between full invariant sweeps (per-op checks always run)",
    )
    fuzz.add_argument(
        "--out", default="fuzz-reproducer.json", help="reproducer output path"
    )
    fuzz.add_argument(
        "--replay", metavar="FILE", default=None,
        help="re-run a saved reproducer instead of fuzzing",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    replay = sub.add_parser(
        "replay", help="replay a mixed stream through the sharded runtime and verify equivalence"
    )
    _add_runtime_args(replay)
    replay.add_argument("--verbose", action="store_true", help="print pipeline counters")
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve", help="run the runtime pipeline over a synthetic stream with periodic metrics"
    )
    _add_runtime_args(serve)
    serve.add_argument("--report-every", type=_positive_int, default=2_000)
    serve.add_argument(
        "--wal-dir", default=None, metavar="DIR",
        help="write-ahead log directory: log every event before applying it "
        "and recover/resume from this directory on startup",
    )
    serve.add_argument(
        "--checkpoint-every", type=_int_in(0), default=5_000, metavar="N",
        help="events between checkpoints when --wal-dir is set (0 disables)",
    )
    serve.add_argument(
        "--fsync", choices=["always", "batch", "never"], default="batch",
        help="WAL fsync policy: per append, per micro-batch, or OS-buffered",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record tracing spans and write a Chrome trace_event JSON file "
        "on exit (load in chrome://tracing or Perfetto)",
    )
    serve.add_argument(
        "--metrics-port", type=_int_in(0, 65_535), default=None, metavar="PORT",
        help="serve live metrics over HTTP on this port (0 = ephemeral): "
        "/metrics (Prometheus), /metrics.json, /trace.json",
    )
    serve.add_argument(
        "--snapshot-out", default=None, metavar="FILE",
        help="append a JSONL metric snapshot every --report-every events "
        "(read back with: repro stats --jsonl FILE)",
    )
    serve.add_argument(
        "--snapshot-max-bytes", type=_positive_int, default=None, metavar="BYTES",
        help="rotate --snapshot-out once it exceeds this size (the previous "
        "generation is kept at FILE.1; readers see both)",
    )
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="render a metric snapshot: the latest record of a serve "
        "--snapshot-out JSONL stream, or a live --metrics-port endpoint",
    )
    stats.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="JSONL snapshot stream written by serve --snapshot-out",
    )
    stats.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a serve --metrics-port endpoint (e.g. http://127.0.0.1:9090)",
    )
    stats.add_argument(
        "--seq", type=int, default=None,
        help="pick this snapshot seq from --jsonl instead of the latest",
    )
    stats.add_argument(
        "--format", choices=["text", "prom", "json"], default="text",
        help="text table (default), Prometheus exposition, or raw JSON",
    )
    stats.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render the text snapshot on this interval (Ctrl-C to stop)",
    )
    stats.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="with --watch: stop after N frames (default: run until Ctrl-C)",
    )
    stats.set_defaults(func=_cmd_stats)

    top = sub.add_parser(
        "top",
        help="refreshing terminal dashboard: throughput, e2e latency "
        "quantiles, hotspot churn, and a per-shard table, from a serve "
        "--snapshot-out stream or --metrics-port endpoint",
    )
    top.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="JSONL snapshot stream written by serve --snapshot-out",
    )
    top.add_argument(
        "--url", default=None, metavar="URL",
        help="base URL of a serve --metrics-port endpoint",
    )
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS")
    top.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs/pipes)",
    )
    top.set_defaults(func=_cmd_top)

    recover = sub.add_parser(
        "recover",
        help="rebuild an inline pipeline from a WAL directory and report the "
        "restored state (checkpoint + sequence-deduped WAL replay)",
    )
    recover.add_argument(
        "--wal-dir", required=True, metavar="DIR",
        help="durability directory written by serve --wal-dir",
    )
    recover.add_argument(
        "--alpha", type=float, default=0.01,
        help="hotspot threshold when no checkpoint records one",
    )
    recover.add_argument(
        "--epsilon", type=float, default=1.0,
        help="SSI epsilon when no checkpoint records one",
    )
    recover.set_defaults(func=_cmd_recover)

    lint = sub.add_parser(
        "lint",
        help="project-aware static analysis: invariant rules RA001, RA002 and "
        "RA004-RA006 and hygiene rules, with noqa suppression; exits 1 on "
        "any finding",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro under --root)",
    )
    lint.add_argument("--root", default=".", help="repository root for relative paths")
    lint.add_argument("--format", choices=["human", "json"], default="human")
    lint.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    lint.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
