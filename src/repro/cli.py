"""Command-line interface: reproduce any figure from a terminal.

Examples::

    python -m repro.cli list
    python -m repro.cli fig5 --profile fast
    python -m repro.cli all --profile paper --output EXPERIMENTS.md
    python -m repro.cli fig5 --profile --metrics-out metrics.json
    python -m repro.cli bench
    python -m repro.cli bench --target stream --quick
    python -m repro.cli demo
    python -m repro.cli stream --requests 10000 --out run.jsonl \
        --trace run.trace.json --dashboard
    python -m repro.cli watch run.jsonl
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.profiles import get_profile
from repro.analysis.report import (
    EXPERIMENTS,
    build_experiments_markdown,
    run_all,
)

#: ``--profile`` with no value: keep the default experiment scale but turn
#: on phase profiling (print the span-hierarchy table after the run).
_PROFILE_BARE = "::phases::"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfv-multicast",
        description=(
            "Reproduce the evaluation of 'Approximation and Online "
            "Algorithms for NFV-Enabled Multicasting in SDNs' (ICDCS 2017)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant linter (see docs/STATIC_ANALYSIS.md)",
    )
    from repro.lint.cli import build_parser as _build_lint_parser

    _build_lint_parser(lint)

    demo = subparsers.add_parser(
        "demo", help="run a 30-second end-to-end demonstration"
    )
    demo.add_argument("--size", type=int, default=50, help="network size")
    demo.add_argument("--seed", type=int, default=7, help="RNG seed")

    bench = subparsers.add_parser(
        "bench",
        help="benchmarks (telemetry overhead, stream scale run)",
    )
    bench.add_argument(
        "--target",
        choices=("obs", "stream-obs", "stream"),
        default="obs",
        help=(
            "what to measure: 'obs' telemetry overhead (default), "
            "'stream-obs' the streaming run with histograms + emitter "
            "enabled (merges into BENCH_obs.json), 'stream' the "
            "StreamEngine scale run (throughput, RSS flatness, resume + "
            "shard differentials)"
        ),
    )
    bench.add_argument(
        "--output",
        default=None,
        help="artifact path (default: BENCH_<target>.json)",
    )
    bench.add_argument(
        "--requests", type=int, default=None,
        help=(
            "batch size for the obs target (default 40) or stream length "
            "for stream-obs (default 2000) and stream (default 1,000,000)"
        ),
    )
    bench.add_argument(
        "--rounds", type=int, default=None,
        help="timing rounds (default: 3)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller workloads for CI smoke runs (noisier numbers)",
    )

    stream = subparsers.add_parser(
        "stream",
        help=(
            "online run with the streaming telemetry emitter: JSONL delta "
            "snapshots, optional Chrome trace and live dashboard"
        ),
    )
    stream.add_argument(
        "--topology", default="GEANT",
        choices=("GEANT", "AS1755", "AS4755"),
        help="real topology to provision (default GEANT)",
    )
    stream.add_argument(
        "--requests", type=int, default=10_000,
        help="arrival count (default 10000)",
    )
    stream.add_argument(
        "--seed", type=int, default=20170605, help="workload seed"
    )
    stream.add_argument(
        "--every", type=int, default=1000,
        help="flush a delta snapshot every N requests (default 1000)",
    )
    stream.add_argument(
        "--every-seconds", type=float, default=None,
        help="also flush every T wall seconds",
    )
    stream.add_argument(
        "--out", default="stream.jsonl",
        help="JSONL delta-snapshot path (default stream.jsonl)",
    )
    stream.add_argument(
        "--prom", default=None, metavar="PATH",
        help="also keep a Prometheus scrape file refreshed per flush",
    )
    stream.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "record per-request spans and write a Chrome trace_event "
            "JSON file loadable in chrome://tracing / Perfetto"
        ),
    )
    stream.add_argument(
        "--dashboard", action="store_true",
        help="render the live ASCII dashboard after each flush",
    )
    stream.add_argument(
        "--workload", default=None, metavar="FAMILY",
        choices=("poisson", "diurnal", "flash-crowd", "pareto", "figure"),
        help=(
            "drive the StreamEngine with a generated arrival stream "
            "(poisson/diurnal/flash-crowd/pareto churn or the unit-spaced "
            "'figure' series) instead of the materialized replay; "
            "enables --checkpoint-every/--resume/--shards"
        ),
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help=(
            "write a resume checkpoint every N arrivals "
            "(to --checkpoint, default <out>.ckpt)"
        ),
    )
    stream.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="checkpoint path for --checkpoint-every",
    )
    stream.add_argument(
        "--resume", default=None, metavar="PATH",
        help=(
            "resume a killed run from a checkpoint file (topology, "
            "workload and seed come from the checkpoint)"
        ),
    )
    stream.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help=(
            "split the workload into S independent substreams (each its "
            "own network replica + derived seed) and merge in shard order"
        ),
    )
    stream.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "process count for --shards (default: REPRO_WORKERS env var, "
            "else the CPU count); the merged result is identical for "
            "every value"
        ),
    )

    watch = subparsers.add_parser(
        "watch",
        help="live ASCII dashboard over an emitter JSONL snapshot stream",
    )
    watch.add_argument("path", help="emitter JSONL file to tail")
    watch.add_argument(
        "--follow", action="store_true",
        help="keep polling for new payloads (Ctrl-C to stop)",
    )
    watch.add_argument(
        "--poll", type=float, default=0.5,
        help="poll interval in seconds with --follow (default 0.5)",
    )

    for name in list(EXPERIMENTS) + ["all"]:
        sub = subparsers.add_parser(
            name,
            help=(
                "run every experiment" if name == "all"
                else f"reproduce {name}"
            ),
        )
        sub.add_argument(
            "--profile",
            nargs="?",
            const=_PROFILE_BARE,
            default="fast",
            metavar="SCALE",
            help=(
                "with a value: experiment scale, 'fast' (default) or "
                "'paper'; with no value: keep the default scale and print "
                "a solver phase-breakdown table after the run"
            ),
        )
        sub.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help=(
                "write the telemetry snapshot as JSON to PATH and as "
                "Prometheus text format to PATH with a .prom extension"
            ),
        )
        sub.add_argument(
            "--output",
            default=None,
            help="also write results as markdown to this path",
        )
        sub.add_argument(
            "--json",
            default=None,
            help="also write results as JSON to this path",
        )
        sub.add_argument(
            "--chart",
            action="store_true",
            help="render each panel as an ASCII chart after its table",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help=(
                "process count for independent data points (default: "
                "REPRO_WORKERS env var, else the CPU count); results are "
                "identical for every value"
            ),
        )
    return parser


def _run_demo(size: int, seed: int) -> None:
    from repro import (
        OnlineCP,
        SPOnline,
        alg_one_server,
        appro_multi,
        build_sdn,
        generate_workload,
        gt_itm_flat,
    )
    from repro.stream import SequenceStream, StreamEngine

    graph = gt_itm_flat(size, seed=seed)
    network = build_sdn(graph, seed=seed)
    print(f"network: {network}")

    request = generate_workload(graph, count=1, dmax_ratio=0.1, seed=seed)[0]
    print(f"request: {request.describe()}")
    tree = appro_multi(network, request, max_servers=3)
    print(tree.describe())
    baseline = alg_one_server(network, request)
    print(
        f"Alg_One_Server cost: {baseline.total_cost:.3f} "
        f"(Appro_Multi saves "
        f"{100 * (1 - tree.total_cost / baseline.total_cost):.1f}%)"
    )

    requests = generate_workload(graph, count=100, seed=seed + 1)
    cp_stats = StreamEngine(
        OnlineCP(build_sdn(graph, seed=seed)), SequenceStream(requests)
    ).run()
    sp_stats = StreamEngine(
        SPOnline(build_sdn(graph, seed=seed)), SequenceStream(requests)
    ).run()
    print(
        f"online over {len(requests)} requests: "
        f"Online_CP admitted {cp_stats.admitted}, "
        f"SP admitted {sp_stats.admitted}"
    )


class _DashboardSink:
    """An emitter sink that redraws the live dashboard on every flush."""

    def __init__(self) -> None:
        from repro.obs.dashboard import DashboardState

        self.state = DashboardState()

    def emit(self, delta, cumulative) -> None:
        from repro.obs.dashboard import render

        self.state.consume(delta)
        print()
        print(render(self.state))


def _run_stream_engine(args) -> int:
    """``repro stream --workload …``: a generated-stream engine run.

    Generated arrival streams (no materialized request list), optional
    periodic checkpoints, kill-and-resume, and sharded execution.  These
    runs are clock-free, so their histograms compare bit for bit.
    """
    from repro import obs
    from repro.stream import (
        StreamRunConfig,
        build_engine,
        load_checkpoint,
        restore_into,
        run_sharded,
        save_checkpoint,
    )

    workload = args.workload or "poisson"
    if args.shards is not None and (
        args.resume is not None or args.checkpoint_every is not None
    ):
        print(
            "error: --shards cannot be combined with "
            "--checkpoint-every/--resume (shards are independent "
            "substreams; checkpoint each shard's run separately)",
            file=sys.stderr,
        )
        return 2

    obs.enable()
    obs.reset()
    try:
        if args.shards is not None:
            config = StreamRunConfig(
                topology=args.topology.lower(),
                workload=workload,
                seed=args.seed,
                requests=args.requests,
            )
            result = run_sharded(
                config, shards=args.shards, workers=args.workers
            )
            merged = result.merged
            print(
                f"stream {args.topology} [{workload}]: "
                f"{merged['processed']} requests across {args.shards} "
                f"shards, admitted {merged['admitted']}, "
                f"rejected {merged['rejected']}, "
                f"departed {merged['departed']}"
            )
            print(f"merged digest {merged['digest']}")
            return 0

        if args.resume is not None:
            document = load_checkpoint(args.resume)
            config = StreamRunConfig.from_dict(document.get("meta") or {})
        else:
            document = None
            config = StreamRunConfig(
                topology=args.topology.lower(),
                workload=workload,
                seed=args.seed,
                requests=args.requests,
            )

        checkpoint_path = args.checkpoint or (args.out + ".ckpt")

        def _checkpoint_sink(engine) -> None:
            save_checkpoint(checkpoint_path, engine, meta=config.as_dict())

        sinks = [obs.JsonlSink(args.out)]
        if args.prom:
            sinks.append(obs.PrometheusSink(args.prom))
        if args.dashboard:
            sinks.append(_DashboardSink())
        emitter = obs.SnapshotEmitter(
            every_requests=args.every,
            every_seconds=args.every_seconds,
            sinks=sinks,
            crash_dump_path=args.out + ".crash",
        )
        engine = build_engine(
            config,
            checkpoint_every=args.checkpoint_every,
            checkpoint_sink=(
                _checkpoint_sink
                if args.checkpoint_every is not None
                else None
            ),
            emitter=emitter,
        )
        if document is not None:
            restore_into(engine, document)
        log = obs.start_trace() if args.trace else None
        try:
            with emitter:
                stats = engine.run()
        finally:
            if log is not None:
                obs.stop_trace()
        if args.trace:
            obs.write_chrome_trace(log, args.trace)

        print(
            f"stream {config.topology} [{config.workload}]: "
            f"{stats.processed} requests, admitted {stats.admitted}, "
            f"rejected {stats.rejected}, departed {stats.departed}, "
            f"peak active {stats.peak_active}, {emitter.seq} snapshots"
        )
        print(f"digest {stats.digest}")
        print(f"wrote {args.out}")
        if args.prom:
            print(f"wrote {args.prom}")
        if args.trace:
            print(f"wrote {args.trace}")
        if args.checkpoint_every is not None:
            print(
                f"checkpointed to {checkpoint_path} "
                f"every {args.checkpoint_every} requests"
            )
        return 0
    finally:
        obs.disable()
        obs.reset()


def _run_stream(args) -> int:
    """``repro stream``: an emitter-instrumented figure-list replay."""
    if (
        args.workload is not None
        or args.resume is not None
        or args.shards is not None
        or args.checkpoint_every is not None
    ):
        return _run_stream_engine(args)

    import time

    from repro import obs
    from repro.analysis.common import (
        build_real_network,
        calibrated_online_cp,
        make_requests,
    )
    from repro.stream import SequenceStream, StreamEngine

    network = build_real_network(args.topology, args.seed)
    requests = make_requests(
        network.graph, args.requests, 0.2, args.seed + 1
    )
    algorithm = calibrated_online_cp(network)

    obs.enable()
    obs.reset()
    sinks = [obs.JsonlSink(args.out)]
    if args.prom:
        sinks.append(obs.PrometheusSink(args.prom))
    if args.dashboard:
        sinks.append(_DashboardSink())
    log = obs.start_trace() if args.trace else None
    try:
        with obs.SnapshotEmitter(
            every_requests=args.every,
            every_seconds=args.every_seconds,
            sinks=sinks,
            crash_dump_path=args.out + ".crash",
        ) as emitter:
            stats = StreamEngine(
                algorithm,
                SequenceStream(requests),
                emitter=emitter,
                clock=time.perf_counter,
            ).run()
    finally:
        if log is not None:
            obs.stop_trace()
    if args.trace:
        obs.write_chrome_trace(log, args.trace)
    obs.disable()
    obs.reset()

    print(
        f"stream {args.topology}: {len(requests)} requests, "
        f"admitted {stats.admitted}, rejected {stats.rejected}, "
        f"{emitter.seq} snapshots"
    )
    print(f"wrote {args.out}")
    if args.prom:
        print(f"wrote {args.prom}")
    if args.trace:
        print(f"wrote {args.trace}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(name)
        print("all")
        return 0

    if args.command == "lint":
        from repro.lint.cli import run as run_lint

        return run_lint(args)

    if args.command == "demo":
        _run_demo(args.size, args.seed)
        return 0

    if args.command == "bench":
        from repro.obs import bench

        # stream-obs merges its section into the obs target's artifact
        output = args.output or (
            "BENCH_obs.json"
            if args.target == "stream-obs"
            else f"BENCH_{args.target}.json"
        )
        if args.target == "obs":
            payload = bench.run_obs_benchmark(
                output_path=output,
                requests=args.requests or bench.DEFAULT_REQUESTS,
                rounds=args.rounds or bench.DEFAULT_ROUNDS,
            )
            lines = bench.render_bench_summary(payload)
        elif args.target == "stream":
            from repro.stream import bench as stream_bench

            payload = stream_bench.run_stream_scale_benchmark(
                output_path=output,
                requests=args.requests,
                quick=args.quick,
            )
            lines = stream_bench.render_stream_scale_summary(payload)
        else:
            payload = bench.run_stream_benchmark(
                output_path=output,
                requests=args.requests or bench.DEFAULT_STREAM_REQUESTS,
                rounds=args.rounds or bench.DEFAULT_ROUNDS,
                quick=args.quick,
            )
            lines = bench.render_stream_summary(payload)
        for line in lines:
            print(line)
        print(f"wrote {output}")
        return 0

    if args.command == "stream":
        return _run_stream(args)

    if args.command == "watch":
        from repro.obs.dashboard import watch as watch_stream

        watch_stream(args.path, follow=args.follow, poll_seconds=args.poll)
        return 0

    if getattr(args, "workers", None) is not None:
        from repro.simulation import set_default_workers

        try:
            set_default_workers(args.workers)
        except ValueError as exc:
            print(f"error: --workers: {exc}", file=sys.stderr)
            return 2

    profile_arg = getattr(args, "profile", "fast")
    show_phases = profile_arg == _PROFILE_BARE
    metrics_out = getattr(args, "metrics_out", None)
    collect_metrics = show_phases or metrics_out is not None
    if collect_metrics:
        from repro import obs

        obs.enable()
        obs.reset()

    profile = get_profile("fast" if show_phases else profile_arg)
    names = None if args.command == "all" else [args.command]
    results = run_all(profile, names=names)

    from repro.analysis.verdicts import render_verdicts, verify_results

    print(render_verdicts(verify_results(results)))
    print()
    if args.chart:
        from repro.analysis.ascii_plot import render_chart

        for panels in results.values():
            for panel in panels:
                print(render_chart(panel))
                print()
    if args.output:
        markdown = build_experiments_markdown(results, profile)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote {args.output}")
    if args.json:
        from repro.analysis.export import write_json

        write_json(results, args.json)
        print(f"wrote {args.json}")
    if collect_metrics:
        from repro import obs
        from repro.obs.export import (
            render_phase_table,
            write_json as write_metrics_json,
            write_prometheus,
        )

        snap = obs.snapshot()
        if show_phases:
            print()
            print(render_phase_table(snap))
        if metrics_out:
            write_metrics_json(snap, metrics_out)
            prom_path = os.path.splitext(metrics_out)[0] + ".prom"
            write_prometheus(snap, prom_path)
            print(f"wrote {metrics_out}")
            print(f"wrote {prom_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
