"""The consolidated command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro experiments fig4 --quick      # the figure harness
    python -m repro fuzz --trials 100             # differential fuzzing
    python -m repro pipeline --theta 0.75 --rate 30 --observe
    python -m repro pipeline --engine audited      # optimized + invariant auditors
    python -m repro pipeline --shards 4 --jobs 4   # sharded scale-out
    python -m repro pipeline --surrogate --quick   # analytical screen + top-K DES
    python -m repro serve --epochs 12 --elastic --slo 0.05 --drift release:3
    python -m repro serve --shards 2 --jobs 2
    python -m repro observe-report trace.jsonl --chart

``experiments`` and ``fuzz`` delegate verbatim to the underlying
drivers (``python -m repro.experiments`` / ``python -m
repro.verify.fuzz``), which keep working unchanged.  ``pipeline`` runs the
:func:`repro.pipeline.solve` facade for one design point, optionally
instrumented; ``observe-report`` renders a trace JSONL written with
``--trace-out`` (or :meth:`repro.observe.Observer.export_jsonl`).
``--engine``, ``--shards``, ``--jobs`` and ``--observe`` mean the same
thing on ``pipeline`` and ``serve``.
"""

from __future__ import annotations

import argparse
import sys


def _shared_sim_flags(parser) -> None:
    """Flags whose meaning is identical across ``pipeline`` and ``serve``."""
    from .cluster_sim import DEFAULT_ENGINE, ENGINES

    parser.add_argument(
        "--engine",
        default=DEFAULT_ENGINE,
        choices=tuple(ENGINES),
        help=(
            "lockstep simulation engine: vector (numpy event-batch core, "
            "default; hands what it cannot batch to optimized), optimized "
            "(tuple-heap loop), reference (readable oracle), audited "
            "(optimized + invariant auditors); all engines produce "
            "identical results"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "split each simulated run into K deterministic arrival-stream "
            "shards and merge the per-shard results (weak scaling; "
            "1 = unsharded)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation stage (1 = in-process)",
    )
    parser.add_argument(
        "--observe",
        action="store_true",
        help="instrument the run (metrics + traces); implied by --trace-out",
    )


def _pipeline_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "pipeline",
        help="run the replicate->place->simulate facade for one design point",
    )
    parser.add_argument("--theta", type=float, default=0.75, help="Zipf skew")
    parser.add_argument(
        "--degree", type=float, default=1.2, help="replication degree"
    )
    parser.add_argument(
        "--rate", type=float, default=30.0, help="arrival rate (requests/min)"
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="simulation runs (default: setup's)"
    )
    from .pipeline import PLACERS, REPLICATORS

    parser.add_argument(
        "--replicator",
        default="zipf",
        choices=tuple(REPLICATORS),
    )
    parser.add_argument(
        "--placer", default="slf", choices=tuple(PLACERS)
    )
    parser.add_argument(
        "--dispatcher",
        default="static_rr",
        choices=("static_rr", "least_loaded", "first_fit"),
    )
    parser.add_argument(
        "--backbone-mbps", type=float, default=0.0, help="redirection backbone"
    )
    parser.add_argument(
        "--failures",
        default=None,
        metavar="SPEC",
        help=(
            "chaos recipe 'kind:key=value,...' — kinds: single "
            "(t,server,down), random (mtbf,mttr), correlated "
            "(groups,mtbf,mttr), mtbf (mtbf,mttr); e.g. "
            "'single:t=30,server=0,down=15'"
        ),
    )
    parser.add_argument(
        "--failover",
        action="store_true",
        help="failover dispatch with retry/backoff for failure-hit requests",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, help="failover retry budget"
    )
    parser.add_argument(
        "--rereplicate",
        action="store_true",
        help="restore lost replicas on repair over the migration network",
    )
    parser.add_argument(
        "--migration-mbps",
        type=float,
        default=1000.0,
        help="re-replication bandwidth cap",
    )
    _shared_sim_flags(parser)
    parser.add_argument(
        "--refine", action="store_true", help="hill-climb the placement"
    )
    parser.add_argument(
        "--anneal", action="store_true", help="SA over scalable bit rates"
    )
    parser.add_argument(
        "--surrogate",
        action="store_true",
        help=(
            "surrogate-guided sweep: screen candidate layouts with the "
            "analytical Erlang fixed point, DES-simulate only the top-K"
        ),
    )
    parser.add_argument(
        "--screen-candidates",
        type=int,
        default=24,
        help="candidate layouts scored by the surrogate screen",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=3,
        help="screen survivors that get DES confirmation",
    )
    parser.add_argument(
        "--screen-seed",
        type=int,
        default=0,
        help="seed for the screen's random candidate layouts",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced run count (3)"
    )
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="simulated minutes between utilization samples",
    )
    parser.add_argument(
        "--trace-events",
        action="store_true",
        help="record sampled arrival/departure events in the trace",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the observation as JSONL (implies --observe)",
    )


def _serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the online serving control plane (epoch loop with drift "
        "re-optimization and SLO elasticity)",
    )
    parser.add_argument(
        "--epochs", type=int, default=8, help="epochs to serve"
    )
    parser.add_argument(
        "--epoch-minutes",
        type=float,
        default=None,
        help="epoch length (default: the setup's peak window)",
    )
    parser.add_argument("--theta", type=float, default=0.75, help="Zipf skew")
    parser.add_argument(
        "--degree", type=float, default=1.2, help="replication degree"
    )
    parser.add_argument(
        "--base-rate", type=float, default=15.0, help="off-peak requests/min"
    )
    parser.add_argument(
        "--peak-rate", type=float, default=30.0, help="diurnal peak requests/min"
    )
    parser.add_argument(
        "--day-epochs", type=int, default=4, help="epochs per diurnal day"
    )
    parser.add_argument(
        "--flash-epochs",
        default=None,
        metavar="E1,E2,...",
        help="epochs hit by a flash-crowd spike (comma-separated)",
    )
    parser.add_argument(
        "--flash-multiplier",
        type=float,
        default=2.0,
        help="rate multiplier during a flash crowd",
    )
    parser.add_argument(
        "--drift",
        default=None,
        metavar="SPEC",
        help="popularity drift: none | rankswap:K | release:K | lognormal:S",
    )
    parser.add_argument(
        "--replan",
        default="drift",
        choices=("drift", "always", "never"),
        help="re-planning policy (drift = on detector trigger)",
    )
    parser.add_argument(
        "--drift-threshold",
        type=float,
        default=0.10,
        help="total-variation drift threshold for replan=drift",
    )
    parser.add_argument(
        "--move-budget",
        type=int,
        default=None,
        help="max replicas copied per re-plan (default: unlimited)",
    )
    parser.add_argument(
        "--screen",
        action="store_true",
        help="surrogate-screen each migration against the incumbent",
    )
    parser.add_argument(
        "--anneal-polish",
        action="store_true",
        help="warm-start SA polish of each migrated layout",
    )
    parser.add_argument(
        "--elastic",
        action="store_true",
        help="add/drain servers on sustained SLO breach/calm",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=0.05,
        help="SLO rejection-rate target",
    )
    parser.add_argument(
        "--max-servers",
        type=int,
        default=None,
        help="elastic ceiling (default: 2x the setup)",
    )
    parser.add_argument(
        "--dispatcher",
        default="static_rr",
        choices=("static_rr", "least_loaded", "first_fit"),
    )
    parser.add_argument(
        "--backbone-mbps", type=float, default=0.0, help="redirection backbone"
    )
    parser.add_argument(
        "--failures",
        default=None,
        metavar="SPEC",
        help="per-epoch chaos recipe (same grammar as pipeline --failures)",
    )
    parser.add_argument(
        "--failover",
        action="store_true",
        help="failover dispatch for failure-hit requests",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the setup seed"
    )
    parser.add_argument(
        "--quick", action="store_true", help="scaled-down setup (50x4)"
    )
    _shared_sim_flags(parser)
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the observation as JSONL (implies --observe)",
    )


def _cmd_serve(args) -> int:
    from .cluster_sim import FailoverPolicy
    from .experiments.config import PaperSetup
    from .serving import ServingConfig, ServingControlPlane

    setup = PaperSetup()
    if args.quick:
        setup = setup.scaled_down()
    flash = ()
    if args.flash_epochs:
        flash = tuple(int(e) for e in args.flash_epochs.split(","))
    config = ServingConfig(
        epochs=args.epochs,
        epoch_minutes=args.epoch_minutes,
        theta=args.theta,
        replication_degree=args.degree,
        base_rate_per_min=args.base_rate,
        peak_rate_per_min=args.peak_rate,
        day_epochs=args.day_epochs,
        flash_epochs=flash,
        flash_multiplier=args.flash_multiplier,
        drift=args.drift,
        replan=args.replan,
        drift_threshold=args.drift_threshold,
        move_budget=args.move_budget,
        screen=args.screen,
        anneal_polish=args.anneal_polish,
        elastic=args.elastic,
        slo_rejection_rate=args.slo,
        max_servers=args.max_servers,
        dispatcher=args.dispatcher,
        engine=args.engine,
        backbone_mbps=args.backbone_mbps,
        failures=args.failures,
        failover=(FailoverPolicy() if args.failover else None),
        failover_on_down=args.failover,
        shards=args.shards,
        setup=setup,
        seed=args.seed,
    )
    observer = None
    if args.observe or args.trace_out:
        from .observe import Observer

        observer = Observer()
    runner = None
    if args.jobs > 1:
        from .runtime import ParallelRunner

        runner = ParallelRunner(jobs=args.jobs, observer=observer)
    try:
        result = ServingControlPlane(
            config, observer=observer, runner=runner
        ).run()
    finally:
        if runner is not None:
            runner.close()
    print(result.format())
    print(f"digest: {result.digest()}")
    if observer is not None and args.trace_out:
        lines = observer.export_jsonl(args.trace_out)
        print(f"trace: {lines} lines -> {args.trace_out}")
    return 0


def _cmd_pipeline(args) -> int:
    from .cluster_sim import FailoverPolicy, RereplicationPolicy
    from .experiments.config import PaperSetup
    from .pipeline import PipelineConfig, solve

    setup = PaperSetup()
    if args.quick:
        setup = setup.quick()
    config = PipelineConfig(
        theta=args.theta,
        replication_degree=args.degree,
        arrival_rate_per_min=args.rate,
        num_runs=args.runs,
        replicator=args.replicator,
        placer=args.placer,
        refine=args.refine,
        anneal=args.anneal,
        dispatcher=args.dispatcher,
        engine=args.engine,
        backbone_mbps=args.backbone_mbps,
        failures=args.failures,
        failover=(
            FailoverPolicy(max_retries=args.max_retries)
            if args.failover
            else None
        ),
        rereplication=(
            RereplicationPolicy(migration_mbps=args.migration_mbps)
            if args.rereplicate
            else None
        ),
        failover_on_down=args.failover,
        surrogate=args.surrogate,
        screen_candidates=args.screen_candidates,
        screen_top_k=args.top_k,
        screen_seed=args.screen_seed,
        shards=args.shards,
        setup=setup,
    )
    observer = None
    if args.observe or args.trace_out:
        from .observe import Observer, ObserverConfig

        observer = Observer(
            ObserverConfig(
                sample_interval_min=args.sample_interval,
                trace_events=args.trace_events,
            )
        )
    runner = None
    if args.jobs > 1:
        from .runtime import ParallelRunner

        runner = ParallelRunner(jobs=args.jobs, observer=observer)
    try:
        result = solve(config, observer=observer, runner=runner)
    finally:
        if runner is not None:
            runner.close()
    print(result.format())
    if observer is not None and args.trace_out:
        lines = observer.export_jsonl(args.trace_out)
        print(f"trace: {lines} lines -> {args.trace_out}")
    return 0


def _cmd_observe_report(args) -> int:
    from .observe import load_trace, render_trace_report

    events = load_trace(args.trace)
    print(render_trace_report(events, charts=args.chart))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of optimal video replication/placement "
        "(ICPP 2002): experiments, fuzzing, the pipeline facade and "
        "observability reports.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Delegating wrappers: everything after the subcommand name is handed
    # to the historical module CLI unchanged.
    subparsers.add_parser(
        "experiments",
        help="figure harness (python -m repro.experiments ...)",
        add_help=False,
    )
    subparsers.add_parser(
        "fuzz",
        help="differential fuzzing (python -m repro.verify.fuzz ...)",
        add_help=False,
    )
    _pipeline_parser(subparsers)
    _serve_parser(subparsers)
    report_parser = subparsers.add_parser(
        "observe-report", help="render a trace JSONL written by --trace-out"
    )
    report_parser.add_argument("trace", help="path to the JSONL trace")
    report_parser.add_argument(
        "--chart", action="store_true", help="append an ASCII load chart"
    )

    if argv and argv[0] == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from .verify.fuzz import main as fuzz_main

        return fuzz_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "observe-report":
        return _cmd_observe_report(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
