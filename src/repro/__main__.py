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
:func:`repro.pipeline.solve` facade for one design point and ``serve``
the :class:`repro.serving.ServingControlPlane`, optionally instrumented;
``observe-report`` renders a trace JSONL written with ``--trace-out`` (or
:meth:`repro.observe.Observer.export_jsonl`).

Every ``pipeline``/``serve`` flag that sets a config field stores under
that field's name and declares no default, so the dataclass default is
the only one and a bad value fails the config's own check as a usage
error.  Choice lists come from the registries.  Flags with a default are
run flags: they set no field.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields


def _core_flags(parser) -> None:
    """The :class:`~repro.config_core.SimulationConfig` flags and the run
    flags that mean the same on ``pipeline`` and ``serve``."""
    from .cluster_sim import DISPATCHERS, ENGINES

    parser.add_argument("--theta", type=float, help="Zipf skew")
    parser.add_argument(
        "--degree", dest="replication_degree", type=float, help="replication degree"
    )
    parser.add_argument("--dispatcher", choices=tuple(DISPATCHERS))
    parser.add_argument(
        "--engine",
        choices=tuple(ENGINES),
        help=(
            "lockstep simulation engine: vector (numpy event-batch core, "
            "default; hands what it cannot batch to optimized), optimized "
            "(tuple-heap loop), reference (readable oracle), audited "
            "(optimized + invariant auditors); all engines produce "
            "identical results"
        ),
    )
    parser.add_argument("--backbone-mbps", type=float, help="redirection backbone")
    parser.add_argument(
        "--failures",
        metavar="SPEC",
        help=(
            "chaos recipe 'kind:key=value,...' (per epoch on serve) — "
            "kinds: single (t,server,down), random (mtbf,mttr), correlated "
            "(groups,mtbf,mttr), mtbf (mtbf,mttr); e.g. "
            "'single:t=30,server=0,down=15'"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        help=(
            "split each simulated run into K deterministic arrival-stream "
            "shards and merge the per-shard results (weak scaling; "
            "1 = unsharded)"
        ),
    )
    parser.add_argument(
        "--failover",
        action="store_true",
        default=False,
        help="failover dispatch with retry/backoff for failure-hit requests",
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
        default=False,
        help="instrument the run (metrics + traces); implied by --trace-out",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the observation as JSONL (implies --observe)",
    )


def _pipeline_parser(subparsers) -> None:
    from .pipeline import PLACERS, REPLICATORS

    parser = subparsers.add_parser(
        "pipeline",
        help="run the replicate->place->simulate facade for one design point",
        argument_default=argparse.SUPPRESS,
    )
    parser.set_defaults(build=_pipeline, error=parser.error)
    _core_flags(parser)
    parser.add_argument(
        "--rate", dest="arrival_rate_per_min", type=float, help="requests/min"
    )
    parser.add_argument(
        "--runs", dest="num_runs", type=int, help="simulation runs (default: setup's)"
    )
    parser.add_argument("--replicator", choices=tuple(REPLICATORS))
    parser.add_argument("--placer", choices=tuple(PLACERS))
    parser.add_argument("--refine", action="store_true", help="hill-climb placement")
    parser.add_argument("--anneal", action="store_true", help="SA over scalable rates")
    parser.add_argument(
        "--surrogate",
        action="store_true",
        help=(
            "surrogate-guided sweep: screen candidate layouts with the "
            "analytical Erlang fixed point, DES-simulate only the top-K"
        ),
    )
    parser.add_argument(
        "--screen-candidates", type=int, help="layouts scored by the surrogate screen"
    )
    parser.add_argument(
        "--top-k", dest="screen_top_k", type=int, help="screen survivors run on the DES"
    )
    parser.add_argument(
        "--screen-seed", type=int, help="seed of the screen's random layouts"
    )
    parser.add_argument(
        "--quick", action="store_true", default=False, help="reduced run count (3)"
    )
    parser.add_argument("--max-retries", type=int, default=3, help="failover retries")
    parser.add_argument(
        "--rereplicate",
        action="store_true",
        default=False,
        help="restore lost replicas on repair over the migration network",
    )
    parser.add_argument(
        "--migration-mbps", type=float, default=1000.0, help="re-replication bandwidth"
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
        default=False,
        help="record sampled arrival/departure events in the trace",
    )


def _epoch_list(text: str) -> tuple[int, ...]:
    """``"1,2"`` -> ``(1, 2)``; an empty string is no epochs."""
    return tuple(int(e) for e in text.split(",")) if text else ()


def _serve_parser(subparsers) -> None:
    from .serving import REPLAN_MODES

    parser = subparsers.add_parser(
        "serve",
        help="run the online serving control plane (epoch loop with drift "
        "re-optimization and SLO elasticity)",
        argument_default=argparse.SUPPRESS,
    )
    parser.set_defaults(build=_serve, error=parser.error)
    _core_flags(parser)
    parser.add_argument("--epochs", type=int, help="epochs to serve")
    parser.add_argument(
        "--epoch-minutes", type=float, help="epoch length (default: the peak window)"
    )
    parser.add_argument(
        "--base-rate", dest="base_rate_per_min", type=float, help="off-peak rate/min"
    )
    parser.add_argument(
        "--peak-rate", dest="peak_rate_per_min", type=float, help="peak requests/min"
    )
    parser.add_argument("--day-epochs", type=int, help="epochs per diurnal day")
    parser.add_argument(
        "--flash-epochs",
        type=_epoch_list,
        metavar="E1,E2,...",
        help="epochs hit by a flash-crowd spike (comma-separated)",
    )
    parser.add_argument(
        "--flash-multiplier", type=float, help="rate multiplier during a flash crowd"
    )
    parser.add_argument(
        "--drift",
        metavar="SPEC",
        help="popularity drift: none | rankswap:K | release:K | lognormal:S",
    )
    parser.add_argument(
        "--replan", choices=REPLAN_MODES, help="re-plan on drift, always or never"
    )
    parser.add_argument(
        "--drift-threshold", type=float, help="total-variation trigger of replan=drift"
    )
    parser.add_argument(
        "--move-budget", type=int, help="replicas copied per re-plan (default: no cap)"
    )
    parser.add_argument(
        "--screen", action="store_true", help="surrogate-screen each migration"
    )
    parser.add_argument(
        "--anneal-polish", action="store_true", help="SA-polish each migrated layout"
    )
    parser.add_argument(
        "--elastic", action="store_true", help="add/drain servers on SLO breach/calm"
    )
    parser.add_argument(
        "--slo", dest="slo_rejection_rate", type=float, help="rejection-rate target"
    )
    parser.add_argument(
        "--max-servers", type=int, help="elastic ceiling (default: 2x the setup)"
    )
    parser.add_argument("--seed", type=int, help="override the setup seed")
    parser.add_argument(
        "--quick", action="store_true", default=False, help="scaled-down setup (50x4)"
    )


def _build_config(cls, args, **objects):
    """*cls* from the flags stored under its field names, plus *objects*.

    ``--failover`` also turns on ``failover_on_down``.
    """
    names = {f.name for f in fields(cls)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return cls(**{**given, "failover_on_down": args.failover, **objects})


def _pipeline(args):
    """The ``pipeline`` verb: ``(observer config, run(observer, runner))``."""
    from .cluster_sim import FailoverPolicy, RereplicationPolicy
    from .experiments.config import PaperSetup
    from .observe import ObserverConfig
    from .pipeline import PipelineConfig, solve

    config = _build_config(
        PipelineConfig,
        args,
        setup=PaperSetup().quick() if args.quick else PaperSetup(),
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
    )
    observer_config = ObserverConfig(
        sample_interval_min=args.sample_interval,
        trace_events=args.trace_events,
    )

    def run(observer, runner) -> str:
        return solve(config, observer=observer, runner=runner).format()

    return observer_config, run


def _serve(args):
    """The ``serve`` verb: ``(observer config, run(observer, runner))``."""
    from .cluster_sim import FailoverPolicy
    from .experiments.config import PaperSetup
    from .serving import ServingConfig, ServingControlPlane

    config = _build_config(
        ServingConfig,
        args,
        setup=PaperSetup().scaled_down() if args.quick else PaperSetup(),
        failover=FailoverPolicy() if args.failover else None,
    )

    def run(observer, runner) -> str:
        result = ServingControlPlane(
            config, observer=observer, runner=runner
        ).run()
        return f"{result.format()}\ndigest: {result.digest()}"

    return None, run


def _run_verb(args) -> int:
    """Build the verb's config, observer and runner, then run and print.

    A ``ValueError`` while building is a bad flag value (the configs check
    their fields): it is reported as a usage error before anything runs.
    """
    try:
        observer_config, run = args.build(args)
        observer = None
        if args.observe or args.trace_out:
            from .observe import Observer

            observer = Observer(observer_config)
        runner = None
        if args.jobs != 1:
            from .runtime import ParallelRunner

            runner = ParallelRunner(jobs=args.jobs, observer=observer)
    except ValueError as exc:
        args.error(str(exc))
    try:
        print(run(observer, runner))
    finally:
        if runner is not None:
            runner.close()
    if args.trace_out:
        lines = observer.export_jsonl(args.trace_out)
        print(f"trace: {lines} lines -> {args.trace_out}")
    return 0


def _cmd_observe_report(args) -> int:
    from .observe import load_trace, render_trace_report

    events = load_trace(args.trace)
    print(render_trace_report(events, charts=args.chart))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser with every subcommand."""
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
    return parser


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and argv[0] == "experiments":
        from .experiments.__main__ import main as experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from .verify.fuzz import main as fuzz_main

        return fuzz_main(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "observe-report":
        return _cmd_observe_report(args)
    return _run_verb(args)


if __name__ == "__main__":
    raise SystemExit(main())
