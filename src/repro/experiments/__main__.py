"""Command-line harness: regenerate any of the paper's figures.

Usage::

    python -m repro.experiments fig4 [--quick] [--out results/]
    python -m repro.experiments fig5 --jobs 8            # parallel sweep
    python -m repro.experiments all --quick --no-cache

Each experiment prints its paper-comparable series and (with ``--out``)
also writes them to ``<out>/<name>.txt``.  Simulations run through the
:mod:`repro.runtime` engine: ``--jobs`` controls the worker-process count,
and results are cached under ``results/cache/`` (disable with
``--no-cache``) so re-running a sweep only simulates new design points.
A structured run report (trials, cache hit rate, events/sec) follows each
experiment whose simulations ran through the runner; an experiment that
simulates outside it (the serving plane, the analytical sweeps) gets a
one-line note instead of a report of zeros.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from ..runtime import ParallelRunner, ResultCache, use_runner
from . import (
    ablations,
    adams_vs_zipf,
    availability,
    batching_experiment,
    cache_scale_sweep,
    dynamic_experiment,
    fig4,
    fig5,
    fig6,
    sa_experiment,
    serving_sweep,
    storage_bottleneck,
    striping_comparison,
    surrogate_sweep,
)

EXPERIMENTS = {
    "fig4": fig4.main,
    "fig5": fig5.main,
    "fig6": fig6.main,
    "adams": adams_vs_zipf.main,
    "sa": sa_experiment.main,
    "ablations": ablations.main,
    "availability": availability.main,
    "striping": striping_comparison.main,
    "dynamic": dynamic_experiment.main,
    "batching": batching_experiment.main,
    "storage": storage_bottleneck.main,
    "surrogate": surrogate_sweep.main,
    "serving": serving_sweep.main,
    "cache_scale": cache_scale_sweep.main,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which experiment to run ('all' runs every one)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced run count (3 instead of 20) for a fast pass",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write <name>.txt reports into",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append ASCII line charts to experiments with curve output",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes for simulation trials (default: cpu count)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result-cache directory (default: results/cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (simulate every trial)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    with ParallelRunner(args.jobs, cache=cache) as runner:
        for name in names:
            runner.report.reset()  # fresh counters per experiment
            start = time.perf_counter()
            with use_runner(runner):
                report = EXPERIMENTS[name](quick=args.quick, chart=args.chart)
            elapsed = time.perf_counter() - start
            print(f"=== {name} ({elapsed:.1f}s) ===")
            print(report)
            if runner.report.num_trials:
                print(runner.report.format())
            else:
                print(
                    "run report: no trials through the runner "
                    "(the experiment simulated outside it)"
                )
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(report + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
