"""One repetition of one benchmark workload, in an interpreter of its own.

    PYTHONPATH=src python3 perfbench/body.py WORKLOAD SEED REP T0 [--trace DIR]

``T0`` is the parent's ``CLOCK_MONOTONIC`` reading just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports and
the first-use lazy costs (the ``code_version()`` source hash, the scipy
import).  Then the timed body runs one closed loop of units (each starts
when the previous one returns) with a fixed calibration loop sampled
between units, and the outputs are checked against their oracle outside
the timed body.  The last line of standard output is one
JSON object.  With ``--trace`` the public entry points of every layer
are wrapped first (:mod:`spans`) and the span-derived layer metrics are
added; the spans themselves are written under ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro  # noqa: F401  (import cost belongs to set-up)
from repro.cluster_sim.metrics import SimulationResult
from repro.experiments.cache_scale_sweep import (
    cache_scale_setup,
    format_sweep,
    run_sweep,
)
from repro.experiments.config import PaperSetup
from repro.experiments.fig4 import FIG4_SUBPLOTS, format_fig4
from repro.experiments.runner import (
    build_layout,
    rejection_summary,
    simulate_combo,
)
from repro.runtime.cache import code_version
from repro.serving import ServingConfig, ServingControlPlane, parse_drift

WORKLOADS = ("fig4", "cache-scale", "serve-diurnal")

#: The fig4 oracle file holds the table of the paper seed, which the
#: benchmark reaches at workload seed 0.
FIG4_PAPER_SEED = PaperSetup().seed
#: fig4 design points re-simulated on the reference engine per repetition.
FIG4_REFERENCE_SAMPLE = 6
#: Lines of ``results_full/cache_scale.txt`` that hold the analytical grid.
CACHE_SCALE_GRID_LINES = 18
CACHE_SCALE_THETAS = (0.0, 0.3, 0.6, 0.9, 1.2)
#: Control-plane runs (each 96 epochs) per serve-diurnal repetition.
SERVE_RUNS = 12
#: Unit time between two samples of the calibration loop.
CALIB_EVERY_S = 0.2


def calibrate() -> float:
    """Milliseconds of one fixed pure-Python + numpy loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += (i * i) % 7
    values = np.arange(20_000, dtype=np.float64)[::-1]
    np.cumsum(np.sort(values))
    return (time.perf_counter() - start) * 1e3


class UnitClock:
    """Records unit times and samples the calibration loop between units.

    ``calib`` holds ``[units done, ms]`` pairs: one sample before the
    first unit, one whenever ``CALIB_EVERY_S`` of unit time has passed,
    and one after the last unit (:meth:`close`).  Samples run between
    units, outside every unit's timing.
    """

    def __init__(self) -> None:
        self.units_ms: list[float] = []
        self.calib: list[list] = [[0, calibrate()]]
        self._since = 0.0

    def __call__(self, seconds: float) -> None:
        self.units_ms.append(seconds * 1e3)
        self._since += seconds
        if self._since >= CALIB_EVERY_S:
            self.calib.append([len(self.units_ms), calibrate()])
            self._since = 0.0

    def close(self) -> None:
        self.calib.append([len(self.units_ms), calibrate()])


# ----------------------------------------------------------------------
# fig4: the paper's Figure 4 grid, one unit per design point.


def fig4_setup(seed: int) -> PaperSetup:
    return replace(PaperSetup().quick(num_runs=3), seed=FIG4_PAPER_SEED + seed)


def fig4_points(setup: PaperSetup):
    """``(key, combo, theta, degree, rate)`` in ``run_fig4`` order."""
    for key, combo, which in FIG4_SUBPLOTS:
        theta = setup.theta_high if which == "high" else setup.theta_low
        for degree in setup.replication_degrees:
            for rate in setup.arrival_rates_per_min:
                yield key, combo, theta, degree, rate


def run_fig4(seed: int, stamp) -> dict:
    setup = fig4_setup(seed)
    layouts: dict = {}
    outcomes: list[list[SimulationResult]] = []
    for key, combo, theta, degree, rate in fig4_points(setup):
        start = time.perf_counter()
        layout = layouts.get((key, degree))
        if layout is None:
            layout = layouts[key, degree] = build_layout(setup, combo, theta, degree)
        outcomes.append(
            simulate_combo(setup, combo, theta, degree, rate, layout=layout)
        )
        rejection_summary(outcomes[-1])
        stamp(time.perf_counter() - start)
    return {"seed": seed, "setup": setup, "layouts": layouts, "outcomes": outcomes}


def fig4_table(setup: PaperSetup, outcomes) -> dict:
    """The ``run_fig4`` result dict built from per-point outcomes."""
    means = iter(rejection_summary(o).mean for o in outcomes)
    subplots = {}
    for key, combo, which in FIG4_SUBPLOTS:
        theta = setup.theta_high if which == "high" else setup.theta_low
        curves = {
            degree: [next(means) for _ in setup.arrival_rates_per_min]
            for degree in setup.replication_degrees
        }
        subplots[key] = {"combo": combo.label, "theta": theta, "curves": curves}
    return {
        "arrival_rates": list(setup.arrival_rates_per_min),
        "subplots": subplots,
    }


def fig4_table_failures(text: str, expected: str) -> set[int]:
    """Indices of the design points whose printed rejection differs."""
    if text == expected:
        return set()

    def cells(table: str) -> dict[int, str]:
        """Unit index -> printed value; units run block, degree, rate."""
        out = {}
        for b, block in enumerate(table.strip().split("\n\n")):
            rows = [row.split()[1:] for row in block.splitlines()[3:]]
            for r, row in enumerate(rows):
                for d, value in enumerate(row):
                    out[(b * len(row) + d) * len(rows) + r] = value
        return out

    got, want = cells(text), cells(expected)
    failed = {i for i in got.keys() | want.keys() if got.get(i) != want.get(i)}
    return failed or {0}


def fig4_failures(run: dict, root: Path) -> set[int]:
    setup, outcomes = run["setup"], run["outcomes"]
    failed: set[int] = set()
    if run["seed"] == 0:
        text = format_fig4(fig4_table(setup, outcomes)) + "\n"
        expected = (root / "results" / "fig4.txt").read_text()
        failed |= fig4_table_failures(text, expected)
    points = list(fig4_points(setup))
    rng = np.random.default_rng(run["seed"])
    for index in rng.choice(len(points), FIG4_REFERENCE_SAMPLE, replace=False):
        key, combo, theta, degree, rate = points[index]
        reference = simulate_combo(
            setup, combo, theta, degree, rate,
            layout=run["layouts"][key, degree], engine="reference",
        )
        got = outcomes[index]
        if len(got) != len(reference) or not all(
            a.same_outcome(b) for a, b in zip(got, reference)
        ):
            failed.add(int(index))
    return failed


# ----------------------------------------------------------------------
# cache-scale: E17's analytical grid, one unit per theta (4 strategies
# designed, 3 regimes scored).


def run_cache_scale(seed: int, stamp) -> dict:
    del seed  # the grid has no random inputs
    setup = cache_scale_setup()
    rows = []
    for theta in CACHE_SCALE_THETAS:
        start = time.perf_counter()
        rows.extend(run_sweep(setup, thetas=(theta,)))
        stamp(time.perf_counter() - start)
    return {"rows": rows}


def cache_scale_grid_failures(text: str, expected: str) -> set[int]:
    """Indices of the thetas whose grid rows differ from the pinned file."""
    got = text.splitlines()[:CACHE_SCALE_GRID_LINES]
    want = expected.splitlines()[:CACHE_SCALE_GRID_LINES]
    if got == want:
        return set()
    regimes = (CACHE_SCALE_GRID_LINES - 3) // len(CACHE_SCALE_THETAS)
    failed = set()
    for line, (a, b) in enumerate(zip(got + [""] * 99, want)):
        if a != b:
            failed.add(max(0, line - 3) // regimes)
    return failed


def cache_scale_failures(run: dict, root: Path) -> set[int]:
    expected = (root / "results_full" / "cache_scale.txt").read_text()
    return cache_scale_grid_failures(format_sweep(run["rows"]), expected)


# ----------------------------------------------------------------------
# serve-diurnal: the serving control plane over 12 diurnal days, one
# unit per epoch.


def serve_config(plane_seed: int) -> ServingConfig:
    return ServingConfig(
        epochs=96,
        day_epochs=8,
        base_rate_per_min=15.0,
        peak_rate_per_min=45.0,
        flash_epochs=(5, 29, 53, 77),
        drift=parse_drift("rankswap:10"),
        replan="drift",
        move_budget=60,
        anneal_polish=True,
        screen=True,
        elastic=True,
        engine="vector",
        seed=plane_seed,
    )


def serve_seeds(seed: int) -> list[int]:
    """The control-plane seeds one repetition runs, drawn from ``seed``."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(SERVE_RUNS)]


class EpochClock:
    """Plane observer that only stamps the end of each epoch."""

    def __init__(self, stamp) -> None:
        self._stamp = stamp
        self.last = time.perf_counter()

    def serving_epoch(self, *, epoch, snapshot) -> None:
        self._stamp(time.perf_counter() - self.last)
        self.last = time.perf_counter()


def run_serve(seed: int, stamp) -> dict:
    results = []
    for plane_seed in serve_seeds(seed):
        clock = EpochClock(stamp)
        plane = ServingControlPlane(serve_config(plane_seed), observer=clock)
        results.append(plane.run())
    return {"results": results}


def serve_result_failures(result, reference_digest: str | None) -> set[int]:
    """Epochs of one plane run that fail their oracle: an epoch that
    loses requests, or every epoch when the digest differs from the
    reference engine's."""
    failed = {
        s.epoch
        for s in result.snapshots
        if s.num_admitted + s.num_rejected != s.num_requests
    }
    if reference_digest is not None and result.digest() != reference_digest:
        failed |= {s.epoch for s in result.snapshots}
    return failed


def serve_failures(run: dict, rep: int) -> set[int]:
    """The reference digest (``engine="optimized"``) is recomputed for one
    plane run per repetition, rotating with the repetition index."""
    checked = rep % len(run["results"])
    failed: set[int] = set()
    offset = 0
    for index, result in enumerate(run["results"]):
        reference = None
        if index == checked:
            config = replace(result.config, engine="optimized")
            reference = ServingControlPlane(config).run().digest()
        failed |= {offset + e for e in serve_result_failures(result, reference)}
        offset += result.epochs
    return failed


# ----------------------------------------------------------------------


def warm_up() -> None:
    """Pay first-use lazy costs so no timed unit runs cold."""
    import scipy.special  # noqa: F401  (erlang's lazy import)

    import repro.analysis.surrogate  # noqa: F401
    import repro.annealing  # noqa: F401

    code_version()


BODIES = {
    "fig4": (run_fig4, lambda run, rep, root: fig4_failures(run, root)),
    "cache-scale": (run_cache_scale, lambda run, rep, root: cache_scale_failures(run, root)),
    "serve-diurnal": (run_serve, lambda run, rep, root: serve_failures(run, rep)),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("rep", type=int)
    parser.add_argument("t0", type=float)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args(argv)
    root = Path.cwd()

    warm_up()
    tracer = None
    if args.trace is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0

    body, failures = BODIES[args.workload]
    clock = UnitClock()
    start = time.perf_counter()
    run = body(args.seed, clock)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.close()

    out = {
        "setup_s": setup_s,
        "units_ms": clock.units_ms,
        "calib": clock.calib,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.dump(args.trace / f"{args.workload}-seed{args.seed}-rep{args.rep}.json")
        out["layers"] = spans.layer_metrics(tracer.spans)
        out["shares"] = spans.layer_shares(tracer.spans, wall_s)
    failed = failures(run, args.rep, root)
    out["attempted"] = len(clock.units_ms)
    out["failed"] = len(failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
