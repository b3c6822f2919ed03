"""Repository benchmark: time to a correct answer on three workloads.

    python3 perfbench/run.py --workload fig4 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh interpreter (``perfbench/body.py``), so no simulator memo,
``code_version()`` cache or lazy import carries over between
repetitions.  BLAS/OpenMP threads are pinned to 1 and the result cache
stays off.  Repetitions run back to back until ``--seconds`` is spent
(at least ``MIN_REPS``).

Timings are in units of a fixed calibration loop (``calib``) sampled
between the units of the same repetition.  On a shared virtual host,
phases of 10-30 s in which code runs up to 1.6x slower moved raw
host-time medians by 14-36% from run to run; dividing each unit's time
by the median of the two calibration samples before it and the two
after it tracks those phases.  Every repetition does the same work, unit
for unit, so a unit's cost is its median over the repetitions.
``wall_calib`` is the sum of the unit costs and ``unit_p50_calib`` /
``unit_p90_calib`` their percentiles.  ``setup_s`` (host seconds) and
``peak_rss_mb`` are medians over the repetitions.  The raw host wall
time is printed for reference.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics: span-derived layer figures (host time, medians
over the traced repetitions), ``trace.overhead_pct`` (traced against
untraced ``wall_calib``), ``host.calib_ms`` (the calibration loop's host
time, to tell host drift from a regression) and ``error_rate``.  Metric names and units come from ``BENCHMARK.json``,
the one table of them.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count units (design points, thetas or epochs) and the units
that failed their oracle.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BODY = HERE / "body.py"
WORKLOADS = ("fig4", "cache-scale", "serve-diurnal")
MIN_REPS = 3
#: A repetition that runs longer than this is killed and fails the run.
REP_TIMEOUT_S = 150
#: Child environment: one BLAS/OpenMP thread, no result cache, fixed hashing.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "REPRO_CACHE": "0",
}


class BenchmarkError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_rep(root, env, workload, seed, rep, trace_dir) -> dict:
    """One repetition in a fresh interpreter; returns its JSON record."""
    command = [sys.executable, str(BODY), workload, str(seed), str(rep)]
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        command + [repr(t0)],
        cwd=root, env=env, capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(
            f"{workload} repetition {rep} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated_units(rep: dict) -> list[float]:
    """Each unit's time over the calibration loop's time around it (the
    median of the two samples before the unit and the two after it)."""
    positions = [at for at, _ in rep["calib"]]
    samples = [ms for _, ms in rep["calib"]]
    costs = []
    for unit, ms in enumerate(rep["units_ms"]):
        k = bisect.bisect_right(positions, unit)
        costs.append(ms / statistics.median(samples[max(0, k - 2):k + 2]))
    return costs


def unit_costs(reps: list[dict]) -> list[float]:
    """Each unit's calibrated cost, median over the repetitions."""
    counts = {len(r["units_ms"]) for r in reps}
    if len(counts) != 1:
        raise BenchmarkError(f"repetitions ran different unit counts: {counts}")
    return [statistics.median(c) for c in zip(*map(calibrated_units, reps))]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    costs = unit_costs(plain)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_calib": sum(costs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "unit_p50_calib": statistics.median(costs),
        "unit_p90_calib": statistics.quantiles(costs, n=10, method="inclusive")[8],
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    reps = plain + traced
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    untraced = sum(unit_costs(plain))
    metrics["trace.overhead_pct"] = (sum(unit_costs(traced)) / untraced - 1.0) * 100.0
    metrics["host.calib_ms"] = statistics.median(
        ms for r in reps for _, ms in r["calib"]
    )
    metrics["error_rate"] = sum(r["failed"] for r in reps) / sum(
        r["attempted"] for r in reps
    )
    return metrics


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until ``seconds`` are spent: ``(plain, traced)``."""
    env = child_env(root)
    # Byte-compile once so every repetition loads the same way.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "repro"), str(HERE)],
        cwd=root, env=env, check=True, capture_output=True,
    )
    trace_dir = root / ".perfbench_spans" if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        rep = len(plain) + len(traced)
        if trace and rep % 2 == 1:
            traced.append(run_rep(root, env, workload, seed, rep, trace_dir))
        else:
            plain.append(run_rep(root, env, workload, seed, rep, None))
        elapsed = time.monotonic() - start
        done = len(plain) >= (1 if trace else MIN_REPS) and len(traced) >= trace
        if done and elapsed * (rep + 2) / (rep + 1) > seconds:
            return plain, traced


def host_line(plain: list[dict]) -> str:
    threads = " ".join(f"{k}={v}" for k, v in PINNED_ENV.items() if "THREADS" in k)
    return (
        f"host: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={plain[0]['numpy']} {threads}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout holding src/repro", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        plain, traced = measure(
            root, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    try:
        values = per_layer(plain, traced) if args.trace else end_to_end(plain)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        table = spec["per_layer"]
        shares = {
            layer: statistics.median(r["shares"].get(layer, 0.0) for r in traced)
            for layer in traced[0]["shares"]
        }
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in ranked))
    else:
        table = spec["end_to_end"]
    print(host_line(plain))
    if args.workload == "cache-scale":
        print("cache-scale: the grid has no random inputs; --seed changes nothing")
    wall = statistics.median(sum(r["units_ms"]) / 1e3 for r in plain)
    print(
        f"repetitions: {len(plain)} untraced, {len(traced)} traced; "
        f"{len(plain[0]['units_ms'])} units each; host wall {wall:.3f} s (median)"
    )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
