"""Run-to-run spread of the end-to-end metrics, workloads interleaved.

    python3 perfbench/spread.py --seeds 10 [--workloads fig4 serve-diurnal] [--out runs.json]

Runs ``perfbench/run.py`` once per (seed, workload), cycling through the
workloads inside each seed so host drift lands on all of them alike.
For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median,
against the metric's bound in ``BENCHMARK.json`` (a spread should stay
under a third of its bound).  ``--compare`` takes an earlier ``--out``
file and prints how far each median moved from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} units failed")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append(values)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(runs, indent=1))

    before = json.loads(args.compare.read_text()) if args.compare else {}
    worst = 0.0
    for workload, rows in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [row[name] for row in rows]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            line = (
                f"{workload:14s} {name:12s} median {median:10.4f}  "
                f"spread {spread:6.1%}  bound {bound:.0%}"
            )
            if workload in before:
                old = statistics.median(row[name] for row in before[workload])
                line += f"  moved {median / old - 1:+6.1%}"
            print(line)
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
