"""E7 — the ablation suite (dispatch, metric, theta, misprediction,
redirection, watch time, wait-queue patience).  Writes
``results/ablations.txt``, the same table as ``python -m repro.experiments
ablations --quick``."""

import pytest

from conftest import emit
from repro.experiments.ablations import (
    format_ablations,
    run_dispatch_ablation,
    run_metric_ablation,
    run_misprediction,
    run_patience,
    run_redirection,
    run_theta_sweep,
    run_watch_time,
)


@pytest.mark.benchmark(group="figures")
def test_ablations(benchmark, bench_setup, results_dir):
    def body():
        return (
            run_dispatch_ablation(bench_setup),
            run_metric_ablation(bench_setup),
            run_theta_sweep(bench_setup),
            run_misprediction(bench_setup),
            run_redirection(bench_setup),
            run_watch_time(bench_setup),
            run_patience(bench_setup),
        )

    tables = benchmark.pedantic(body, rounds=1, iterations=1)
    _, metric, _, _, redirect, _, _ = tables
    # Eq. (3) never exceeds Eq. (2); redirection never hurts.
    for row in metric:
        assert row["L_std_pct"] <= row["L_max_pct"] + 1e-9
    curves = redirect["curves"]
    assert sum(curves["backbone=7200"]) <= sum(curves["backbone=0"]) + 1e-9
    emit(results_dir, "ablations", format_ablations(*tables))
