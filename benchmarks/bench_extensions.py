"""E8/E10/E11 — the extension experiments (availability, striping, dynamic).

Writes ``results/availability.txt``, ``results/striping.txt`` and
``results/dynamic.txt``.
"""

import numpy as np
import pytest

from conftest import emit
from repro.experiments.availability import format_availability, run_availability
from repro.experiments.dynamic_experiment import (
    QUICK_EPOCHS,
    format_dynamic_study,
    run_dynamic_study,
)
from repro.experiments.striping_comparison import (
    format_striping,
    run_load_sweep,
    run_scale_sweep,
)


@pytest.mark.benchmark(group="figures")
def test_availability(benchmark, bench_setup, results_dir):
    rows = benchmark.pedantic(
        run_availability,
        args=(bench_setup,),
        kwargs={"down_min": 30.0},
        rounds=1,
        iterations=1,
    )
    # Replication + failover must beat no-replication; striping's blast
    # radius must dwarf any replicated configuration.
    base = next(
        r
        for r in rows
        if r["system"] == "replicated deg=1" and r["mode"] == "reject"
    )
    best = next(
        r
        for r in rows
        if r["system"] == "replicated deg=1.6" and r["mode"] == "failover"
    )
    striped = next(r for r in rows if r["system"].startswith("striped"))
    assert best["rejection"] < base["rejection"]
    assert striped["streams_dropped"] > base["streams_dropped"]
    emit(results_dir, "availability", format_availability(rows))


@pytest.mark.benchmark(group="figures")
def test_striping(benchmark, bench_setup, results_dir):
    def body():
        return (
            run_load_sweep(bench_setup),
            run_scale_sweep(bench_setup, cluster_sizes=(4, 8, 16)),
        )

    load, scale = benchmark.pedantic(body, rounds=1, iterations=1)
    # Striping's scaling penalty grows with N while replication stays flat.
    assert scale["curves"]["striped"][-1] >= scale["curves"]["replicated"][-1]
    emit(results_dir, "striping", format_striping(load, scale))


@pytest.mark.benchmark(group="figures")
def test_batching(benchmark, bench_setup, results_dir):
    from repro.experiments.batching_experiment import format_batching, run_batching

    rows = benchmark.pedantic(
        run_batching, args=(bench_setup,), rounds=1, iterations=1
    )
    # Batching never rejects more than unicast at the same load, and the
    # factor grows with the window.
    by_rate: dict[float, list[dict]] = {}
    for row in rows:
        by_rate.setdefault(row["arrival_rate"], []).append(row)
    for cells in by_rate.values():
        cells.sort(key=lambda r: r["window_min"])
        assert cells[-1]["rejection"] <= cells[0]["rejection"] + 1e-9
        assert cells[-1]["batching_factor"] >= cells[0]["batching_factor"] - 1e-9
    emit(results_dir, "batching", format_batching(rows))


@pytest.mark.benchmark(group="figures")
def test_storage_bottleneck(benchmark, bench_setup, results_dir):
    from repro.experiments.storage_bottleneck import (
        format_storage,
        run_capacity_table,
        run_disk_bound_simulation,
    )

    def body():
        return run_capacity_table(bench_setup), run_disk_bound_simulation(bench_setup)

    capacity, simulation = benchmark.pedantic(body, rounds=1, iterations=1)
    # Disk-bound rejection falls monotonically toward the network-bound value.
    rejections = [r["rejection"] for r in simulation]
    assert rejections == sorted(rejections, reverse=True)
    emit(results_dir, "storage", format_storage(capacity, simulation))


@pytest.mark.benchmark(group="figures")
def test_dynamic(benchmark, bench_setup, results_dir):
    results = benchmark.pedantic(
        run_dynamic_study,
        args=(bench_setup,),
        kwargs=dict(epochs=QUICK_EPOCHS),
        rounds=1,
        iterations=1,
    )
    curves = results["curves"]
    # Under drift the adaptive strategies beat the static plan.
    assert np.mean(curves["oracle"][1:]) <= np.mean(curves["static"][1:]) + 1e-9
    assert np.mean(curves["tracked"][1:]) <= np.mean(curves["static"][1:]) + 1e-9
    emit(results_dir, "dynamic", format_dynamic_study(results))
