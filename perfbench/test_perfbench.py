"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

The two driver runs take about half a minute on a 2-core host; the
oracle and seed tests run at reduced sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import body
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_serve(seed: int):
    config = replace(body.serve_config(seed), epochs=6)
    return body.ServingControlPlane(config).run()


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, table):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "serve-diurnal", "--seed", "2", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[table]}


def test_perturbed_fig4_table_fails_the_perturbed_point():
    expected = (ROOT / "results" / "fig4.txt").read_text()
    assert body.fig4_table_failures(expected, expected) == set()
    # Subplot (a), degree 1.0, rate 35: unit 5 of the degree-major order.
    perturbed = expected.replace("35               0.0239", "35               0.0240", 1)
    assert perturbed != expected
    assert body.fig4_table_failures(perturbed, expected) == {5}


def test_perturbed_cache_scale_grid_fails_its_theta():
    expected = (ROOT / "results_full" / "cache_scale.txt").read_text()
    lines = expected.splitlines()
    assert body.cache_scale_grid_failures(expected, expected) == set()
    lines[10] = lines[10].replace("0.0331", "0.0332")  # theta=0.6, inversion
    assert body.cache_scale_grid_failures("\n".join(lines), expected) == {2}


def test_wrong_digest_or_lost_requests_fail_epochs():
    result = small_serve(7)
    assert body.serve_result_failures(result, result.digest()) == set()
    assert body.serve_result_failures(result, "0" * 64) == set(range(6))
    broken = replace(
        result,
        snapshots=(
            replace(result.snapshots[0], num_rejected=result.snapshots[0].num_rejected + 1),
            *result.snapshots[1:],
        ),
    )
    assert body.serve_result_failures(broken, None) == {0}


def test_failed_units_raise_error_rate():
    rep = {
        "units_ms": [4.0, 8.0],
        "calib": [[0, 2.0], [1, 2.0], [2, 2.0]],
        "attempted": 96,
        "layers": {},
    }
    metrics = run.per_layer([dict(rep, failed=0)], [dict(rep, failed=3)])
    assert metrics["error_rate"] == pytest.approx(3 / 192)


def test_unit_cost_is_time_over_nearby_calibration():
    rep = {"units_ms": [4.0, 8.0], "calib": [[0, 2.0], [1, 2.0], [2, 2.0]]}
    assert run.calibrated_units(rep) == pytest.approx([2.0, 4.0])
    # A host twice as slow slows the loop alike: the cost is unchanged.
    slow = {"units_ms": [8.0, 16.0], "calib": [[0, 4.0], [1, 4.0], [2, 4.0]]}
    assert run.calibrated_units(slow) == pytest.approx([2.0, 4.0])
    odd = {"units_ms": [6.0, 8.0], "calib": [[0, 2.0], [2, 2.0]]}
    assert run.unit_costs([rep, slow, odd]) == pytest.approx([2.0, 4.0])


def test_seed_changes_serve_digest():
    first, second = body.serve_seeds(0), body.serve_seeds(1)
    assert first != second
    assert small_serve(first[0]).digest() != small_serve(second[0]).digest()


def test_seed_leaves_cache_scale_grid_unchanged(monkeypatch):
    quick = body.cache_scale_setup(quick=True)
    monkeypatch.setattr(body, "cache_scale_setup", lambda: quick)
    monkeypatch.setattr(body, "CACHE_SCALE_THETAS", (0.3, 0.9))
    grids = [
        body.format_sweep(body.run_cache_scale(seed, lambda _: None)["rows"])
        for seed in (0, 1)
    ]
    assert grids[0] == grids[1]


def test_self_time_subtracts_children_and_nesting_counts_once():
    tracer = spans.Tracer()
    inner = tracer.wrap("cluster_sim.run", lambda: None)
    outer = tracer.wrap("cluster_sim.run", lambda: inner())
    outer()
    (kind, parent, start, end, _), (_, child_parent, c_start, c_end, _) = tracer.spans
    assert parent == -1 and child_parent == 0
    totals = spans._aggregate(tracer.spans)["cluster_sim.run"]
    assert totals["inclusive_s"] == pytest.approx(end - start)
    assert totals["self_s"] == pytest.approx(end - start)
