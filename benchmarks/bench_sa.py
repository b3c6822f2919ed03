"""E5 — the scalable-bit-rate simulated-annealing study.

Times the full SA pipeline (chains, evaluation and the E5b weight
sensitivity) and writes ``results/sa.txt``, the same table as ``python -m
repro.experiments sa --quick``.  Also microbenchmarks the SA kernel (cost
evaluation and one proposal) since they dominate the run.
"""

import numpy as np
import pytest

from conftest import emit
from repro.annealing import ScalableBitRateProblem
from repro.experiments.sa_experiment import (
    QUICK_SA,
    QUICK_SENSITIVITY,
    format_sa_tables,
    run_sa_experiment,
    run_weight_sensitivity,
)


@pytest.mark.benchmark(group="figures")
def test_sa_experiment(benchmark, bench_setup, results_dir):
    def body():
        return (
            run_sa_experiment(bench_setup, **QUICK_SA),
            run_weight_sensitivity(bench_setup, **QUICK_SENSITIVITY),
        )

    results, sensitivity = benchmark.pedantic(body, rounds=1, iterations=1)
    assert results["best_objective"] > results["initial_objective"]
    emit(results_dir, "sa", format_sa_tables(results, sensitivity))


@pytest.mark.benchmark(group="sa-kernel")
class TestSAKernel:
    @pytest.fixture()
    def sa(self, bench_setup):
        problem = bench_setup.problem(0.75, 1.6, scalable=True)
        return ScalableBitRateProblem(problem)

    def test_cost(self, benchmark, sa):
        state = sa.initial_state(np.random.default_rng(0))
        value = benchmark(sa.cost, state)
        assert np.isfinite(value)

    def test_propose(self, benchmark, sa):
        state = sa.initial_state(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        benchmark(sa.propose, state, rng)
