"""E5 — scalable-bit-rate simulated annealing (Sec. 4.3).

The paper proposes the SA formulation but omits its results for space; this
experiment produces them.  At a given storage/arrival design point with the
discrete rate set {2..6 Mb/s}:

1. Anneal the scalable-rate problem (multiple chains, best wins).
2. Report the objective trajectory and the solution's quality/availability
   profile (mean rate, replication degree, expected imbalance).
3. Simulate the SA layout against fixed-rate reference layouts (every video
   at 2, 4 or 6 Mb/s with Zipf+SLF replication under the same storage),
   showing the quality-vs-rejection tradeoff the SA navigates.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_table
from ..annealing import ScalableBitRateProblem, SimulatedAnnealer, run_chains
from ..cluster_sim import VoDClusterSimulator
from ..placement import smallest_load_first_placement
from ..replication import zipf_interval_replication
from ..runtime import simulate_many
from ..workload import WorkloadGenerator
from .config import PaperSetup

__all__ = [
    "run_sa_experiment",
    "format_sa_report",
    "run_weight_sensitivity",
    "format_weight_sensitivity",
    "format_sa_tables",
]


def _simulate_layout(
    setup: PaperSetup,
    cluster,
    videos,
    layout,
    theta: float,
    rate_per_min: float,
    num_runs: int,
    seed: int,
) -> dict:
    """Rejection + served-quality metrics of one layout."""
    simulator = VoDClusterSimulator(
        cluster, videos, layout, validate_layout=False
    )
    generator = WorkloadGenerator.poisson_zipf(setup.popularity(theta), rate_per_min)
    results = simulate_many(
        simulator,
        generator.generate_runs(setup.peak_minutes, num_runs, seed),
        horizon_min=setup.peak_minutes,
    )
    rates = layout.rate_matrix[layout.rate_matrix > 0]
    return {
        "rejection": float(np.mean([r.rejection_rate for r in results])),
        "imbalance_pct": float(np.mean([r.load_imbalance_percent() for r in results])),
        "mean_rate": float(rates.mean()) if rates.size else 0.0,
        "degree": layout.replication_degree,
    }


def run_sa_experiment(
    setup: PaperSetup | None = None,
    *,
    degree: float = 1.6,
    design_rate_per_min: float | None = None,
    eval_rate_per_min: float | None = None,
    num_chains: int = 3,
    steps_per_level: int = 300,
    max_levels: int = 120,
    num_runs: int | None = None,
) -> dict:
    """Run the SA study at one design point.

    ``design_rate_per_min`` is the lambda the Eq. 5 constraint is sized for
    (default: 75% of saturation — a provisioning decision); the resulting
    layouts are evaluated by simulation at ``eval_rate_per_min`` (default:
    the same).
    """
    setup = setup or PaperSetup()
    theta = setup.theta_high
    if design_rate_per_min is None:
        design_rate_per_min = 0.75 * setup.saturation_rate_per_min
    if eval_rate_per_min is None:
        eval_rate_per_min = design_rate_per_min
    if num_runs is None:
        num_runs = setup.num_runs

    problem = setup.problem(
        theta, degree, arrival_rate_per_min=design_rate_per_min, scalable=True
    )
    sa = ScalableBitRateProblem(problem)
    annealer = SimulatedAnnealer(
        steps_per_level=steps_per_level,
        max_levels=max_levels,
        patience_levels=20,
    )
    chains = run_chains(
        sa, annealer, num_chains=num_chains, seed=setup.seed, record_history=True
    )
    best = chains.best
    sa_layout = sa.to_layout(best.best_state)

    cluster = problem.cluster
    videos = problem.videos
    rows = {
        "sa": _simulate_layout(
            setup, cluster, videos, sa_layout, theta,
            eval_rate_per_min, num_runs, setup.seed,
        )
    }
    # Fixed-rate references under the same storage budget.
    probs = setup.popularity(theta).probabilities
    storage_gb = float(cluster.storage_gb[0])
    for rate in (problem.min_bit_rate_mbps, setup.bit_rate_mbps, problem.max_bit_rate_mbps):
        replica_gb = rate * setup.duration_min * 60.0 / 8000.0
        capacity = int(storage_gb / replica_gb)
        budget = max(capacity * setup.num_servers, setup.num_videos)
        replication = zipf_interval_replication(
            probs, setup.num_servers, budget
        )
        capacity = max(capacity, -(-replication.total_replicas // setup.num_servers))
        layout = smallest_load_first_placement(
            replication, capacity, bit_rate_mbps=rate
        )
        rows[f"fixed@{rate:g}"] = _simulate_layout(
            setup, cluster, videos, layout, theta,
            eval_rate_per_min, num_runs, setup.seed,
        )

    return {
        "design_rate_per_min": design_rate_per_min,
        "eval_rate_per_min": eval_rate_per_min,
        "degree": degree,
        "initial_objective": sa.objective_of(sa.initial_state(np.random.default_rng(0))),
        "best_objective": -best.best_cost,
        "chain_objectives": [-c for c in chains.best_costs],
        "levels": best.levels,
        "steps": best.steps,
        "acceptance_rate": best.acceptance_rate,
        "objective_history": [-c for c in best.cost_history],
        "solutions": rows,
    }


def format_sa_report(results: dict) -> str:
    """Render the SA study."""
    header = (
        f"E5 simulated annealing (scalable bit rates)\n"
        f"design lambda = {results['design_rate_per_min']:.1f}/min, "
        f"eval lambda = {results['eval_rate_per_min']:.1f}/min, "
        f"storage degree(4Mb/s) = {results['degree']:g}\n"
        f"objective: initial {results['initial_objective']:.4f} -> best "
        f"{results['best_objective']:.4f} "
        f"(chains: {', '.join(f'{c:.4f}' for c in results['chain_objectives'])}; "
        f"{results['levels']} levels, {results['steps']} steps, "
        f"acceptance {results['acceptance_rate']:.2f})"
    )
    table = format_table(
        ["solution", "mean rate Mb/s", "repl degree", "rejection", "L(%)"],
        [
            [
                name,
                row["mean_rate"],
                row["degree"],
                row["rejection"],
                row["imbalance_pct"],
            ]
            for name, row in results["solutions"].items()
        ],
        floatfmt=".3f",
        title="Quality/availability profile (simulated at eval lambda)",
    )
    history = results["objective_history"]
    sampled = history[:: max(len(history) // 12, 1)]
    trajectory = "objective trajectory: " + " -> ".join(f"{v:.3f}" for v in sampled)
    return f"{header}\n\n{table}\n\n{trajectory}"


def run_weight_sensitivity(
    setup: PaperSetup | None = None,
    *,
    degree: float = 1.6,
    weights: tuple[tuple[float, float], ...] = (
        (1.0, 1.0),
        (0.25, 1.0),
        (4.0, 1.0),
        (1.0, 0.25),
        (1.0, 4.0),
    ),
    steps_per_level: int = 200,
    max_levels: int = 80,
) -> list[dict]:
    """E5b — how Eq. (1)'s alpha/beta steer the annealed solution.

    The paper introduces the weighting factors without exploring them; a
    high ``alpha`` should buy replicas (availability) at the cost of bit
    rate, a high ``beta`` should flatten the load at the cost of both.
    """
    import dataclasses

    from ..model import ObjectiveWeights

    setup = setup or PaperSetup()
    rows = []
    for alpha, beta in weights:
        problem = setup.problem(
            setup.theta_high,
            degree,
            arrival_rate_per_min=0.75 * setup.saturation_rate_per_min,
            scalable=True,
        )
        problem = dataclasses.replace(
            problem, objective_weights=ObjectiveWeights(alpha=alpha, beta=beta)
        )
        sa = ScalableBitRateProblem(problem)
        annealer = SimulatedAnnealer(
            steps_per_level=steps_per_level,
            max_levels=max_levels,
            patience_levels=15,
        )
        result = annealer.run(sa, np.random.default_rng(setup.seed))
        state = result.best_state
        present = state > 0
        counts = present.sum(axis=1)
        loads = sa.server_loads(state)
        mean_load = float(loads.mean())
        rows.append(
            {
                "alpha": alpha,
                "beta": beta,
                "mean_rate": float(state[present].mean()),
                "degree": float(counts.mean()),
                "imbalance": float(np.abs(loads - mean_load).max() / mean_load)
                if mean_load
                else 0.0,
                "objective": -result.best_cost,
            }
        )
    return rows


def format_weight_sensitivity(rows: list[dict]) -> str:
    """Render the alpha/beta sweep."""
    return format_table(
        ["alpha", "beta", "mean rate Mb/s", "repl degree", "rel. imbalance", "objective"],
        [
            [
                f"{r['alpha']:g}",
                f"{r['beta']:g}",
                r["mean_rate"],
                r["degree"],
                r["imbalance"],
                r["objective"],
            ]
            for r in rows
        ],
        floatfmt=".3f",
        title="E5b objective-weight sensitivity (annealed solutions)",
    )


def format_sa_tables(results: dict, sensitivity: list[dict]) -> str:
    """The E5 report followed by the E5b table (the ``sa`` CLI output)."""
    return format_sa_report(results) + "\n\n" + format_weight_sensitivity(sensitivity)


#: Annealing budgets of the ``--quick`` tables; ``benchmarks/bench_sa.py``
#: times the same run and writes the same ``results/sa.txt``.
QUICK_SA = {"num_chains": 2, "steps_per_level": 120, "max_levels": 50}
QUICK_SENSITIVITY = {"steps_per_level": 80, "max_levels": 40}


def main(quick: bool = False, chart: bool = False) -> str:
    """CLI entry point; returns the formatted report (tables only)."""
    del chart  # no natural curve view for this report
    if quick:
        setup = PaperSetup().quick(num_runs=3)
        results = run_sa_experiment(setup, **QUICK_SA)
        sensitivity = run_weight_sensitivity(setup, **QUICK_SENSITIVITY)
    else:
        setup = PaperSetup()
        results = run_sa_experiment(setup)
        sensitivity = run_weight_sensitivity(setup)
    return format_sa_tables(results, sensitivity)
