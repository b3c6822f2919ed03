"""Tests for the simulated-annealing engine and the VoD problem (Sec. 4.3)."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.annealing import (
    GeometricCooling,
    LinearCooling,
    LogarithmicCooling,
    ScalableBitRateProblem,
    SimulatedAnnealer,
    estimate_initial_temperature,
    run_chains,
)
from repro.model import ObjectiveWeights, ReplicationProblem


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
class TestSchedules:
    def test_geometric(self):
        schedule = GeometricCooling(10.0, alpha=0.5)
        assert schedule.temperature(0) == 10.0
        assert schedule.temperature(2) == pytest.approx(2.5)

    def test_geometric_freezes(self):
        schedule = GeometricCooling(1.0, alpha=0.1, floor=1e-3)
        assert not schedule.is_frozen(0)
        assert schedule.is_frozen(5)

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            GeometricCooling(0.0)
        with pytest.raises(ValueError):
            GeometricCooling(1.0, alpha=1.0)

    def test_linear(self):
        schedule = LinearCooling(10.0, 3.0)
        assert schedule.temperature(3) == pytest.approx(1.0)
        assert schedule.temperature(10) == 0.0

    def test_logarithmic_decreasing(self):
        schedule = LogarithmicCooling(5.0)
        temps = [schedule.temperature(k) for k in range(10)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_estimate_initial_temperature(self):
        deltas = np.array([1.0, 1.0, 1.0])
        t0 = estimate_initial_temperature(deltas, target_acceptance=np.exp(-1.0))
        assert t0 == pytest.approx(1.0)

    def test_estimate_with_no_uphill(self):
        assert estimate_initial_temperature(np.array([-1.0, -2.0])) == pytest.approx(
            1e-6
        )


# ----------------------------------------------------------------------
# Engine on a known toy problem
# ----------------------------------------------------------------------
class QuadraticToy:
    """Minimize (x - 7)^2 over integers; global optimum trivially known."""

    def initial_state(self, rng):
        return int(rng.integers(-100, 100))

    def cost(self, state):
        return float((state - 7) ** 2)

    def propose(self, state, rng):
        return state + int(rng.integers(-3, 4))


class DeceptiveToy(QuadraticToy):
    """A proposal that sometimes fails (returns None)."""

    def propose(self, state, rng):
        if rng.random() < 0.3:
            return None
        return super().propose(state, rng)


class TestEngine:
    def test_finds_global_optimum(self):
        annealer = SimulatedAnnealer(
            GeometricCooling(50.0, alpha=0.9), steps_per_level=50, max_levels=60
        )
        result = annealer.run(QuadraticToy(), np.random.default_rng(3))
        assert result.best_state == 7
        assert result.best_cost == 0.0

    def test_handles_none_proposals(self):
        annealer = SimulatedAnnealer(
            GeometricCooling(50.0, alpha=0.9), steps_per_level=50, max_levels=60
        )
        result = annealer.run(DeceptiveToy(), np.random.default_rng(3))
        assert result.best_cost == 0.0

    def test_auto_calibrated_schedule(self):
        annealer = SimulatedAnnealer(steps_per_level=50, max_levels=60)
        result = annealer.run(QuadraticToy(), np.random.default_rng(4))
        assert result.best_cost <= 1.0

    def test_patience_terminates_early(self):
        annealer = SimulatedAnnealer(
            GeometricCooling(1e-6, alpha=0.99),
            steps_per_level=10,
            max_levels=1000,
            patience_levels=5,
        )
        result = annealer.run(QuadraticToy(), np.random.default_rng(5))
        assert result.levels < 1000

    def test_history_recorded(self):
        annealer = SimulatedAnnealer(
            GeometricCooling(10.0), steps_per_level=10, max_levels=10,
            patience_levels=0,
        )
        result = annealer.run(QuadraticToy(), np.random.default_rng(6))
        assert len(result.cost_history) == result.levels + 1

    def test_reproducible(self):
        annealer = SimulatedAnnealer(GeometricCooling(10.0), steps_per_level=20)
        a = annealer.run(QuadraticToy(), np.random.default_rng(9))
        b = annealer.run(QuadraticToy(), np.random.default_rng(9))
        assert a.best_state == b.best_state
        assert a.cost_history == b.cost_history

    def test_acceptance_rate_bounds(self):
        annealer = SimulatedAnnealer(GeometricCooling(10.0), steps_per_level=20)
        result = annealer.run(QuadraticToy(), np.random.default_rng(10))
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatedAnnealer(steps_per_level=0)
        with pytest.raises(ValueError):
            SimulatedAnnealer(max_levels=0)


class TestChains:
    def test_best_chain_selected(self):
        annealer = SimulatedAnnealer(
            GeometricCooling(50.0), steps_per_level=30, max_levels=40
        )
        chains = run_chains(QuadraticToy(), annealer, num_chains=3, seed=1)
        assert chains.best.best_cost == min(chains.best_costs)
        assert len(chains.results) == 3

    def test_reproducible(self):
        annealer = SimulatedAnnealer(GeometricCooling(50.0), steps_per_level=30)
        a = run_chains(QuadraticToy(), annealer, num_chains=2, seed=5)
        b = run_chains(QuadraticToy(), annealer, num_chains=2, seed=5)
        assert a.best_costs == b.best_costs


# ----------------------------------------------------------------------
# The VoD scalable-bit-rate problem
# ----------------------------------------------------------------------
def make_problem(m=30, n=4, storage=60.0, bandwidth=900.0, lam=8.0):
    return ReplicationProblem(
        cluster=ClusterSpec.homogeneous(n, storage_gb=storage, bandwidth_mbps=bandwidth),
        videos=VideoCollection.homogeneous(m),
        popularity=ZipfPopularity(m, 0.75),
        arrival_rate_per_min=lam,
        peak_minutes=90.0,
        allowed_bit_rates_mbps=(2.0, 3.0, 4.0, 5.0, 6.0),
        objective_weights=ObjectiveWeights(alpha=1.0, beta=1.0),
    )


class TestScalableBitRateProblem:
    def test_requires_multiple_rates(self, paper_problem):
        with pytest.raises(ValueError, match="at least two"):
            ScalableBitRateProblem(paper_problem)

    def test_initial_state_structure(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        present = state > 0
        np.testing.assert_array_equal(present.sum(axis=1), 1)
        assert np.all(state[present] == 2.0)
        # Round robin: server k holds videos k, k+N, ...
        assert state[0, 0] > 0 and state[1, 1] > 0 and state[4, 0] > 0

    def test_initial_infeasible_raises(self, rng):
        problem = make_problem(m=100, n=2, storage=5.0)
        with pytest.raises(ValueError, match="infeasible"):
            ScalableBitRateProblem(problem).initial_state(rng)

    def test_cost_rewards_quality(self, rng):
        # Raising every replica's rate uniformly scales all loads equally,
        # leaving relative imbalance unchanged, so only quality moves.
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        upgraded = np.where(state > 0, 3.0, 0.0)
        assert np.isfinite(sa.cost(state))
        assert sa.cost(upgraded) < sa.cost(state)

    def test_cost_rewards_replicas(self, rng):
        # Duplicating every video symmetrically (mirror server pairing)
        # keeps loads balanced and doubles the replica term.
        sa = ScalableBitRateProblem(make_problem(m=8, n=4))
        state = sa.initial_state(rng)
        doubled = state.copy()
        for video in range(8):
            server = int(np.flatnonzero(state[video] > 0)[0])
            doubled[video, (server + 2) % 4] = state[video, server]
        assert sa.cost(doubled) < sa.cost(state)

    def test_cost_rejects_lost_video(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        state[0, 0] = 0.0
        with pytest.raises(ValueError, match="Eq. 7"):
            sa.cost(state)

    def test_proposals_preserve_feasibility(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        accepted = 0
        for _ in range(300):
            neighbor = sa.propose(state, rng)
            if neighbor is None:
                continue
            accepted += 1
            assert sa._violating_servers(neighbor).size == 0
            assert np.all((neighbor > 0).sum(axis=1) >= 1)
            state = neighbor
        assert accepted > 100  # the neighborhood is productive

    def test_rates_stay_in_allowed_set(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        for _ in range(200):
            neighbor = sa.propose(state, rng)
            if neighbor is not None:
                state = neighbor
        values = np.unique(state)
        allowed = {0.0, 2.0, 3.0, 4.0, 5.0, 6.0}
        assert set(values.tolist()) <= allowed

    def test_full_anneal_improves_objective(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        annealer = SimulatedAnnealer(steps_per_level=60, max_levels=50, patience_levels=10)
        result = annealer.run(sa, rng)
        initial_cost = sa.cost(sa.initial_state(rng))
        assert result.best_cost < initial_cost
        layout = sa.to_layout(result.best_state)
        layout.validate(
            sa.problem.cluster,
            sa.problem.videos.with_bit_rates(layout.video_bit_rates),
            allow_mixed_rates=True,
        )

    def test_objective_of_is_negated_cost(self, rng):
        sa = ScalableBitRateProblem(make_problem())
        state = sa.initial_state(rng)
        assert sa.objective_of(state) == pytest.approx(-sa.cost(state))
