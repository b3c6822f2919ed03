"""Property tests for the online serving control plane.

The load-bearing properties the PR's issue pins:

* request conservation — per epoch, admitted + rejected == simulated and
  simulated + truncated == generated;
* the migration budget is never exceeded by a re-planning migration;
* elasticity hysteresis — two add/drain actions are never within the
  cooldown window, so the policy cannot oscillate;
* with re-planning and elasticity disabled the control loop is
  bit-identical to manually chained batch epochs;
* warm-start SA never returns a state worse than its incumbent.
"""

import numpy as np
import pytest

from repro.dynamic import DriftDetector
from repro.experiments.config import PaperSetup
from repro.pipeline import PipelineConfig
from repro.serving import (
    ElasticityController,
    ElasticityPolicy,
    ServingConfig,
    ServingControlPlane,
    bootstrap_layout,
    chain_batch_epochs,
    epoch_offered_rate,
    epoch_offered_rates,
    epoch_rng,
    epoch_trace,
    evolve_popularity,
    parse_drift,
    replica_budget_for,
)

#: A deliberately small cluster: 3 servers x 120 Mb/s -> 90 concurrent
#: 4 Mb/s streams, saturating at 90/12 = 7.5 requests/min.
SETUP = PaperSetup(
    num_servers=3,
    server_bandwidth_mbps=120.0,
    num_videos=12,
    duration_min=12.0,
    peak_minutes=15.0,
    num_runs=1,
    seed=987,
)


def make_config(**overrides):
    defaults = dict(
        epochs=4,
        epoch_minutes=15.0,
        base_rate_per_min=2.0,
        peak_rate_per_min=5.0,
        day_epochs=4,
        setup=SETUP,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


# ----------------------------------------------------------------------
# Config validation and derivation
# ----------------------------------------------------------------------
class TestServingConfig:
    def test_defaults_resolve_from_setup(self):
        config = ServingConfig(setup=SETUP)
        assert config.resolved_epoch_minutes == SETUP.peak_minutes
        assert config.resolved_seed == SETUP.seed
        assert config.min_servers == SETUP.num_servers
        assert config.max_servers == 2 * SETUP.num_servers

    def test_explicit_seed_wins(self):
        assert make_config(seed=5).resolved_seed == 5

    def test_unknown_replan_mode_rejected(self):
        with pytest.raises(ValueError, match="replan"):
            make_config(replan="sometimes")

    def test_peak_below_base_rejected(self):
        with pytest.raises(ValueError, match="peak_rate_per_min"):
            make_config(base_rate_per_min=9.0, peak_rate_per_min=3.0)

    def test_drift_spec_string_is_parsed(self):
        config = make_config(drift="lognormal:0.3")
        from repro.dynamic import LognormalDrift

        assert isinstance(config.drift, LognormalDrift)

    def test_bogus_drift_object_rejected(self):
        with pytest.raises(TypeError, match="drift"):
            make_config(drift=object())

    def test_failure_spec_string_is_parsed(self):
        from repro.cluster_sim import FailureSpec

        config = make_config(failures="random:mtbf=30,mttr=5")
        assert isinstance(config.failures, FailureSpec)

    def test_frozen_disables_adaptation(self):
        frozen = make_config(replan="always", elastic=True).frozen()
        assert frozen.replan == "never"
        assert frozen.elastic is False

    def test_min_servers_must_store_catalogue(self):
        with pytest.raises(ValueError, match="min_servers"):
            make_config(min_servers=1)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError, match="max_servers"):
            make_config(min_servers=3, max_servers=2)

    def test_negative_move_budget_rejected(self):
        with pytest.raises(ValueError, match="move_budget"):
            make_config(move_budget=-1)

    def test_from_pipeline_carries_design_point(self):
        pipeline = PipelineConfig(
            theta=0.6,
            replication_degree=1.4,
            arrival_rate_per_min=6.0,
            dispatcher="least_loaded",
            setup=SETUP,
        )
        config = ServingConfig.from_pipeline(pipeline, epochs=3)
        assert config.theta == 0.6
        assert config.replication_degree == 1.4
        assert config.peak_rate_per_min == 6.0
        assert config.base_rate_per_min == 3.0
        assert config.dispatcher == "least_loaded"
        assert config.epochs == 3
        assert config.setup is SETUP


class TestParseDrift:
    def test_none_variants(self):
        assert parse_drift(None) is None
        assert parse_drift("none") is None

    def test_kinds(self):
        from repro.dynamic import LognormalDrift, RankSwapDrift, ReleaseChurnDrift

        assert isinstance(parse_drift("rankswap:3"), RankSwapDrift)
        assert isinstance(parse_drift("release:2"), ReleaseChurnDrift)
        assert isinstance(parse_drift("lognormal:0.5"), LognormalDrift)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="drift spec"):
            parse_drift("brownian:1")


# ----------------------------------------------------------------------
# Workload: diurnal trapezoid + flash crowds, per-epoch determinism
# ----------------------------------------------------------------------
class TestServingWorkload:
    def test_epoch_rng_is_deterministic_and_stream_separated(self):
        a = epoch_rng(7, 3, 0x5E12).integers(0, 1 << 30, 8)
        b = epoch_rng(7, 3, 0x5E12).integers(0, 1 << 30, 8)
        np.testing.assert_array_equal(a, b)
        other_epoch = epoch_rng(7, 4, 0x5E12).integers(0, 1 << 30, 8)
        other_tag = epoch_rng(7, 3, 0xD21F).integers(0, 1 << 30, 8)
        assert not np.array_equal(a, other_epoch)
        assert not np.array_equal(a, other_tag)

    def test_offered_rate_within_trapezoid_bounds(self):
        config = make_config(epochs=8)
        for epoch in range(config.epochs):
            rate = epoch_offered_rate(config, epoch)
            assert (
                config.base_rate_per_min - 1e-9
                <= rate
                <= config.peak_rate_per_min + 1e-9
            )

    def test_offered_rate_repeats_with_the_day(self):
        config = make_config(epochs=8, day_epochs=4)
        for epoch in range(4):
            assert epoch_offered_rate(config, epoch) == pytest.approx(
                epoch_offered_rate(config, epoch + 4)
            )

    def test_flash_epoch_raises_offered_rate(self):
        calm = make_config(epochs=4)
        flashed = make_config(epochs=4, flash_epochs=(1,), flash_multiplier=2.0)
        assert epoch_offered_rate(flashed, 1) > epoch_offered_rate(calm, 1)
        assert epoch_offered_rate(flashed, 2) == pytest.approx(
            epoch_offered_rate(calm, 2)
        )

    def test_offered_rates_equal_per_epoch_rates_with_one_integral_per_slot(
        self, monkeypatch
    ):
        from repro.serving import workload

        config = make_config(
            epochs=13, day_epochs=4, flash_epochs=(1, 6, 9), flash_multiplier=3.0
        )
        expected = [epoch_offered_rate(config, e) for e in range(config.epochs)]
        integrated = []
        exact = workload.epoch_offered_rate

        def spy(config, epoch):
            integrated.append(epoch)
            return exact(config, epoch)

        monkeypatch.setattr(workload, "epoch_offered_rate", spy)
        assert epoch_offered_rates(config) == expected
        # Slot 1 first comes flashed (epoch 1), then calm (epoch 5); slot 2
        # first calm, then flashed (epoch 6); epoch 9 repeats slot 1 flashed.
        assert integrated == [0, 1, 2, 3, 5, 6]

    def test_epoch_trace_replays_bit_identically(self):
        config = make_config()
        probs = SETUP.popularity(0.75).probabilities
        first = epoch_trace(config, 2, probs)
        second = epoch_trace(config, 2, probs)
        np.testing.assert_array_equal(first.arrival_min, second.arrival_min)
        np.testing.assert_array_equal(first.videos, second.videos)

    def test_epoch_traces_differ_across_epochs(self):
        config = make_config()
        probs = SETUP.popularity(0.75).probabilities
        t0 = epoch_trace(config, 0, probs)
        t1 = epoch_trace(config, 1, probs)
        assert (
            t0.num_requests != t1.num_requests
            or not np.array_equal(t0.arrival_min, t1.arrival_min)
        )

    def test_evolve_popularity_epoch_zero_is_identity(self):
        config = make_config(drift="release:3")
        probs = SETUP.popularity(0.75).probabilities
        np.testing.assert_array_equal(
            evolve_popularity(config, 0, probs), probs
        )

    def test_evolve_popularity_is_deterministic(self):
        config = make_config(drift="lognormal:0.5")
        probs = SETUP.popularity(0.75).probabilities
        one = evolve_popularity(config, 2, probs)
        two = evolve_popularity(config, 2, probs)
        np.testing.assert_array_equal(one, two)
        assert not np.array_equal(one, probs)


# ----------------------------------------------------------------------
# Drift detector
# ----------------------------------------------------------------------
class TestDriftDetector:
    def test_identical_vectors_score_zero(self):
        probs = SETUP.popularity(0.75).probabilities
        assert DriftDetector().score(probs, probs) == 0.0

    def test_total_variation_value(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        assert DriftDetector().score(p, q) == pytest.approx(0.5)

    def test_threshold_is_strict(self):
        # The first warm epoch is the first compared with the threshold,
        # and no earlier decision depends on it: rerunning with the
        # threshold at exactly that epoch's score must keep the layout,
        # and one ulp below must re-plan.
        def first_warm(threshold):
            config = make_config(
                epochs=2, drift="release:4", replan="drift",
                drift_threshold=threshold,
            )
            snapshots = ServingControlPlane(config).run().snapshots
            return next(s for s in snapshots if not s.cold)

        score = first_warm(0.5).drift_score
        assert 0.0 < score < 0.5
        assert not first_warm(score).replanned
        assert first_warm(float(np.nextafter(score, 0.0))).replanned

    def test_plane_replans_when_score_exceeds_threshold(self):
        outcomes = set()
        for threshold in (0.1, 0.2):
            config = make_config(
                epochs=6, drift="release:4", replan="drift",
                drift_threshold=threshold,
            )
            for s in ServingControlPlane(config).run().snapshots:
                assert not s.cold
                assert s.replanned == (s.drift_score > threshold)
                outcomes.add(s.replanned)
        assert outcomes == {True, False}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            DriftDetector().score(np.array([1.0]), np.array([0.5, 0.5]))

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            DriftDetector(1.5)


# ----------------------------------------------------------------------
# Elasticity policy hysteresis (unit level)
# ----------------------------------------------------------------------
class TestElasticity:
    def make(self, **overrides):
        defaults = dict(
            slo_rejection_rate=0.10,
            breach_epochs=2,
            relax_epochs=3,
            cooldown_epochs=2,
            min_servers=2,
            max_servers=5,
        )
        defaults.update(overrides)
        return ElasticityController(ElasticityPolicy(**defaults))

    def test_add_after_sustained_breach(self):
        controller = self.make()
        assert controller.decide(0, 0.5, 3) == 0
        assert controller.decide(1, 0.5, 3) == 1

    def test_single_breach_is_not_enough(self):
        controller = self.make()
        assert controller.decide(0, 0.5, 3) == 0
        assert controller.decide(1, 0.0, 3) == 0  # calm resets the streak
        assert controller.decide(2, 0.5, 3) == 0

    def test_dead_band_resets_both_streaks(self):
        controller = self.make()
        controller.decide(0, 0.5, 3)
        # Between the watermark (0.05) and the SLO (0.10): no streak moves.
        assert controller.decide(1, 0.07, 3) == 0
        assert controller.decide(2, 0.5, 3) == 0  # streak restarted at 1
        assert controller.decide(3, 0.5, 3) == 1

    def test_drain_after_sustained_calm(self):
        controller = self.make()
        assert controller.decide(0, 0.0, 4) == 0
        assert controller.decide(1, 0.0, 4) == 0
        assert controller.decide(2, 0.0, 4) == -1

    def test_cooldown_blocks_back_to_back_actions(self):
        controller = self.make(breach_epochs=1, cooldown_epochs=2)
        assert controller.decide(0, 0.5, 3) == 1
        assert controller.decide(1, 0.5, 4) == 0  # in cooldown
        assert controller.decide(2, 0.5, 4) == 0  # still in cooldown
        assert controller.decide(3, 0.5, 4) == 1

    def test_no_add_at_ceiling_no_drain_at_floor(self):
        controller = self.make(breach_epochs=1, relax_epochs=1, cooldown_epochs=0)
        assert controller.decide(0, 0.5, 5) == 0  # at max_servers
        assert controller.decide(1, 0.0, 2) == 0  # at min_servers

    def test_no_oscillation_on_alternating_signal(self):
        # A workload flapping between breach and calm can never produce
        # two actions within the cooldown window.
        controller = self.make(breach_epochs=1, relax_epochs=1, cooldown_epochs=1)
        servers = 3
        action_epochs = []
        for epoch in range(20):
            rate = 0.5 if epoch % 2 == 0 else 0.0
            action = controller.decide(epoch, rate, servers)
            if action:
                action_epochs.append(epoch)
                servers += action
        for prev, cur in zip(action_epochs, action_epochs[1:]):
            assert cur - prev > 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_servers"):
            ElasticityPolicy(min_servers=4, max_servers=3)
        with pytest.raises(ValueError, match="breach_epochs"):
            ElasticityPolicy(breach_epochs=0)

    def test_drain_watermark_is_half_the_slo(self):
        assert ElasticityPolicy(slo_rejection_rate=0.08).drain_watermark == 0.04


# ----------------------------------------------------------------------
# Budget scaling + bootstrap
# ----------------------------------------------------------------------
class TestBudgetAndBootstrap:
    def test_budget_at_design_size_matches_setup(self):
        config = make_config(replication_degree=1.2)
        assert replica_budget_for(config, SETUP.num_servers) == max(
            SETUP.num_videos, SETUP.replica_budget(1.2)
        )

    def test_budget_scales_monotonically_and_stays_bounded(self):
        config = make_config(replication_degree=1.2)
        capacity = SETUP.capacity_replicas(1.2)
        previous = 0
        for n in range(3, 7):
            budget = replica_budget_for(config, n)
            assert budget >= SETUP.num_videos
            assert budget <= n * capacity
            assert budget >= previous
            previous = budget

    def test_bootstrap_layout_covers_catalogue_within_capacity(self):
        config = make_config()
        layout = bootstrap_layout(config)
        assert layout.num_servers == SETUP.num_servers
        assert (layout.replica_counts >= 1).all()
        capacity = SETUP.capacity_replicas(config.replication_degree)
        assert layout.server_replica_counts().max() <= capacity


# ----------------------------------------------------------------------
# Control-plane end-to-end properties
# ----------------------------------------------------------------------
class TestControlPlaneProperties:
    def test_request_conservation_every_epoch(self):
        config = make_config(
            epochs=5,
            peak_rate_per_min=12.0,  # over saturation: rejections happen
            base_rate_per_min=6.0,
            drift="release:3",
            replan="always",
        )
        result = ServingControlPlane(config).run()
        assert result.total_rejected > 0
        for s in result.snapshots:
            assert s.num_admitted + s.num_rejected == s.num_requests
            assert s.num_requests + s.num_truncated == s.num_generated

    def test_frozen_loop_is_bit_identical_to_chained_batch(self):
        config = make_config(
            epochs=4,
            drift="lognormal:0.6",
            flash_epochs=(2,),
            failures="random:mtbf=20,mttr=4",
            failover_on_down=True,
        ).frozen()
        plane_run = ServingControlPlane(config).run()
        batch = chain_batch_epochs(config)
        assert len(batch) == len(plane_run.snapshots)
        for snapshot, batch_result in zip(plane_run.snapshots, batch):
            assert snapshot.result.same_outcome(batch_result)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(drift="release:2", replan="drift", move_budget=4),
            dict(
                base_rate_per_min=18.0, peak_rate_per_min=24.0,
                drift="release:2", replan="drift", elastic=True,
                breach_epochs=1, cooldown_epochs=1, max_servers=6,
            ),
            dict(
                drift="lognormal:0.6", replan="always", screen=True,
                shards=2, failures="random:mtbf=20,mttr=4",
                failover_on_down=True,
            ),
        ],
    )
    def test_epoch_simulator_reuse_matches_fresh_builds(
        self, overrides, monkeypatch
    ):
        import repro.serving.plane as plane_module

        class FreshPlane(ServingControlPlane):
            def _epoch_simulator(self, layout, num_servers):
                self._epoch_sim = None
                return super()._epoch_simulator(layout, num_servers)

        config = make_config(epochs=8, **overrides)
        builds = []
        build = plane_module.make_simulator
        monkeypatch.setattr(
            plane_module, "make_simulator",
            lambda *args, **kwargs: builds.append(1) or build(*args, **kwargs),
        )
        reused = ServingControlPlane(config).run()
        reused_builds = len(builds)
        fresh = FreshPlane(config).run()
        assert len(builds) - reused_builds == config.epochs
        # A new layout object or server count after epoch e is one
        # rebuild before epoch e + 1.
        changed = [
            s.migration_executed or s.elasticity_action != 0
            for s in reused.snapshots[:-1]
        ]
        assert reused_builds == 1 + sum(changed) < config.epochs
        assert reused.digest() == fresh.digest()
        for a, b in zip(reused.snapshots, fresh.snapshots):
            assert a.result.same_outcome(b.result)

    def test_run_digest_is_deterministic(self):
        config = make_config(drift="release:2", replan="always", elastic=True)
        assert (
            ServingControlPlane(config).run().digest()
            == ServingControlPlane(config).run().digest()
        )

    def test_observer_does_not_perturb_the_run(self):
        from repro.observe import Observer

        config = make_config(drift="release:2", replan="always")
        observer = Observer()
        observed = ServingControlPlane(config, observer=observer).run()
        plain = ServingControlPlane(config).run()
        assert observed.digest() == plain.digest()
        snap = observer.snapshot()
        assert snap["metrics"]["counters"]["serving.epochs"] == config.epochs

    def test_move_budget_is_respected(self):
        config = make_config(
            epochs=5, drift="release:4", replan="always", move_budget=3
        )
        result = ServingControlPlane(config).run()
        assert result.replans >= 1
        for s in result.snapshots:
            assert s.replicas_copied <= 3

    def test_zero_budget_never_moves_a_replica(self):
        config = make_config(
            epochs=4, drift="release:4", replan="always", move_budget=0
        )
        result = ServingControlPlane(config).run()
        assert result.total_replicas_copied == 0

    def test_replan_always_executes_migrations_under_drift(self):
        config = make_config(epochs=5, drift="release:4", replan="always")
        result = ServingControlPlane(config).run()
        assert result.replans >= 1
        assert result.total_replicas_copied > 0

    def test_drift_mode_triggers_only_over_threshold(self):
        drifting = make_config(
            epochs=5, drift="release:4", replan="drift", drift_threshold=0.01
        )
        assert ServingControlPlane(drifting).run().replans >= 1
        insensitive = make_config(
            epochs=5, drift="release:4", replan="drift", drift_threshold=1.0
        )
        assert ServingControlPlane(insensitive).run().replans == 0

    def test_elasticity_adds_servers_under_overload(self):
        config = make_config(
            epochs=6,
            base_rate_per_min=18.0,
            peak_rate_per_min=24.0,  # ~3x saturation
            elastic=True,
            slo_rejection_rate=0.05,
            breach_epochs=1,
            cooldown_epochs=1,
            max_servers=6,
        )
        result = ServingControlPlane(config).run()
        assert result.servers_added >= 1
        assert result.final_num_servers > SETUP.num_servers
        assert result.slo_breaches >= 1

    def test_elasticity_actions_respect_cooldown(self):
        config = make_config(
            epochs=8,
            base_rate_per_min=18.0,
            peak_rate_per_min=24.0,
            elastic=True,
            breach_epochs=1,
            cooldown_epochs=2,
            max_servers=8,
        )
        result = ServingControlPlane(config).run()
        action_epochs = [
            s.epoch for s in result.snapshots if s.elasticity_action != 0
        ]
        assert len(action_epochs) >= 1
        for prev, cur in zip(action_epochs, action_epochs[1:]):
            assert cur - prev > 2

    def test_added_server_reduces_rejection(self):
        config = make_config(
            epochs=6,
            base_rate_per_min=18.0,
            peak_rate_per_min=24.0,
            elastic=True,
            breach_epochs=1,
            cooldown_epochs=1,
            max_servers=6,
        )
        adaptive = ServingControlPlane(config).run()
        frozen = ServingControlPlane(config.frozen()).run()
        assert adaptive.mean_rejection_rate < frozen.mean_rejection_rate

    def test_cold_epochs_are_strict_noops(self):
        config = make_config(
            epochs=3,
            base_rate_per_min=0.0,
            peak_rate_per_min=1e-6,
            drift="release:4",
            replan="always",
        )
        result = ServingControlPlane(config).run()
        bootstrap = bootstrap_layout(config)
        for s in result.snapshots:
            assert s.cold
            assert not s.replanned
            assert s.replicas_copied == 0
        np.testing.assert_array_equal(
            result.final_layout.rate_matrix, bootstrap.rate_matrix
        )

    def test_format_renders_timeline(self):
        config = make_config(epochs=2)
        text = ServingControlPlane(config).run().format()
        assert "serving timeline" in text
        assert "totals:" in text


# ----------------------------------------------------------------------
# Warm-start SA: the never-worse incumbent guarantee
# ----------------------------------------------------------------------
class TestWarmStartAnnealing:
    def make_problem(self):
        from repro.annealing import ScalableBitRateProblem

        setup = PaperSetup(
            num_servers=3,
            server_bandwidth_mbps=300.0,
            num_videos=15,
            duration_min=20.0,
            peak_minutes=20.0,
            num_runs=1,
            seed=11,
        )
        return ScalableBitRateProblem(
            setup.problem(0.75, 1.2, arrival_rate_per_min=6.0, scalable=True)
        )

    def test_warm_start_never_worse_than_incumbent(self):
        from repro.annealing import SimulatedAnnealer

        problem = self.make_problem()
        rng = np.random.default_rng(3)
        annealer = SimulatedAnnealer(
            steps_per_level=30, max_levels=6, patience_levels=0
        )
        # A good incumbent from a first run ...
        incumbent = annealer.run(problem, rng).best_state
        incumbent_cost = problem.cost(incumbent)
        # ... survives a warm-started run with a tiny budget and a fresh
        # rng: the engine may fail to improve but must never regress.
        short = SimulatedAnnealer(
            steps_per_level=2, max_levels=2, patience_levels=0
        )
        result = short.run(
            problem, np.random.default_rng(4), initial_state=incumbent
        )
        assert result.best_cost <= incumbent_cost + 1e-12

    def test_warm_start_does_not_mutate_the_incumbent(self):
        from repro.annealing import SimulatedAnnealer

        problem = self.make_problem()
        state = problem.initial_state(np.random.default_rng(0))
        before = state.copy()
        SimulatedAnnealer(
            steps_per_level=10, max_levels=3, patience_levels=0
        ).run(problem, np.random.default_rng(1), initial_state=state)
        np.testing.assert_array_equal(state, before)

    @pytest.mark.parametrize("use_incremental", [True, False])
    @pytest.mark.parametrize("overloaded", ["one-server", "every-server"])
    def test_violating_incumbent_returns_itself_or_a_feasible_state(
        self, overloaded, use_incremental
    ):
        # The serving polish warm-starts from whatever the migration
        # produced, which may break a server's storage or bandwidth
        # constraint.  Every accepted move passes the all-server check,
        # so the best state is the incumbent itself or a feasible one.
        from repro.annealing import SimulatedAnnealer

        problem = self.make_problem()
        incumbent = problem.initial_state(np.random.default_rng(0))
        if overloaded == "one-server":
            incumbent[::3, 0] = problem.max_rate
        else:
            incumbent[incumbent > 0] = problem.max_rate
        violating = problem._violating_servers(incumbent).size
        assert violating == (1 if overloaded == "one-server" else 3)
        annealer = SimulatedAnnealer(
            steps_per_level=20, max_levels=4, patience_levels=0
        )
        for seed in range(3):
            result = annealer.run(
                problem,
                np.random.default_rng(seed),
                initial_state=incumbent,
                use_incremental=use_incremental,
            )
            best = result.best_state
            assert np.array_equal(best, incumbent) or (
                problem._violating_servers(best).size == 0
            )
            if overloaded == "one-server":
                assert result.accepted > 0
                assert problem._violating_servers(best).size == 0

    def test_warm_start_paths_agree_across_engines(self):
        from repro.annealing import SimulatedAnnealer

        problem = self.make_problem()
        state = problem.initial_state(np.random.default_rng(0))
        annealer = SimulatedAnnealer(
            steps_per_level=15, max_levels=4, patience_levels=0
        )
        incremental = annealer.run(
            problem, np.random.default_rng(9), initial_state=state
        )
        full = annealer.run(
            problem,
            np.random.default_rng(9),
            initial_state=state,
            use_incremental=False,
        )
        assert incremental.steps == full.steps
        np.testing.assert_allclose(
            incremental.best_cost, full.best_cost, rtol=1e-9
        )


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_serve_subcommand_prints_timeline(self, capsys):
        from repro.__main__ import main

        code = main(
            [
                "serve",
                "--quick",
                "--epochs",
                "2",
                "--epoch-minutes",
                "10",
                "--base-rate",
                "4",
                "--peak-rate",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving timeline" in out
        assert "digest:" in out
