"""Tests for the dynamic (online) replication extension."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.dynamic import (
    EwmaPopularityTracker,
    LognormalDrift,
    NoDrift,
    PopularityDrift,
    RankSwapDrift,
    ReleaseChurnDrift,
    plan_migration,
)
from repro.experiments import PaperSetup
from repro.experiments.dynamic_experiment import run_dynamic_study
from repro.placement import smallest_load_first_placement
from repro.replication import adams_replication, zipf_interval_replication
from repro.serving import (
    ServingConfig,
    ServingControlPlane,
    bootstrap_layout,
    replica_budget_for,
)


# ----------------------------------------------------------------------
# Drift models
# ----------------------------------------------------------------------
class TestDrift:
    def probs(self, m=20, theta=0.75):
        return ZipfPopularity(m, theta).probabilities

    def test_no_drift_identity(self, rng):
        probs = self.probs()
        np.testing.assert_array_equal(NoDrift().evolve(probs, rng), probs)

    def test_rank_swap_preserves_multiset(self, rng):
        probs = self.probs()
        evolved = RankSwapDrift(10).evolve(probs, rng)
        np.testing.assert_allclose(np.sort(evolved), np.sort(probs))
        assert evolved.sum() == pytest.approx(1.0)

    def test_rank_swap_zero_swaps(self, rng):
        probs = self.probs()
        np.testing.assert_array_equal(RankSwapDrift(0).evolve(probs, rng), probs)

    def test_release_churn_valid_vector(self, rng):
        probs = self.probs(50)
        evolved = ReleaseChurnDrift(5).evolve(probs, rng)
        assert evolved.sum() == pytest.approx(1.0)
        assert np.all(evolved > 0)

    def test_release_churn_moves_mass(self, rng):
        probs = self.probs(100)
        evolved = ReleaseChurnDrift(10).evolve(probs, rng)
        assert np.abs(evolved - probs).sum() > 0.01

    def test_lognormal_zero_sigma(self, rng):
        probs = self.probs()
        np.testing.assert_array_equal(LognormalDrift(0.0).evolve(probs, rng), probs)

    def test_lognormal_valid_vector(self, rng):
        evolved = LognormalDrift(0.5).evolve(self.probs(), rng)
        assert evolved.sum() == pytest.approx(1.0)

    def test_repeated_drift_stays_valid(self, rng):
        probs = self.probs(30)
        drift = ReleaseChurnDrift(3)
        for _ in range(50):
            probs = drift.evolve(probs, rng)
            assert probs.sum() == pytest.approx(1.0)
            assert np.all(probs >= 0)


# ----------------------------------------------------------------------
# Tracker
# ----------------------------------------------------------------------
class TestTracker:
    def test_cold_start_uniform(self):
        tracker = EwmaPopularityTracker(4)
        np.testing.assert_allclose(tracker.estimate(), 0.25)

    def test_first_observation_replaces_prior(self):
        tracker = EwmaPopularityTracker(4, alpha=0.5, smoothing=0.0)
        estimate = tracker.observe(np.array([10, 10, 0, 0]))
        np.testing.assert_allclose(estimate, [0.5, 0.5, 0.0, 0.0])

    def test_ewma_blending(self):
        tracker = EwmaPopularityTracker(2, alpha=0.5, smoothing=0.0)
        tracker.observe(np.array([10, 0]))   # -> (1.0, 0.0)
        estimate = tracker.observe(np.array([0, 10]))  # 0.5*(0,1)+0.5*(1,0)
        np.testing.assert_allclose(estimate, [0.5, 0.5])

    def test_smoothing_keeps_cold_titles_alive(self):
        tracker = EwmaPopularityTracker(3, smoothing=1.0)
        estimate = tracker.observe(np.array([100, 0, 0]))
        assert np.all(estimate > 0)

    def test_converges_to_stationary_truth(self, rng):
        truth = ZipfPopularity(30, 0.75)
        tracker = EwmaPopularityTracker(30, alpha=0.3, smoothing=0.5)
        for _ in range(40):
            counts = np.bincount(truth.sample(5000, rng), minlength=30)
            tracker.observe(counts)
        corr = np.corrcoef(tracker.estimate(), truth.probabilities)[0, 1]
        assert corr > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaPopularityTracker(2, alpha=0.0)
        tracker = EwmaPopularityTracker(2)
        with pytest.raises(ValueError, match="shape"):
            tracker.observe(np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            tracker.observe(np.array([-1, 2]))

    def test_epochs_counted(self):
        tracker = EwmaPopularityTracker(2)
        tracker.observe(np.array([1, 1]))
        tracker.observe(np.array([1, 1]))
        assert tracker.epochs_observed == 2


# ----------------------------------------------------------------------
# Migration planning
# ----------------------------------------------------------------------
class TestMigration:
    def setup_layout(self, m=20, n=4, budget=40, capacity=10):
        probs = ZipfPopularity(m, 0.75).probabilities
        replication = adams_replication(probs, n, budget)
        layout = smallest_load_first_placement(replication, capacity)
        return probs, layout

    def test_identical_target_is_noop(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs, 4, 40)
        plan = plan_migration(layout, target, 10)
        assert plan.is_noop
        np.testing.assert_array_equal(
            plan.new_layout.presence, layout.presence
        )

    def test_counts_realized(self, rng):
        probs, layout = self.setup_layout()
        # New popularity reverses the ranking.
        new_probs = probs[::-1].copy()
        target = adams_replication(new_probs, 4, 40)
        plan = plan_migration(layout, target, 10)
        np.testing.assert_array_equal(
            plan.new_layout.replica_counts, target.replica_counts
        )

    def test_moves_bounded_by_count_deltas(self):
        probs, layout = self.setup_layout()
        new_probs = probs[::-1].copy()
        target = adams_replication(new_probs, 4, 40)
        plan = plan_migration(layout, target, 10)
        grow = np.maximum(
            target.replica_counts - layout.replica_counts, 0
        ).sum()
        # Copies = growth (+ occasional swap repairs, none expected here).
        assert plan.replicas_copied >= grow
        assert plan.replicas_copied <= grow + 4

    def test_existing_placements_preserved(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs, 4, 60)  # strictly more replicas
        plan = plan_migration(layout, target, 15)
        # Every old replica survives (no removals when counts only grow).
        assert not plan.removed
        assert np.all(plan.new_layout.presence >= layout.presence)

    def test_storage_respected(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs[::-1].copy(), 4, 40)
        plan = plan_migration(layout, target, 10)
        assert plan.new_layout.server_replica_counts().max() <= 10

    def test_distinct_servers_kept(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs[::-1].copy(), 4, 40)
        plan = plan_migration(layout, target, 10)
        counts = plan.new_layout.replica_counts
        assert counts.max() <= 4

    def test_bytes_moved(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs, 4, 44)
        plan = plan_migration(layout, target, 11)
        assert plan.bytes_moved_gb(2.7) == pytest.approx(plan.replicas_copied * 2.7)
        with pytest.raises(ValueError):
            plan.bytes_moved_gb(0.0)

    def test_shape_mismatch_rejected(self):
        probs, layout = self.setup_layout()
        target = adams_replication(ZipfPopularity(10, 0.5).probabilities, 4, 20)
        with pytest.raises(ValueError, match="disagree"):
            plan_migration(layout, target, 10)

    def test_over_capacity_rejected(self):
        probs, layout = self.setup_layout()
        target = adams_replication(probs, 4, 80)
        with pytest.raises(ValueError, match="storage"):
            plan_migration(layout, target, 10)

    def test_swap_repair_on_tight_storage(self):
        # Tight capacity with reversed popularity forces at least a valid
        # plan; swap repair keeps it feasible.
        probs = ZipfPopularity(12, 1.0).probabilities
        replication = adams_replication(probs, 3, 18)
        layout = smallest_load_first_placement(replication, 6)
        target = adams_replication(probs[::-1].copy(), 3, 18)
        plan = plan_migration(layout, target, 6)
        np.testing.assert_array_equal(
            plan.new_layout.replica_counts, target.replica_counts
        )
        assert plan.new_layout.server_replica_counts().max() <= 6


# ----------------------------------------------------------------------
# Re-planning on the serving control plane
# ----------------------------------------------------------------------
#: 3 servers x 120 Mb/s -> 90 concurrent 4 Mb/s streams, saturating at
#: 7.5 requests/min.
PLANE_SETUP = PaperSetup(
    num_servers=3,
    server_bandwidth_mbps=120.0,
    num_videos=12,
    duration_min=12.0,
    peak_minutes=15.0,
    num_runs=1,
    seed=987,
)


def plane_config(**overrides):
    defaults = dict(
        epochs=4,
        epoch_minutes=15.0,
        base_rate_per_min=2.0,
        peak_rate_per_min=5.0,
        day_epochs=4,
        replication_degree=2.0,
        replan="always",
        setup=PLANE_SETUP,
    )
    defaults.update(overrides)
    return ServingConfig(**defaults)


def cold_start_config(**overrides):
    """Epoch 0 lies wholly in a zero-rate base: it serves no request."""
    overrides.setdefault("epochs", 3)
    return plane_config(
        day_epochs=8, base_rate_per_min=0.0, peak_rate_per_min=6.0,
        **overrides,
    )


class InvertOnce(PopularityDrift):
    """Reverse a decreasing popularity vector; leave a reversed one be."""

    def evolve(self, probabilities, rng):
        probs = self._validated(probabilities)
        return probs[::-1].copy() if probs[0] > probs[-1] else probs.copy()


class TestController:
    def test_bootstrap_and_step(self):
        config = plane_config(epochs=1)
        bootstrap = bootstrap_layout(config)
        assert bootstrap.total_replicas <= replica_budget_for(
            config, PLANE_SETUP.num_servers
        )
        result = ServingControlPlane(config).run()
        s = result.snapshots[0]
        assert s.replanned and s.migration_executed
        assert result.final_layout.total_replicas <= replica_budget_for(
            config, PLANE_SETUP.num_servers
        )

    def test_adapts_to_inverted_popularity(self):
        # From epoch 1 on the least popular title is the most requested.
        config = plane_config(epochs=6, drift=InvertOnce(), tracker_alpha=0.6)
        counts = ServingControlPlane(config).run().final_layout.replica_counts
        assert counts[-1] > counts[0]
        frozen = ServingControlPlane(config.frozen()).run()
        assert frozen.final_layout.replica_counts[-1] < counts[-1]

    def test_move_budget_skips(self):
        config = plane_config(drift=InvertOnce(), move_budget=0)
        result = ServingControlPlane(config).run()
        skipped = [s for s in result.snapshots if not s.migration_executed]
        assert all(s.replanned for s in result.snapshots)
        assert any(s.proposed_copies > 0 for s in skipped)
        for s in result.snapshots:
            if s.migration_executed:  # the estimate moved too little
                assert s.proposed_copies == 0
            assert s.replicas_copied == 0
        np.testing.assert_array_equal(
            result.final_layout.rate_matrix,
            bootstrap_layout(config).rate_matrix,
        )

    def test_total_copied_accumulates(self):
        result = ServingControlPlane(plane_config(drift=InvertOnce())).run()
        per_epoch = [s.replicas_copied for s in result.snapshots]
        assert result.total_replicas_copied == sum(per_epoch)
        assert result.total_replicas_copied > 0


# ----------------------------------------------------------------------
# Re-planning epoch boundaries
# ----------------------------------------------------------------------
class TestControllerEpochBoundaries:
    def test_budget_boundary_is_inclusive(self):
        # A migration costing exactly the budget executes; one copy less
        # of budget keeps the bootstrap layout and records the proposal.
        config = plane_config(epochs=1)
        needed = ServingControlPlane(config).run().snapshots[0].proposed_copies
        assert needed > 0

        exact = ServingControlPlane(plane_config(epochs=1, move_budget=needed)).run()
        s = exact.snapshots[0]
        assert s.migration_executed and s.replicas_copied == needed

        tight = ServingControlPlane(
            plane_config(epochs=1, move_budget=needed - 1)
        ).run()
        s = tight.snapshots[0]
        assert s.replanned and not s.migration_executed
        assert s.replicas_copied == 0 and s.proposed_copies == needed
        np.testing.assert_array_equal(
            tight.final_layout.rate_matrix,
            bootstrap_layout(config).rate_matrix,
        )

    def test_zero_count_epoch_with_smoothing(self):
        # An epoch with no requests is a legal boundary that carries no
        # evidence: smoothing it into a uniform observation would drag
        # the estimate toward uniform and trigger a spurious migration.
        result = ServingControlPlane(
            cold_start_config(epochs=1, tracker_smoothing=1.0)
        ).run()
        s = result.snapshots[0]
        assert s.cold and not s.replanned and s.replicas_copied == 0
        np.testing.assert_array_equal(
            result.final_layout.rate_matrix,
            bootstrap_layout(result.config).rate_matrix,
        )

    def test_zero_count_epoch_without_smoothing_is_noop_too(self):
        # Without smoothing the tracker rejects an all-zero observation;
        # the cold-epoch guard stops it before the tracker sees it.
        result = ServingControlPlane(
            cold_start_config(epochs=1, tracker_smoothing=0.0)
        ).run()
        s = result.snapshots[0]
        assert s.cold and not s.replanned and s.replicas_copied == 0
        np.testing.assert_array_equal(
            result.final_layout.rate_matrix,
            bootstrap_layout(result.config).rate_matrix,
        )

    def test_epoch_zero_keeps_bootstrap_layout(self):
        # Epoch 0 serves the bootstrap layout on the same trace for all
        # three E11 strategies: the tracked plane only re-plans from
        # epoch 0's counts for epoch 1 onward.
        curves = run_dynamic_study(PLANE_SETUP, epochs=2)["curves"]
        assert curves["tracked"][0] == curves["static"][0]
        assert curves["oracle"][0] == curves["static"][0]


# ----------------------------------------------------------------------
# Migration under concurrent failure
# ----------------------------------------------------------------------
class TestMigrationUnderFailure:
    def test_migrated_layout_survives_concurrent_failures(self):
        """A freshly migrated layout, run under two overlapping server
        outages with failover, must keep every audited invariant."""
        from repro.cluster_sim import (
            FailureEvent,
            FailureSchedule,
            VoDClusterSimulator,
        )
        from repro.verify import standard_auditors
        from repro.workload import WorkloadGenerator

        popularity = ZipfPopularity(20, 1.0)
        bootstrap = smallest_load_first_placement(
            zipf_interval_replication(popularity.probabilities, 4, 40), 10
        )
        counts = np.zeros(20)
        counts[-1] = 800.0
        counts[:-1] = 5.0
        estimate = EwmaPopularityTracker(20, alpha=0.6).observe(counts)
        plan = plan_migration(
            bootstrap, zipf_interval_replication(estimate, 4, 40), 10
        )
        assert not plan.is_noop and plan.replicas_copied > 0

        cluster = ClusterSpec.homogeneous(
            4, storage_gb=1.0e6, bandwidth_mbps=500.0
        )
        videos = VideoCollection.homogeneous(20)
        trace = WorkloadGenerator.poisson_zipf(popularity, 15.0).generate(
            60.0, np.random.default_rng(9)
        )
        simulator = VoDClusterSimulator(cluster, videos, plan.new_layout)
        # Two servers down at once mid-epoch; auditors raise on any
        # bandwidth/conservation/accounting breakage.
        result = simulator.run(
            trace,
            horizon_min=60.0,
            failures=FailureSchedule(
                [FailureEvent(20.0, 0, 15.0), FailureEvent(25.0, 1, 10.0)]
            ),
            failover_on_down=True,
            auditors=standard_auditors(),
        )
        assert result.num_requests > 0
        assert result.streams_dropped > 0


# ----------------------------------------------------------------------
# E11 epoch study (integration)
# ----------------------------------------------------------------------
class TestEpochStudy:
    def test_oracle_never_worse_than_static_under_drift(self):
        results = run_dynamic_study(
            PLANE_SETUP, epochs=6, releases_per_epoch=2, arrival_fraction=0.9
        )
        curves = results["curves"]
        # Skip epoch 0 (identical layouts by construction).
        assert np.mean(curves["oracle"][1:]) <= np.mean(curves["static"][1:]) + 1e-9

    def test_record_structure(self):
        results = run_dynamic_study(PLANE_SETUP, epochs=2)
        assert results["epochs"] == [0, 1]
        assert set(results["curves"]) == {"static", "oracle", "tracked"}
        assert all(len(curve) == 2 for curve in results["curves"].values())
        assert set(results["replicas_copied"]) == set(results["curves"])

    def test_no_drift_all_equivalent(self):
        # Without releases the oracle re-solves the bootstrap problem every
        # epoch, so it serves exactly the static layout.
        results = run_dynamic_study(PLANE_SETUP, epochs=4, releases_per_epoch=0)
        assert results["curves"]["oracle"] == results["curves"]["static"]
        assert results["replicas_copied"]["static"] == 0


# ----------------------------------------------------------------------
# Cold-epoch regression: a zero-request epoch must be a strict no-op
# ----------------------------------------------------------------------
class TestColdEpoch:
    """Regression: folding an all-zero epoch into the tracker smears the
    estimate toward uniform (via the additive smoothing) and re-plans off
    pure noise."""

    def test_cold_epoch_is_noop(self):
        result = ServingControlPlane(cold_start_config(epochs=1)).run()
        s = result.snapshots[0]
        assert s.cold and s.num_requests == 0
        assert not s.replanned and not s.migration_executed
        assert s.replicas_copied == 0 and s.proposed_copies == 0
        assert s.drift_score == 0.0
        np.testing.assert_array_equal(
            result.final_layout.rate_matrix,
            bootstrap_layout(result.config).rate_matrix,
        )

    def test_cold_epoch_does_not_bias_later_estimates(self, monkeypatch):
        observed = []
        observe = EwmaPopularityTracker.observe

        def spy(tracker, counts):
            observed.append(int(np.sum(counts)))
            return observe(tracker, counts)

        monkeypatch.setattr(EwmaPopularityTracker, "observe", spy)
        result = ServingControlPlane(cold_start_config()).run()
        assert [s.cold for s in result.snapshots] == [True, False, False]
        assert observed == [s.num_requests for s in result.snapshots[1:]]

    def test_cold_epoch_still_notifies_observer(self):
        events = []

        class Spy:
            def serving_epoch(self, *, epoch, snapshot):
                events.append((epoch, snapshot.cold, snapshot.replicas_copied))

        ServingControlPlane(cold_start_config(epochs=1), observer=Spy()).run()
        assert events == [(0, True, 0)]
