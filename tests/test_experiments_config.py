"""Tests for the reconstructed paper setup."""

import pytest

from repro.experiments import PaperSetup


class TestDerivedConstants:
    def test_replica_storage(self):
        assert PaperSetup().replica_storage_gb == pytest.approx(2.7)

    def test_saturation_rate(self):
        assert PaperSetup().saturation_rate_per_min == pytest.approx(40.0)

    def test_budgets_match_degrees(self):
        setup = PaperSetup()
        assert setup.replica_budget(1.0) == 200
        assert setup.replica_budget(1.2) == 240
        assert setup.replica_budget(2.0) == 400

    def test_capacity_ceil(self):
        setup = PaperSetup()
        assert setup.capacity_replicas(1.0) == 25
        assert setup.capacity_replicas(1.2) == 30
        assert setup.capacity_replicas(2.0) == 50

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            PaperSetup().replica_budget(0.5)
        with pytest.raises(ValueError):
            PaperSetup(replication_degrees=(9.0,))


class TestBuilders:
    def test_cluster_realizes_degree(self):
        setup = PaperSetup()
        cluster = setup.cluster(1.6)
        assert cluster.replica_budget(setup.replica_storage_gb) == 320

    def test_problem_roundtrip(self):
        setup = PaperSetup()
        problem = setup.problem(0.75, 1.2)
        assert problem.num_videos == 200
        assert problem.storage_capacity_replicas() == 30
        assert problem.allowed_bit_rates_mbps == (4.0,)

    def test_scalable_problem(self):
        problem = PaperSetup().problem(0.75, 1.6, scalable=True)
        assert problem.allowed_bit_rates_mbps == (2.0, 3.0, 4.0, 5.0, 6.0)

    def test_quick_reduces_runs_only(self):
        quick = PaperSetup().quick(num_runs=2)
        assert quick.num_runs == 2
        assert quick.num_videos == 200

    def test_scaled_down_rescales_rates(self):
        small = PaperSetup().scaled_down(num_videos=50, num_servers=4)
        assert small.num_videos == 50
        # Arrival sweep scaled by 4/8.
        assert small.arrival_rates_per_min[-1] == pytest.approx(22.5)
        assert small.saturation_rate_per_min == pytest.approx(20.0)


class TestSharedVideos:
    def test_one_collection_per_video_parameters(self):
        assert PaperSetup().videos() is PaperSetup().quick().videos()
        assert PaperSetup().videos() is not PaperSetup().scaled_down().videos()
        assert PaperSetup(bit_rate_mbps=6.0).videos().bit_rates_mbps[0] == 6.0

    def test_setup_pickle_and_key_unchanged(self):
        import pickle

        from repro.runtime.cache import canonical

        setup = PaperSetup(num_videos=37)
        blob, form = pickle.dumps(setup), canonical(setup)
        setup.videos().durations_min
        assert pickle.dumps(setup) == blob
        assert canonical(setup) == form
