"""Tests for the bounded Adams monotone divisor replication (Sec. 4.1.1)."""

import numpy as np
import pytest

from repro.popularity import zipf_probabilities
from repro.replication import (
    AdamsReplicator,
    adams_replication,
    optimal_min_max_weight,
)


class TestBasics:
    def test_budget_fully_used(self):
        probs = zipf_probabilities(10, 0.75)
        result = adams_replication(probs, 4, 25)
        assert result.total_replicas == 25

    def test_budget_equal_m_gives_no_replication(self):
        probs = zipf_probabilities(10, 0.75)
        result = adams_replication(probs, 4, 10)
        np.testing.assert_array_equal(result.replica_counts, 1)

    def test_cap_respected(self):
        probs = zipf_probabilities(5, 1.0)
        result = adams_replication(probs, 3, 15)
        assert result.replica_counts.max() <= 3

    def test_full_budget_saturates(self):
        probs = zipf_probabilities(5, 1.0)
        result = adams_replication(probs, 3, 15)
        np.testing.assert_array_equal(result.replica_counts, 3)
        assert result.info["saturated"]

    def test_excess_budget_clipped(self):
        probs = zipf_probabilities(5, 1.0)
        result = adams_replication(probs, 3, 1000)
        assert result.total_replicas == 15

    def test_budget_below_m_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            adams_replication(zipf_probabilities(10, 0.5), 4, 9)

    def test_popular_videos_get_more_replicas(self):
        probs = zipf_probabilities(20, 0.75)
        result = adams_replication(probs, 8, 40)
        counts = result.replica_counts
        assert np.all(np.diff(counts) <= 0)  # non-increasing with rank

    def test_iterations_reported(self):
        probs = zipf_probabilities(10, 0.75)
        result = adams_replication(probs, 4, 25)
        assert result.info["iterations"] == 15


class TestFigure1Walkthrough:
    """Replays the paper's Figure 1: 5 videos, 3 servers, C = 3 replicas."""

    def test_first_duplication_is_most_popular(self):
        probs = np.array([0.40, 0.25, 0.15, 0.12, 0.08])
        result = adams_replication(probs, 3, 9, record_trace=True)
        trace = result.info["trace"]
        # Iteration 1 duplicates v1 (index 0): its weight p1 is the maximum.
        assert trace[0][1] == 0
        assert trace[0][2] == 2

    def test_second_duplication_follows_max_weight(self):
        # p1/2 = 0.2 < p2 = 0.25, so the second iteration duplicates v2.
        probs = np.array([0.40, 0.25, 0.15, 0.12, 0.08])
        result = adams_replication(probs, 3, 9, record_trace=True)
        assert result.info["trace"][1][1] == 1

    def test_capped_video_not_duplicated_again(self):
        # Strong skew: v1 would absorb everything but is capped at N = 3.
        probs = np.array([0.9, 0.04, 0.03, 0.02, 0.01])
        result = adams_replication(probs, 3, 9, record_trace=True)
        assert result.replica_counts[0] == 3
        duplications_of_v1 = [t for t in result.info["trace"] if t[1] == 0]
        assert len(duplications_of_v1) == 2  # 1 -> 2 -> 3, never beyond

    def test_trace_weights_match_counts(self):
        probs = zipf_probabilities(5, 0.75)
        result = adams_replication(probs, 3, 12, record_trace=True)
        for _, video, count, weight in result.info["trace"]:
            assert weight == pytest.approx(probs[video] / count)


class TestOptimality:
    """Theorem 1: Adams minimizes max_i p_i / r_i."""

    # M = 200 with the paper's six degrees: the paper-scale points of E4.
    @pytest.mark.parametrize("m", [50, 200])
    @pytest.mark.parametrize("theta", [0.271, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("budget_factor", [1.0, 1.2, 1.4, 1.6, 1.8, 2.0])
    def test_matches_oracle_on_zipf(self, m, theta, budget_factor):
        probs = zipf_probabilities(m, theta)
        budget = round(m * budget_factor)
        result = adams_replication(probs, 8, budget)
        optimal = optimal_min_max_weight(probs, 8, budget)
        assert result.max_weight() == pytest.approx(optimal, rel=1e-12)

    def test_matches_oracle_on_random(self, rng):
        for _ in range(25):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(2, 10))
            probs = rng.random(m) + 1e-3
            probs /= probs.sum()
            budget = int(rng.integers(m, n * m + 1))
            result = adams_replication(probs, n, budget)
            optimal = optimal_min_max_weight(probs, n, budget)
            assert result.max_weight() == pytest.approx(optimal, rel=1e-9)

    def test_max_weight_non_increasing_in_budget(self):
        probs = zipf_probabilities(30, 0.75)
        previous = np.inf
        for budget in range(30, 240, 15):
            weight = adams_replication(probs, 8, budget).max_weight()
            assert weight <= previous + 1e-15
            previous = weight


class TestReplicatorWrapper:
    def test_wrapper_equivalent(self):
        probs = zipf_probabilities(10, 0.75)
        direct = adams_replication(probs, 4, 20)
        wrapped = AdamsReplicator().replicate(probs, 4, 20)
        np.testing.assert_array_equal(direct.replica_counts, wrapped.replica_counts)

    def test_name(self):
        assert AdamsReplicator.name == "adams"
