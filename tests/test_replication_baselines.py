"""Tests for classification, proportional and trivial replication baselines."""

import heapq

import numpy as np
import pytest

from repro.popularity import zipf_probabilities
from repro.replication import (
    ClassificationReplicator,
    ProportionalReplicator,
    adams_replication,
    cache_proportional_replication,
    classification_replication,
    full_replication,
    large_cache_replication,
    no_replication,
    p2p_replication,
    proportional_replication,
    round_robin_replication,
)
from repro.replication.base import validate_replication_inputs
from repro.replication.cache_alloc import (
    _INV_B_CAP,
    box_waterfill_targets,
    round_targets,
)

#: Full sweep incl. the uniform (theta=0) and super-Zipf (1.2) edges that
#: historically exposed tie-handling flakes in rounding code.
THETA_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0, 1.2)


class TestClassification:
    def test_budget_respected(self):
        probs = zipf_probabilities(200, 0.75)
        for budget in [200, 240, 320, 400]:
            result = classification_replication(probs, 8, budget)
            assert result.total_replicas <= budget

    def test_eq7_bounds(self):
        probs = zipf_probabilities(200, 0.75)
        result = classification_replication(probs, 8, 320)
        assert result.replica_counts.min() >= 1
        assert result.replica_counts.max() <= 8

    def test_class_members_share_count(self):
        probs = zipf_probabilities(40, 0.75)
        result = classification_replication(probs, 4, 80)
        sizes = result.info["class_sizes"]
        starts = np.concatenate(([0], np.cumsum(sizes)))
        counts = result.replica_counts  # already rank-sorted input
        for k in range(len(sizes)):
            segment = counts[starts[k] : starts[k + 1]]
            assert np.all(segment == segment[0])

    def test_hotter_class_never_fewer_replicas(self):
        probs = zipf_probabilities(200, 0.9)
        result = classification_replication(probs, 8, 320)
        per_class = result.info["per_class_count"]
        assert np.all(np.diff(per_class) <= 0)

    def test_coarser_than_adams(self):
        """The baseline's weight granularity is coarser -> larger max weight."""
        probs = zipf_probabilities(200, 0.75)
        baseline = classification_replication(probs, 8, 240)
        adams = adams_replication(probs, 8, 240)
        assert baseline.max_weight() >= adams.max_weight() - 1e-15

    def test_custom_class_count(self):
        probs = zipf_probabilities(30, 0.75)
        result = classification_replication(probs, 8, 60, num_classes=3)
        assert result.info["num_classes"] == 3

    def test_wrapper(self):
        probs = zipf_probabilities(30, 0.75)
        wrapped = ClassificationReplicator().replicate(probs, 8, 60)
        direct = classification_replication(probs, 8, 60)
        np.testing.assert_array_equal(wrapped.replica_counts, direct.replica_counts)


class TestProportional:
    def test_budget_exact_when_reachable(self):
        probs = zipf_probabilities(50, 0.75)
        result = proportional_replication(probs, 8, 100)
        assert result.total_replicas == 100

    def test_eq7_bounds(self):
        probs = zipf_probabilities(50, 1.0)
        result = proportional_replication(probs, 4, 100)
        assert result.replica_counts.min() >= 1
        assert result.replica_counts.max() <= 4

    def test_proportionality(self):
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        result = proportional_replication(probs, 10, 10)
        np.testing.assert_array_equal(result.replica_counts, [4, 3, 2, 1])

    def test_tiny_budget_trims(self):
        # Flooring + 1-replica floor overshoots; must trim back to budget.
        probs = np.array([0.94, 0.02, 0.02, 0.02])
        result = proportional_replication(probs, 4, 4)
        assert result.total_replicas == 4
        assert result.replica_counts.min() >= 1

    def test_worse_or_equal_to_adams(self):
        probs = zipf_probabilities(100, 0.75)
        prop = proportional_replication(probs, 8, 160)
        adams = adams_replication(probs, 8, 160)
        assert prop.max_weight() >= adams.max_weight() - 1e-15

    def test_wrapper(self):
        probs = zipf_probabilities(30, 0.5)
        wrapped = ProportionalReplicator().replicate(probs, 8, 60)
        assert wrapped.total_replicas == 60


class TestTrivialBaselines:
    def test_no_replication(self):
        probs = zipf_probabilities(10, 0.75)
        result = no_replication(probs, 4)
        np.testing.assert_array_equal(result.replica_counts, 1)
        assert result.replication_degree == 1.0

    def test_full_replication(self):
        probs = zipf_probabilities(10, 0.75)
        result = full_replication(probs, 4, 40)
        np.testing.assert_array_equal(result.replica_counts, 4)

    def test_full_replication_needs_budget(self):
        probs = zipf_probabilities(10, 0.75)
        with pytest.raises(ValueError, match="full replication"):
            full_replication(probs, 4, 39)

    def test_round_robin_even_split(self):
        probs = zipf_probabilities(10, 0.75)
        result = round_robin_replication(probs, 4, 20)
        np.testing.assert_array_equal(result.replica_counts, 2)

    def test_round_robin_remainder_to_popular(self):
        probs = zipf_probabilities(10, 0.75)
        result = round_robin_replication(probs, 4, 23)
        assert result.total_replicas == 23
        np.testing.assert_array_equal(result.replica_counts[:3], 3)
        np.testing.assert_array_equal(result.replica_counts[3:], 2)

    def test_round_robin_cap(self):
        probs = zipf_probabilities(4, 0.75)
        result = round_robin_replication(probs, 2, 8)
        np.testing.assert_array_equal(result.replica_counts, 2)


class TestCacheProportional:
    @pytest.mark.parametrize("theta", THETA_SWEEP)
    def test_theta_sweep_feasible_and_exact(self, theta):
        probs = zipf_probabilities(100, theta)
        result = cache_proportional_replication(probs, 8, 160)
        assert result.replica_counts.min() >= 1
        assert result.replica_counts.max() <= 8
        assert result.total_replicas == 160

    def test_waterfill_budget_exact(self):
        probs = zipf_probabilities(50, 0.75)
        targets = box_waterfill_targets(probs, 6, 90)
        assert targets.min() >= 1.0 - 1e-9
        assert targets.max() <= 6.0 + 1e-9
        assert targets.sum() == pytest.approx(90.0, abs=1e-6)

    def test_rounding_preserves_budget_and_caps(self):
        probs = zipf_probabilities(50, 0.75)
        targets = box_waterfill_targets(probs, 6, 90)
        counts = round_targets(targets, 6, 90)
        assert counts.sum() == 90
        assert counts.min() >= 1 and counts.max() <= 6

    def test_proportional_above_floor(self):
        # Uncapped, unfloored interior videos scale linearly with p_i.
        probs = np.array([0.30, 0.25, 0.20, 0.15, 0.10])
        targets = box_waterfill_targets(probs, 10, 25)
        ratios = targets / probs
        interior = (targets > 1.0 + 1e-9) & (targets < 10.0 - 1e-9)
        assert np.allclose(ratios[interior], ratios[interior][0])

    @staticmethod
    def _waterfill_200_steps(weights, num_servers, budget):
        """The bisection run for all 200 steps, with no early exit."""
        weights = np.asarray(weights, dtype=np.float64)
        budget = float(min(budget, num_servers * weights.size))
        lo, hi = 0.0, num_servers / float(weights[weights > 0].min())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(np.clip(mid * weights, 1.0, num_servers).sum()) < budget:
                lo = mid
            else:
                hi = mid
        return np.clip(hi * weights, 1.0, num_servers)

    @pytest.mark.parametrize("theta", (0.0, 0.3, 0.6, 0.9, 1.2))
    def test_early_exit_matches_200_steps_at_cache_scale(self, theta):
        # The E17 grid: N=100, M=10k, degree 1.2; the cache-proportional
        # weights (p_i) and the p2p weights (d_i + sqrt(d_i)).
        probs = zipf_probabilities(10_000, theta)
        budget = 12_000
        demand = probs * budget
        for weights in (probs, demand + np.sqrt(demand)):
            np.testing.assert_array_equal(
                box_waterfill_targets(weights, 100, budget),
                self._waterfill_200_steps(weights, 100, budget),
            )

    def test_early_exit_matches_200_steps_on_random_weights(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            num_videos = int(rng.integers(2, 300))
            num_servers = int(rng.integers(2, 20))
            weights = rng.exponential(size=num_videos) ** rng.uniform(0.2, 4)
            weights[rng.random(num_videos) < 0.1] = 0.0
            weights[0] = max(weights[0], 1e-3)
            budget = int(rng.integers(num_videos + 1, num_servers * num_videos + 1))
            np.testing.assert_array_equal(
                box_waterfill_targets(weights, num_servers, budget),
                self._waterfill_200_steps(weights, num_servers, budget),
            )


class TestLargeCache:
    @pytest.mark.parametrize("theta", THETA_SWEEP)
    def test_theta_sweep_feasible(self, theta):
        probs = zipf_probabilities(100, theta)
        result = large_cache_replication(probs, 8, 160)
        assert result.replica_counts.min() >= 1
        assert result.replica_counts.max() <= 8
        assert result.total_replicas <= 160

    def test_diagnostics_recorded(self):
        probs = zipf_probabilities(60, 0.75)
        result = large_cache_replication(probs, 6, 96)
        assert result.info["algorithm"] == "large_cache"
        assert 0.0 <= result.info["predicted_blocked_fraction"] <= 1.0
        assert result.info["offered_erlangs"] > 0.0

    def test_skew_concentrates_replicas(self):
        probs_flat = zipf_probabilities(100, 0.0)
        probs_skew = zipf_probabilities(100, 1.0)
        flat = large_cache_replication(probs_flat, 8, 160).replica_counts
        skew = large_cache_replication(probs_skew, 8, 160).replica_counts
        assert skew.max() >= flat.max()

    def test_parameter_validation(self):
        probs = zipf_probabilities(10, 0.5)
        with pytest.raises(ValueError, match="slots_per_replica"):
            large_cache_replication(probs, 4, 20, slots_per_replica=0)
        with pytest.raises(ValueError, match="load_factor"):
            large_cache_replication(probs, 4, 20, load_factor=0.0)


def _advance_inv_b(inv_b, offered, slots_from, step):
    """Advance ``1/B(a, c)`` from ``c = slots_from`` by ``step`` slots with
    the capped inverse Erlang-B recurrence ``I_c = 1 + (c / a) I_{c-1}``."""
    for c in range(slots_from + 1, slots_from + step + 1):
        inv_b = 1.0 + (c / offered) * inv_b
        if inv_b > _INV_B_CAP:
            return _INV_B_CAP
    return inv_b


def _full_width_large_cache(popularity, num_servers, budget, step=15, load_factor=0.9):
    """``(replica_counts, info)`` of the large-cache greedy with its final
    ladder run full width: every video advances to the largest slot count
    and keeps its value once past its own."""
    probs = validate_replication_inputs(popularity, num_servers, budget)
    num_videos = probs.size
    budget = min(budget, num_servers * num_videos)
    offered_total = load_factor * budget * step
    offered = np.maximum(offered_total * probs, 1e-12)
    inv_cur = np.ones(num_videos)
    for c in range(1, step + 1):
        inv_cur = np.minimum(1.0 + (c / offered) * inv_cur, _INV_B_CAP)
    inv_next = inv_cur.copy()
    for c in range(step + 1, 2 * step + 1):
        inv_next = np.minimum(1.0 + (c / offered) * inv_next, _INV_B_CAP)
    counts = np.ones(num_videos, dtype=np.int64)
    gains = probs * (1.0 / inv_cur - 1.0 / inv_next)
    heap = [(-float(gains[i]), i) for i in range(num_videos) if num_servers > 1]
    heapq.heapify(heap)
    remaining = budget - num_videos
    while remaining > 0 and heap:
        _, video = heapq.heappop(heap)
        counts[video] += 1
        remaining -= 1
        if counts[video] >= num_servers:
            continue
        cur = float(inv_next[video])
        nxt = _advance_inv_b(cur, float(offered[video]), int(counts[video]) * step, step)
        inv_next[video] = nxt
        gain = float(probs[video]) * (1.0 / cur - 1.0 / nxt)
        heapq.heappush(heap, (-gain, video))
    inv_final = np.ones(num_videos)
    slots = counts * step
    for c in range(1, int(slots.max()) + 1):
        advanced = np.minimum(1.0 + (c / offered) * inv_final, _INV_B_CAP)
        inv_final = np.where(c <= slots, advanced, inv_final)
    info = {
        "algorithm": "large_cache",
        "slots_per_replica": step,
        "load_factor": float(load_factor),
        "offered_erlangs": float(offered_total),
        "predicted_blocked_fraction": float(probs @ (1.0 / inv_final)),
    }
    return counts, info


class TestLargeCacheMatchesFullWidthLadder:
    """The active-prefix final ladder against the full-width one."""

    @pytest.mark.parametrize("scale", ["paper", "cache"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.6, 0.9, 1.2])
    def test_counts_and_info_exact(self, scale, theta):
        from repro.experiments.cache_scale_sweep import cache_scale_setup
        from repro.experiments.config import PaperSetup

        setup = PaperSetup() if scale == "paper" else cache_scale_setup()
        probs = setup.popularity(theta).probabilities
        for degree in (1.2, 4.0):
            budget = setup.replica_budget(degree)
            result = large_cache_replication(probs, setup.num_servers, budget)
            counts, info = _full_width_large_cache(probs, setup.num_servers, budget)
            assert np.array_equal(result.replica_counts, counts)
            assert result.info == info


class TestP2P:
    @pytest.mark.parametrize("theta", THETA_SWEEP)
    def test_theta_sweep_feasible_and_exact(self, theta):
        probs = zipf_probabilities(100, theta)
        result = p2p_replication(probs, 8, 160)
        assert result.replica_counts.min() >= 1
        assert result.replica_counts.max() <= 8
        assert result.total_replicas == 160

    def test_safety_staffing_flattens_tail(self):
        # sqrt safety staffing gives cold videos relatively more replicas
        # than plain proportional, so the tail count can only go up.
        probs = zipf_probabilities(100, 1.0)
        p2p = p2p_replication(probs, 8, 200).replica_counts
        prop = cache_proportional_replication(probs, 8, 200).replica_counts
        assert p2p[-1] >= prop[-1]

    def test_safety_factor_zero_matches_proportional_weights(self):
        probs = zipf_probabilities(60, 0.75)
        p2p = p2p_replication(probs, 6, 96, safety_factor=0.0)
        prop = cache_proportional_replication(probs, 6, 96)
        np.testing.assert_array_equal(
            p2p.replica_counts, prop.replica_counts
        )
