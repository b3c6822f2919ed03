"""Tests for the Zipf-like-distribution-based replication (Sec. 4.1.2)."""

import hashlib

import numpy as np
import pytest

from repro.popularity import zipf_probabilities
from repro.replication import (
    ZipfIntervalReplicator,
    adams_replication,
    interval_boundaries,
    interval_replica_counts,
    zipf_interval_replication,
)


class TestIntervalBoundaries:
    def test_endpoints(self):
        z = interval_boundaries(0.5, 0.1, 4, 0.7)
        assert z[0] == pytest.approx(0.5)
        assert z[-1] == pytest.approx(0.1)
        assert len(z) == 5

    def test_strictly_decreasing_for_positive_width(self):
        z = interval_boundaries(0.5, 0.1, 6, 0.3)
        assert np.all(np.diff(z) < 0)

    def test_u_zero_uniform_widths(self):
        z = interval_boundaries(1.0, 0.0, 4, 0.0)
        np.testing.assert_allclose(np.diff(z), -0.25)

    def test_positive_u_widens_top_interval(self):
        z = interval_boundaries(1.0, 0.0, 4, 2.0)
        widths = -np.diff(z)
        assert widths[0] > widths[-1]

    def test_negative_u_widens_bottom_interval(self):
        z = interval_boundaries(1.0, 0.0, 4, -2.0)
        widths = -np.diff(z)
        assert widths[0] < widths[-1]

    def test_extreme_u_no_overflow(self):
        z = interval_boundaries(1.0, 0.0, 8, 300.0)
        assert np.all(np.isfinite(z))
        z = interval_boundaries(1.0, 0.0, 8, -300.0)
        assert np.all(np.isfinite(z))

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            interval_boundaries(0.1, 0.5, 4, 0.0)


class TestIntervalReplicaCounts:
    def test_most_popular_gets_n(self):
        probs = zipf_probabilities(10, 0.75)
        counts = interval_replica_counts(probs, 4, 0.5)
        assert counts[0] == 4

    def test_least_popular_gets_one(self):
        probs = zipf_probabilities(10, 0.75)
        counts = interval_replica_counts(probs, 4, 0.5)
        assert counts[-1] == 1

    def test_counts_in_bounds(self):
        probs = zipf_probabilities(50, 0.5)
        for u in [-4.0, -1.0, 0.0, 1.0, 4.0]:
            counts = interval_replica_counts(probs, 8, u)
            assert counts.min() >= 1 and counts.max() <= 8

    def test_lemma_4_1_monotonicity(self):
        """Lemma 4.1: total replicas are non-decreasing in u."""
        probs = zipf_probabilities(100, 0.75)
        totals = [
            interval_replica_counts(probs, 8, u).sum()
            for u in np.linspace(-8, 8, 81)
        ]
        assert np.all(np.diff(totals) >= 0)

    def test_per_video_monotonicity_in_u(self):
        probs = zipf_probabilities(40, 0.5)
        prev = interval_replica_counts(probs, 8, -6.0)
        for u in np.linspace(-5.0, 6.0, 23):
            cur = interval_replica_counts(probs, 8, u)
            assert np.all(cur >= prev)
            prev = cur

    def test_counts_non_increasing_with_rank(self):
        probs = zipf_probabilities(30, 0.75)
        counts = interval_replica_counts(probs, 8, 1.0)
        assert np.all(np.diff(counts) <= 0)


class TestZipfIntervalReplication:
    def test_budget_respected(self):
        probs = zipf_probabilities(200, 0.75)
        for budget in [240, 280, 320, 360, 400]:
            result = zipf_interval_replication(probs, 8, budget)
            assert result.total_replicas <= budget

    def test_budget_well_utilized(self):
        probs = zipf_probabilities(200, 0.75)
        result = zipf_interval_replication(probs, 8, 320)
        assert result.info["budget_utilization"] >= 0.9

    def test_close_to_adams_max_weight(self):
        """Sec. 5: 'the Zipf replication and the Adams replication achieved
        nearly the same results in most test cases'."""
        probs = zipf_probabilities(200, 0.75)
        zipf = zipf_interval_replication(probs, 8, 320)
        adams = adams_replication(probs, 8, 320)
        assert zipf.max_weight() <= 2.0 * adams.max_weight()

    def test_uniform_popularity_degenerates_to_round_robin(self):
        probs = np.full(10, 0.1)
        result = zipf_interval_replication(probs, 4, 25)
        assert result.info.get("degenerate") == "uniform"
        # 25 replicas over 10 videos: five videos get 3, five get 2.
        assert result.total_replicas == 25
        assert set(result.replica_counts) <= {2, 3}

    def test_tiny_budget_triggers_trim(self):
        # Budget M < M + N - 1 is below the interval scheme's floor.
        probs = zipf_probabilities(10, 0.75)
        result = zipf_interval_replication(probs, 8, 10)
        assert result.total_replicas <= 10
        assert result.replica_counts.min() >= 1

    def test_full_budget(self):
        probs = zipf_probabilities(10, 0.75)
        result = zipf_interval_replication(probs, 4, 40)
        np.testing.assert_array_equal(result.replica_counts, 4)

    def test_info_fields(self):
        probs = zipf_probabilities(50, 0.5)
        result = zipf_interval_replication(probs, 8, 80)
        assert "u" in result.info
        assert result.info["evaluations"] >= 1
        assert result.info["budget"] == 80

    def test_wrapper(self):
        probs = zipf_probabilities(50, 0.5)
        direct = zipf_interval_replication(probs, 8, 80)
        wrapped = ZipfIntervalReplicator().replicate(probs, 8, 80)
        np.testing.assert_array_equal(direct.replica_counts, wrapped.replica_counts)

    def test_wrapper_validates_config(self):
        with pytest.raises(ValueError):
            ZipfIntervalReplicator(tol=0.0)
        with pytest.raises(ValueError):
            ZipfIntervalReplicator(max_iterations=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
         {"max_iterations": 0}, {"max_iterations": -3}],
    )
    def test_direct_call_validates_search_settings(self, kwargs):
        probs = zipf_probabilities(50, 0.5)
        with pytest.raises(ValueError):
            zipf_interval_replication(probs, 8, 80, **kwargs)


class TestTrimToBudget:
    """The heap-based trim must match the original argmin scan exactly."""

    @staticmethod
    def _reference_trim(probs, counts, budget):
        """The pre-heap O(excess * M) implementation, kept as the oracle."""
        counts = counts.copy()
        trimmed = 0
        excess = int(counts.sum()) - budget
        while excess > 0:
            weight = np.where(
                counts > 1, probs / np.maximum(counts - 1, 1), np.inf
            )
            video = int(np.argmin(weight))
            if not np.isfinite(weight[video]):
                raise RuntimeError("cannot trim below one replica per video")
            counts[video] -= 1
            trimmed += 1
            excess -= 1
        return counts, trimmed

    def test_identical_to_reference_on_skewed_instance(self):
        from repro.replication.zipf_interval import _trim_to_budget

        probs = zipf_probabilities(300, 0.9)
        counts = interval_replica_counts(probs, 8, -8.0)
        budget = 300 + 8 - 5  # below the algorithm's floor: forces trimming
        expected_counts, expected_trimmed = self._reference_trim(
            probs, counts, budget
        )
        got_counts, got_trimmed = _trim_to_budget(probs, counts, budget)
        np.testing.assert_array_equal(got_counts, expected_counts)
        assert got_trimmed == expected_trimmed
        assert int(got_counts.sum()) == budget

    def test_identical_under_heavy_ties(self):
        from repro.replication.zipf_interval import _trim_to_budget

        # Uniform popularity maximizes weight ties: tie-breaking must match.
        probs = np.full(40, 1.0 / 40)
        counts = np.full(40, 3, dtype=np.int64)
        expected_counts, expected_trimmed = self._reference_trim(
            probs, counts, 75
        )
        got_counts, got_trimmed = _trim_to_budget(probs, counts, 75)
        np.testing.assert_array_equal(got_counts, expected_counts)
        assert got_trimmed == expected_trimmed

    def test_no_trim_needed(self):
        from repro.replication.zipf_interval import _trim_to_budget

        probs = zipf_probabilities(10, 0.5)
        counts = np.full(10, 2, dtype=np.int64)
        got_counts, trimmed = _trim_to_budget(probs, counts, 25)
        np.testing.assert_array_equal(got_counts, counts)
        assert trimmed == 0

    def test_impossible_budget_raises(self):
        from repro.replication.zipf_interval import _trim_to_budget

        probs = zipf_probabilities(5, 0.5)
        counts = np.full(5, 2, dtype=np.int64)
        with pytest.raises(RuntimeError):
            _trim_to_budget(probs, counts, 3)


#: ``replication_digest(random_draws(300))``: the counts and every ``info``
#: field but the search's step counts, unchanged since the search first
#: counted totals from the boundaries.
REPLICATION_DIGEST = (
    "54d57ac0e85e6792de5dbcae7d90a856e86586bc983debc4ab616638f9e0e88a"
)
#: Total ``info["evaluations"]`` over ``random_draws(300)``, a count;
#: :func:`full_bisection`, which bisects down to ``tol``, takes 7,792.
EVALUATION_TOTAL = 3415
#: ``info`` fields that count search steps rather than describe the result.
SEARCH_STEP_FIELDS = ("iterations", "evaluations")


def random_draws(count, seed=2024):
    """``(p, N, budget)`` draws: Zipf and Dirichlet popularities (some with
    tied values), N from 1 to 16, and budgets from below the interval
    floor (trim) to past full replication (capped)."""
    rng = np.random.default_rng(seed)
    draws = []
    for index in range(count):
        num_videos = int(rng.integers(2, 80))
        num_servers = int(rng.integers(1, 17))
        if index % 2:
            probs = zipf_probabilities(num_videos, float(rng.uniform(0.0, 1.5)))
        else:
            probs = rng.dirichlet(np.full(num_videos, rng.uniform(0.2, 3.0)))
        if index % 5 == 0:
            probs = np.round(probs, 2) + 1e-3  # ties
            probs = probs / probs.sum()
        budget = int(rng.integers(num_videos, num_servers * num_videos + 6))
        draws.append((probs, num_servers, budget))
    return draws


def replication_digest(draws):
    digest = hashlib.sha256()
    for probs, num_servers, budget in draws:
        result = zipf_interval_replication(probs, num_servers, budget)
        info = {
            key: value
            for key, value in result.info.items()
            if key not in SEARCH_STEP_FIELDS
        }
        digest.update(np.asarray(result.replica_counts, dtype=np.int64).tobytes())
        digest.update(repr(sorted(info.items())).encode())
    return digest.hexdigest()


def full_bisection(probs, num_servers, budget, tol=1e-8, max_iterations=120):
    """``(counts, u, utilization, evaluations)`` of the search bisecting
    ``u`` all the way down to *tol*, as it ran before the exact-fill exit."""
    from repro.replication.zipf_interval import (
        _MAX_ABS_U,
        _interval_total,
        _trim_to_budget,
    )

    budget = min(budget, num_servers * probs.size)
    ascending = np.sort(probs)
    evaluations = 0

    def total_at(u):
        nonlocal evaluations
        evaluations += 1
        return _interval_total(ascending, num_servers, u)

    lo, hi = -1.0, 1.0
    total_lo = total_at(lo)
    while total_lo > budget and lo > -_MAX_ABS_U:
        lo *= 2.0
        total_lo = total_at(lo)
    total_hi = total_at(hi)
    while total_hi <= budget and hi < _MAX_ABS_U:
        lo, total_lo = hi, total_hi
        hi *= 2.0
        total_hi = total_at(hi)
    if total_lo > budget:
        counts, _ = _trim_to_budget(
            probs, interval_replica_counts(probs, num_servers, lo), budget
        )
        return counts, lo, int(counts.sum()) / budget, evaluations
    if total_hi <= budget:
        best_u, best_total = hi, total_hi
    else:
        best_u, best_total = lo, total_lo
        iterations = 0
        while hi - lo > tol and iterations < max_iterations:
            mid = 0.5 * (lo + hi)
            total_mid = total_at(mid)
            if total_mid <= budget:
                lo = mid
                if total_mid > best_total:
                    best_u, best_total = mid, total_mid
            else:
                hi = mid
            iterations += 1
    counts = interval_replica_counts(probs, num_servers, best_u)
    return counts, best_u, best_total / budget, evaluations


class TestSearchTotals:
    def test_every_evaluated_total_is_the_counts_sum(self, monkeypatch):
        from repro.replication import zipf_interval

        evaluated = []
        exact_total = zipf_interval._interval_total

        def spy(ascending, num_servers, u):
            total = exact_total(ascending, num_servers, u)
            evaluated.append((ascending, num_servers, u, total))
            return total

        monkeypatch.setattr(zipf_interval, "_interval_total", spy)
        for probs, num_servers, budget in random_draws(300):
            before = len(evaluated)
            result = zipf_interval_replication(probs, num_servers, budget)
            if "degenerate" not in result.info:
                assert len(evaluated) - before == result.info["evaluations"]
            for _, n, u, total in evaluated[before:]:
                assert total == interval_replica_counts(probs, n, u).sum()
        assert len(evaluated) > 3000

    def test_results_match_the_pinned_digest(self):
        # Counts, u, utilization and the other result fields of the 300
        # draws must not move; the step counts are pinned on their own.
        assert replication_digest(random_draws(300)) == REPLICATION_DIGEST

    def test_evaluation_total_is_pinned(self):
        total = sum(
            zipf_interval_replication(p, n, b).info["evaluations"]
            for p, n, b in random_draws(300)
        )
        assert total == EVALUATION_TOTAL

    def test_exact_fill_exit_matches_the_full_bisection(self):
        exits = 0
        for probs, num_servers, budget in random_draws(300):
            result = zipf_interval_replication(probs, num_servers, budget)
            if "degenerate" in result.info:
                continue
            counts, u, utilization, evaluations = full_bisection(
                probs, num_servers, budget
            )
            np.testing.assert_array_equal(result.replica_counts, counts)
            assert result.info["u"] == u
            assert result.info["budget_utilization"] == utilization
            assert result.info["evaluations"] <= evaluations
            exits += result.info["evaluations"] < evaluations
        assert exits > 100
