"""Tests for the popularity models (system S1)."""

import numpy as np
import pytest

from repro import popularity
from repro.popularity import (
    ChoiceSampler,
    EmpiricalPopularity,
    PopularityModel,
    TYPICAL_THETA_RANGE,
    UniformPopularity,
    ZipfPopularity,
    fit_zipf_theta,
    sample_choice,
    zipf_probabilities,
)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        probs = zipf_probabilities(200, 0.75)
        assert probs.sum() == pytest.approx(1.0)

    def test_non_increasing(self):
        probs = zipf_probabilities(50, 0.9)
        assert np.all(np.diff(probs) <= 0)

    def test_theta_zero_is_uniform(self):
        probs = zipf_probabilities(7, 0.0)
        np.testing.assert_allclose(probs, 1.0 / 7)

    def test_exact_small_case(self):
        # M=3, theta=1: weights 1, 1/2, 1/3 -> normalized by 11/6.
        probs = zipf_probabilities(3, 1.0)
        np.testing.assert_allclose(probs, np.array([6, 3, 2]) / 11)

    def test_higher_theta_more_skew(self):
        low = zipf_probabilities(100, 0.271)
        high = zipf_probabilities(100, 1.0)
        assert high[0] > low[0]
        assert high[-1] < low[-1]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 0.5)
        with pytest.raises(ValueError):
            zipf_probabilities(10, -0.1)

    def test_typical_range_constant(self):
        assert TYPICAL_THETA_RANGE == (0.271, 1.0)


class TestPopularityModel:
    def test_from_probabilities_normalizes(self):
        model = PopularityModel.from_probabilities(np.array([0.5, 0.3, 0.2]))
        assert model.num_videos == 3
        assert model.probabilities.sum() == pytest.approx(1.0)

    def test_probabilities_readonly(self):
        model = PopularityModel.from_probabilities(np.array([0.6, 0.4]))
        with pytest.raises(ValueError):
            model.probabilities[0] = 0.9

    def test_is_sorted(self):
        assert PopularityModel.from_probabilities(np.array([0.6, 0.4])).is_sorted
        assert not PopularityModel.from_probabilities(np.array([0.4, 0.6])).is_sorted

    def test_sorted_returns_descending(self):
        model = PopularityModel.from_probabilities(np.array([0.2, 0.5, 0.3]))
        np.testing.assert_allclose(model.sorted().probabilities, [0.5, 0.3, 0.2])

    def test_skew_ratio(self):
        model = ZipfPopularity(10, 1.0)
        assert model.skew_ratio() == pytest.approx(10.0)

    def test_sample_distribution(self, rng):
        model = ZipfPopularity(5, 1.0)
        draws = model.sample(200_000, rng)
        freq = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freq, model.probabilities, atol=5e-3)

    def test_sample_zero(self, rng):
        assert ZipfPopularity(5, 1.0).sample(0, rng).size == 0

    def test_expected_requests(self):
        model = UniformPopularity(4)
        np.testing.assert_allclose(model.expected_requests(100), 25.0)

    def test_expected_requests_rejects_negative(self):
        with pytest.raises(ValueError):
            UniformPopularity(4).expected_requests(-1)

    def test_rejects_invalid_vector(self):
        with pytest.raises(ValueError):
            PopularityModel.from_probabilities(np.array([0.5, 0.6]))


def assert_draws_like_choice(p, size, seed, draw=sample_choice):
    """*draw* returns ``Generator.choice``'s indices and leaves the
    generator in the state ``choice`` leaves."""
    expected_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = expected_rng.choice(np.size(p), size=size, p=p)
    got = draw(p, size, rng)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


def permuted_zipf(num_videos, theta, seed=0):
    probs = zipf_probabilities(num_videos, theta)
    return probs[np.random.default_rng(seed).permutation(num_videos)]


def rounded_ties():
    probs = np.round(permuted_zipf(300, 0.8), 3)
    return probs / probs.sum()


def sampler_draw(sampler):
    return lambda p, size, rng: sampler.sample(size, rng)


class TestChoiceSampler:
    """Bit-identity with ``Generator.choice`` on the same seed."""

    @pytest.mark.parametrize("size", [0, 1, 10_000])
    @pytest.mark.parametrize(
        "probs",
        [
            np.array([1.0]),
            np.array([0.0, 0.25, 0.0, 0.25, 0.25, 0.0, 0.25]),
            np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([1.0] + [0.0] * 999),
            np.array([0.0] * 999 + [1.0]),
            np.full(1024, 1.0 / 1024),
            rounded_ties(),
        ],
        ids=["M=1", "zeros+ties", "point-mass", "head-mass", "tail-mass",
             "uniform-2^10", "rounded-ties"],
    )
    def test_edge_vectors(self, probs, size):
        assert_draws_like_choice(probs, size, seed=size + 7)

    @pytest.mark.parametrize("size", [0, 1, 10_000])
    @pytest.mark.parametrize("num_videos", [200, 10_000, 100_000])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
    def test_rank_permuted_zipf(self, theta, num_videos, size):
        probs = permuted_zipf(num_videos, theta, seed=num_videos)
        assert_draws_like_choice(probs, size, seed=int(theta * 10) + size)

    def test_crowded_buckets_fall_back_to_search(self):
        # Many zero-probability videos put several cdf boundaries in one
        # bucket; those uniforms must resolve through searchsorted.
        probs = np.zeros(500)
        probs[::50] = 0.1
        sampler = ChoiceSampler(probs)
        assert_draws_like_choice(probs, 10_000, seed=3, draw=sampler_draw(sampler))
        _, crowded = sampler._table
        assert crowded is not None

    def test_one_sampler_across_draw_sizes(self):
        # Small draws before the table exists, the draw that builds it, and
        # small and large draws after it, all from one sampler.
        probs = permuted_zipf(2_000, 0.9)
        sampler = ChoiceSampler(probs)
        for seed, size in enumerate(
            [5, popularity._TABLE_MIN_DRAW, 3_000, 2,
             popularity._TABLE_MIN_DRAW - 1, 500]
        ):
            assert_draws_like_choice(probs, size, seed, draw=sampler_draw(sampler))
        assert sampler._table is not None

    def test_model_sample_matches_choice_on_its_probabilities(self):
        # Off by 1e-12 from a sum of 1, so the model's renormalisation moves
        # bits; the draws follow the renormalised vector.
        model = PopularityModel.from_probabilities(
            permuted_zipf(200, 0.75) * (1.0 + 1e-12)
        )
        for seed, size in enumerate([3_000, 1, 0, 40, 3_000]):
            assert_draws_like_choice(
                model.probabilities, size, seed,
                draw=lambda p, n, r: model.sample(n, r),
            )

    @pytest.mark.parametrize(
        "probs",
        [
            [],
            [0.5, 0.6],
            [1.5, -0.5],
            np.array([1.5, -0.5]),
            np.array([0.5, 0.5, -0.0, -1e-300]),
            np.array([0.5, float("nan"), 0.5]),
            np.array([float("inf"), 0.5]),
            np.array([[0.5, 0.5]]),
            np.array([0.25, 0.25, 0.25, 0.2501], dtype=np.float32) * 0.5,
        ],
        ids=["empty", "sum>1", "negative-list", "negative", "tiny-negative",
             "nan", "inf", "2-d", "float32-sum<1"],
    )
    def test_rejects_what_choice_rejects(self, probs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            rng.choice(np.size(probs), size=3, p=probs)
        with pytest.raises(ValueError):
            sample_choice(probs, 3, rng)
        assert rng.bit_generator.state == state

    def test_accepts_what_choice_accepts(self):
        # float32 input widens numpy's sum tolerance; the sampler keeps it.
        probs = np.array([0.25, 0.25, 0.25, 0.2501], dtype=np.float32)
        assert_draws_like_choice(probs, 1_000, seed=1)

    @pytest.mark.parametrize("excess", [0.25, 0.5, 0.75, 0.99])
    def test_sum_inside_numpy_tolerance_is_accepted(self, excess):
        probs = np.full(4, 0.25)
        probs[0] += excess * popularity._CHOICE_ATOL
        assert_draws_like_choice(probs, 1_000, seed=2)

    @pytest.mark.parametrize("excess", [1.01, 1.5, -1.5])
    def test_sum_outside_numpy_tolerance_is_rejected(self, excess):
        probs = np.full(4, 0.25)
        probs[0] += excess * popularity._CHOICE_ATOL
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(4, size=1, p=probs)
        with pytest.raises(ValueError):
            sample_choice(probs, 1, np.random.default_rng(0))


class TestEmpiricalPopularity:
    def test_from_counts(self):
        model = EmpiricalPopularity(np.array([30, 20, 10]))
        np.testing.assert_allclose(model.probabilities, [0.5, 1 / 3, 1 / 6])

    def test_smoothing_gives_unseen_mass(self):
        model = EmpiricalPopularity(np.array([10, 0]), smoothing=1.0)
        assert model.probabilities[1] > 0

    def test_rejects_all_zero_without_smoothing(self):
        with pytest.raises(ValueError):
            EmpiricalPopularity(np.zeros(3))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            EmpiricalPopularity(np.array([1.0, -2.0]))


class TestFitZipfTheta:
    @pytest.mark.parametrize("theta", [0.271, 0.5, 0.75, 1.0])
    def test_recovers_theta_from_large_sample(self, theta, rng):
        model = ZipfPopularity(100, theta)
        draws = model.sample(100_000, rng)
        counts = np.bincount(draws, minlength=100)
        estimate = fit_zipf_theta(counts)
        assert estimate == pytest.approx(theta, abs=0.05)

    def test_exact_expected_counts(self):
        # Feeding expected counts recovers theta almost exactly.
        probs = zipf_probabilities(50, 0.6)
        estimate = fit_zipf_theta(probs * 1e6)
        assert estimate == pytest.approx(0.6, abs=1e-3)

    def test_unsorted_counts_are_ranked(self):
        probs = zipf_probabilities(50, 0.6) * 1e6
        shuffled = probs[::-1].copy()
        assert fit_zipf_theta(shuffled) == pytest.approx(0.6, abs=1e-3)

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            fit_zipf_theta(np.array([5.0]))
