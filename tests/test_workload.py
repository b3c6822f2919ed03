"""Tests for the workload package (arrivals, traces, generator, I/O)."""

import numpy as np
import pytest

from repro.popularity import UniformPopularity, ZipfPopularity
from repro.workload import (
    DeterministicArrivals,
    NonHomogeneousPoissonArrivals,
    PoissonArrivals,
    Request,
    RequestTrace,
    WorkloadGenerator,
    load_trace,
    save_trace,
)
from repro.workload.requests import occurrence_ranks


def _counter_ranks(videos):
    """Per-video occurrence ranks from a plain counter."""
    seen = {}
    ranks = []
    for video in videos.tolist():
        ranks.append(seen.get(video, 0))
        seen[video] = ranks[-1] + 1
    return ranks


class TestRequest:
    def test_valid(self):
        request = Request(3.5, 7)
        assert request.arrival_min == 3.5

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Request(-1.0, 0)

    def test_rejects_negative_video(self):
        with pytest.raises(ValueError):
            Request(0.0, -1)


class TestRequestTrace:
    def test_basic(self):
        trace = RequestTrace(np.array([0.0, 1.0, 2.5]), np.array([3, 1, 3]))
        assert trace.num_requests == 3
        assert trace.duration_min == 2.5
        np.testing.assert_array_equal(trace.video_counts(5), [0, 1, 0, 2, 0])

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RequestTrace(np.array([2.0, 1.0]), np.array([0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            RequestTrace(np.array([1.0]), np.array([0, 1]))

    def test_from_requests_sorts(self):
        trace = RequestTrace.from_requests([Request(2.0, 1), Request(1.0, 0)])
        np.testing.assert_array_equal(trace.arrival_min, [1.0, 2.0])

    def test_window(self):
        trace = RequestTrace(np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4))
        sub = trace.window(1.0, 3.0)
        np.testing.assert_array_equal(sub.arrival_min, [1.0, 2.0])
        np.testing.assert_array_equal(sub.videos, [1, 2])

    def test_window_bad_range(self):
        trace = RequestTrace.empty()
        with pytest.raises(ValueError):
            trace.window(2.0, 1.0)

    def test_empty(self):
        trace = RequestTrace.empty()
        assert trace.num_requests == 0
        assert trace.duration_min == 0.0
        assert trace.mean_rate_per_min() == 0.0

    def test_video_counts_bounds(self):
        trace = RequestTrace(np.array([0.0]), np.array([5]))
        with pytest.raises(ValueError, match="only"):
            trace.video_counts(3)

    def test_iteration_and_equality(self):
        trace = RequestTrace(np.array([0.0, 1.0]), np.array([1, 2]))
        assert list(trace) == [Request(0.0, 1), Request(1.0, 2)]
        assert trace == RequestTrace(np.array([0.0, 1.0]), np.array([1, 2]))
        assert trace != RequestTrace(np.array([0.0, 1.0]), np.array([1, 3]))

    def test_immutability(self):
        trace = RequestTrace(np.array([0.0]), np.array([1]))
        with pytest.raises(ValueError):
            trace.arrival_min[0] = 5.0


class TestVideoRanks:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_a_plain_counter(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 400))
        videos = rng.zipf(1.6, count) % int(rng.integers(1, 300))
        trace = RequestTrace(np.sort(rng.uniform(0, 90, count)), videos)
        assert trace.video_ranks.tolist() == _counter_ranks(videos)
        assert trace.video_ranks.dtype == np.min_scalar_type(count)

    def test_narrowest_dtype_read_only_and_cached(self):
        trace = RequestTrace(np.zeros(300), np.zeros(300, dtype=np.int64))
        ranks = trace.video_ranks
        assert ranks is trace.video_ranks
        assert ranks.dtype == np.uint16 and ranks[-1] == 299
        with pytest.raises(ValueError):
            ranks[0] = 1
        assert RequestTrace.empty().video_ranks.size == 0

    def test_prefix_stable(self):
        rng = np.random.default_rng(7)
        videos = rng.integers(0, 9, 200)
        full = occurrence_ranks(videos)
        for cut in (0, 1, 17, 199, 200):
            assert occurrence_ranks(videos[:cut]).tolist() == full[:cut].tolist()

    def test_dropping_a_video_keeps_the_others_ranks(self):
        rng = np.random.default_rng(8)
        videos = rng.integers(0, 6, 300)
        full = occurrence_ranks(videos)
        for dropped in range(6):
            kept = videos != dropped
            assert (
                occurrence_ranks(videos[kept]).tolist()
                == full[kept].tolist()
            )


class TestPoissonArrivals:
    def test_mean_count(self, rng):
        arrivals = PoissonArrivals(40.0)
        counts = [arrivals.sample(90.0, rng).size for _ in range(50)]
        assert np.mean(counts) == pytest.approx(3600, rel=0.02)

    def test_sorted_within_horizon(self, rng):
        times = PoissonArrivals(10.0).sample(30.0, rng)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0 and times.max() < 30.0

    def test_zero_rate(self, rng):
        assert PoissonArrivals(0.0).sample(10.0, rng).size == 0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(-1.0)

    def test_interarrival_exponential(self, rng):
        times = PoissonArrivals(100.0).sample(1000.0, rng)
        gaps = np.diff(times)
        # Mean gap 1/rate; CV of an exponential is 1.
        assert gaps.mean() == pytest.approx(0.01, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.05)


class TestNonHomogeneousArrivals:
    def test_ramp_profile(self, rng):
        # Rate ramps 0 -> 20 over 100 min: expect ~1000 arrivals, skewed late.
        nhpp = NonHomogeneousPoissonArrivals(lambda t: 0.2 * t, 20.0)
        times = nhpp.sample(100.0, rng)
        assert times.size == pytest.approx(1000, rel=0.15)
        assert np.median(times) > 50.0

    def test_rate_above_envelope_rejected(self, rng):
        nhpp = NonHomogeneousPoissonArrivals(lambda t: 0.0 * t + 30.0, 20.0)
        with pytest.raises(ValueError, match="exceeded"):
            nhpp.sample(10.0, rng)

    def test_negative_rate_rejected(self, rng):
        nhpp = NonHomogeneousPoissonArrivals(lambda t: t - 100.0, 20.0)
        with pytest.raises(ValueError, match="negative"):
            nhpp.sample(10.0, rng)


class TestPeakProfile:
    def test_rate_shape(self, rng):
        from repro.workload import peak_profile

        arrivals = peak_profile(2.0, 20.0, 60.0, 120.0, 210.0, 270.0)
        times = arrivals.sample(330.0, rng)
        base = times[(times >= 0) & (times < 60)].size / 60.0
        peak = times[(times >= 120) & (times < 210)].size / 90.0
        tail = times[(times >= 270)].size / 60.0
        assert peak == pytest.approx(20.0, rel=0.15)
        assert base == pytest.approx(2.0, abs=1.0)
        assert tail == pytest.approx(2.0, abs=1.0)

    def test_validation(self):
        from repro.workload import peak_profile

        with pytest.raises(ValueError, match="breakpoints"):
            peak_profile(1.0, 5.0, 100.0, 50.0, 200.0, 300.0)
        with pytest.raises(ValueError, match=">= base"):
            peak_profile(5.0, 1.0, 0.0, 10.0, 20.0, 30.0)


class TestDeterministicArrivals:
    def test_sample_clips_to_horizon(self, rng):
        arrivals = DeterministicArrivals([1.0, 2.0, 50.0])
        np.testing.assert_array_equal(arrivals.sample(10.0, rng), [1.0, 2.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DeterministicArrivals([2.0, 1.0])


class TestWorkloadGenerator:
    def test_generate_shape(self, rng):
        gen = WorkloadGenerator.poisson_zipf(ZipfPopularity(20, 0.75), 40.0)
        trace = gen.generate(90.0, rng)
        assert trace.num_requests > 3000
        assert trace.videos.max() < 20

    def test_video_marginals(self, rng):
        pop = ZipfPopularity(10, 1.0)
        gen = WorkloadGenerator.poisson_zipf(pop, 200.0)
        trace = gen.generate(500.0, rng)
        freq = trace.video_counts(10) / trace.num_requests
        np.testing.assert_allclose(freq, pop.probabilities, atol=0.01)

    def test_generate_runs_reproducible(self):
        gen = WorkloadGenerator.poisson_zipf(UniformPopularity(5), 10.0)
        runs_a = list(gen.generate_runs(30.0, 3, seed=7))
        runs_b = list(gen.generate_runs(30.0, 3, seed=7))
        for a, b in zip(runs_a, runs_b):
            assert a == b

    def test_generate_runs_independent(self):
        gen = WorkloadGenerator.poisson_zipf(UniformPopularity(5), 10.0)
        runs = list(gen.generate_runs(30.0, 2, seed=7))
        assert runs[0] != runs[1]

    def test_expected_requests(self):
        gen = WorkloadGenerator.poisson_zipf(UniformPopularity(5), 40.0)
        assert gen.expected_requests(90.0) == pytest.approx(3600.0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path, rng):
        gen = WorkloadGenerator.poisson_zipf(ZipfPopularity(20, 0.5), 5.0)
        trace = gen.generate(60.0, rng)
        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace(RequestTrace.empty(), path)
        assert load_trace(path).num_requests == 0

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,video\n1.0,2\n")
        with pytest.raises(ValueError, match="header"):
            load_trace(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arrival_min,video\n1.0,2,3\n")
        with pytest.raises(ValueError, match="columns"):
            load_trace(path)


def choice_adversarial_trace(probs, rate_per_min, duration_min, spec, rng):
    """The adversarial generator as it drew each segment with
    ``Generator.choice``; the reference for the shared sampler."""
    from repro.workload.adversarial import popularity_schedule

    times = PoissonArrivals(rate_per_min).sample(duration_min, rng)
    videos = np.zeros(times.size, dtype=np.int64)
    schedule = popularity_schedule(probs, spec)
    bounds = [start * duration_min for start, _ in schedule] + [duration_min]
    for index, (_, segment_probs) in enumerate(schedule):
        mask = (times >= bounds[index]) & (times < bounds[index + 1])
        count = int(mask.sum())
        if count:
            videos[mask] = rng.choice(probs.size, size=count, p=segment_probs)
    return RequestTrace(times, videos)


class TestAdversarialSampling:
    @pytest.mark.parametrize("kind", ["inversion", "hotset_flip", "theta_ramp"])
    @pytest.mark.parametrize("num_videos", [1, 40, 2_000])
    def test_matches_per_segment_choice(self, kind, num_videos):
        from repro.workload import AdversarialSpec, generate_adversarial_trace

        spec = AdversarialSpec(kind=kind, hotset_size=5)
        probs = ZipfPopularity(num_videos, 0.9).probabilities
        expected_rng = np.random.default_rng(num_videos)
        rng = np.random.default_rng(num_videos)
        expected = choice_adversarial_trace(probs, 30.0, 120.0, spec, expected_rng)
        got = generate_adversarial_trace(probs, 30.0, 120.0, spec, rng)
        np.testing.assert_array_equal(got.arrival_min, expected.arrival_min)
        np.testing.assert_array_equal(got.videos, expected.videos)
        assert rng.bit_generator.state == expected_rng.bit_generator.state
