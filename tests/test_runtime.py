"""Tests for the parallel cached experiment engine (repro.runtime)."""

import functools

import numpy as np
import pytest

from repro.cluster_sim import VoDClusterSimulator
from repro.experiments import PAPER_COMBOS, PaperSetup, build_layout, simulate_combo
from repro.runtime import (
    ParallelRunner,
    ResultCache,
    RunReport,
    TrialSpec,
    code_version,
    content_key,
    get_runner,
    make_trials,
    run_trial,
    trial_cache_key,
    use_runner,
)
from repro.runtime import trial
from repro.runtime.trial import trial_trace
from repro.workload import WorkloadGenerator


@pytest.fixture(scope="module")
def small_setup() -> PaperSetup:
    return PaperSetup().scaled_down(num_videos=30, num_servers=4, num_runs=3)


def _fig5_style_sweep(setup, rates=(10.0, 20.0)):
    """A miniature Figure 5 slice: 2 combos x len(rates) points x 3 runs."""
    results = []
    for combo in (PAPER_COMBOS[0], PAPER_COMBOS[3]):
        for rate in rates:
            results.extend(simulate_combo(setup, combo, 0.75, 1.2, rate))
    return results


class TestSeeding:
    def test_spawn_key_matches_generate_runs(self, small_setup):
        """Per-trial SeedSequence children must equal the serial spawn tree."""
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        trials = make_trials(
            setup,
            layout,
            theta=0.75,
            degree=1.2,
            arrival_rate_per_min=15.0,
            seed=424242,
            num_runs=4,
            horizon_min=setup.peak_minutes,
        )
        generator = WorkloadGenerator.poisson_zipf(setup.popularity(0.75), 15.0)
        serial = list(generator.generate_runs(setup.peak_minutes, 4, 424242))
        for spec, trace in zip(trials, serial):
            assert trial_trace(spec) == trace

    def test_run_trial_matches_inline_simulation(self, small_setup):
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        [spec] = make_trials(
            setup,
            layout,
            theta=0.75,
            degree=1.2,
            arrival_rate_per_min=15.0,
            seed=99,
            num_runs=1,
            horizon_min=setup.peak_minutes,
        )
        simulator = VoDClusterSimulator(
            setup.cluster(1.2), setup.videos(), layout
        )
        inline = simulator.run(trial_trace(spec), horizon_min=setup.peak_minutes)
        assert run_trial(spec).same_outcome(inline)


class TestParallelDeterminism:
    def test_parallel_sweep_bit_identical_to_serial(self, small_setup):
        """The ISSUE's headline guarantee, on a fig5-style mini sweep."""
        serial = _fig5_style_sweep(small_setup)
        with ParallelRunner(jobs=2) as runner, use_runner(runner):
            parallel = _fig5_style_sweep(small_setup)
        assert len(serial) == len(parallel) == 12
        assert all(a.same_outcome(b) for a, b in zip(serial, parallel))

    def test_map_simulations_matches_inline(self, small_setup):
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        simulator = VoDClusterSimulator(setup.cluster(1.2), setup.videos(), layout)
        generator = WorkloadGenerator.poisson_zipf(setup.popularity(0.75), 10.0)
        traces = list(generator.generate_runs(setup.peak_minutes, 3, 7))
        inline = [simulator.run(t, horizon_min=setup.peak_minutes) for t in traces]
        with ParallelRunner(jobs=2) as runner:
            fanned = runner.map_simulations(
                simulator, traces, horizon_min=setup.peak_minutes
            )
        assert all(a.same_outcome(b) for a, b in zip(inline, fanned))


class TestResultCache:
    def test_npz_round_trip_is_exact(self, small_setup, tmp_path):
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        [spec] = make_trials(
            setup, layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=15.0, seed=5, num_runs=1,
        )
        result = run_trial(spec)
        cache = ResultCache(tmp_path)
        key = trial_cache_key(spec)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.same_outcome(result)
        assert loaded.wall_time_sec == result.wall_time_sec
        np.testing.assert_array_equal(
            loaded.server_time_avg_load_mbps, result.server_time_avg_load_mbps
        )
        assert loaded.per_video_requests.dtype == result.per_video_requests.dtype

    def test_miss_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz archive")
        assert cache.get(key) is None

    def test_warm_rerun_simulates_nothing(self, small_setup, tmp_path):
        """Second identical sweep: all cache hits, zero simulations."""
        cache = ResultCache(tmp_path)
        with ParallelRunner(jobs=1, cache=cache) as cold, use_runner(cold):
            first = _fig5_style_sweep(small_setup)
            assert cold.report.num_simulated == 12
            assert cold.report.num_cache_hits == 0
        assert len(cache) == 12

        with ParallelRunner(jobs=1, cache=cache) as warm, use_runner(warm):
            second = _fig5_style_sweep(small_setup)
            assert warm.report.num_simulated == 0
            assert warm.report.num_cache_hits == 12
            assert warm.report.cache_hit_rate == 1.0
        assert all(a.same_outcome(b) for a, b in zip(first, second))

    def test_key_distinguishes_design_points(self, small_setup):
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        kwargs = dict(theta=0.75, degree=1.2, arrival_rate_per_min=10.0, seed=1, num_runs=1)
        [base] = make_trials(setup, layout, **kwargs)
        [other_rate] = make_trials(setup, layout, **{**kwargs, "arrival_rate_per_min": 20.0})
        [other_seed] = make_trials(setup, layout, **{**kwargs, "seed": 2})
        keys = {trial_cache_key(s) for s in (base, other_rate, other_seed)}
        assert len(keys) == 3

    def test_key_binds_code_version(self, small_setup, monkeypatch):
        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        kwargs = dict(theta=0.75, degree=1.2, arrival_rate_per_min=10.0, seed=1, num_runs=1)
        [before] = make_trials(setup, layout, **kwargs)
        import repro.runtime.trial as trial_mod

        monkeypatch.setattr(trial_mod, "code_version", lambda: "different")
        [after] = make_trials(setup, layout, **kwargs)
        assert trial_cache_key(before) != trial_cache_key(after)

    def test_clear_and_len(self, small_setup, tmp_path):
        cache = ResultCache(tmp_path)
        with ParallelRunner(cache=cache, jobs=1) as runner, use_runner(runner):
            simulate_combo(small_setup, PAPER_COMBOS[0], 0.75, 1.2, 10.0, num_runs=2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestContentKey:
    def test_stable_across_calls(self, small_setup):
        assert content_key(small_setup) == content_key(small_setup)

    def test_sensitive_to_fields(self, small_setup):
        other = PaperSetup().scaled_down(num_videos=31, num_servers=4, num_runs=3)
        assert content_key(small_setup) != content_key(other)

    def test_array_hashing(self):
        a = np.arange(10.0)
        b = np.arange(10.0)
        b[3] = -1.0
        assert content_key(a) == content_key(np.arange(10.0))
        assert content_key(a) != content_key(b)

    def test_code_version_format(self):
        version = code_version()
        assert isinstance(version, str) and len(version) == 16
        assert version == code_version()  # cached and stable


class TestRunReport:
    def test_counters_and_format(self, small_setup):
        report = RunReport(jobs=3)
        with ParallelRunner(jobs=1, report=report) as runner, use_runner(runner):
            simulate_combo(small_setup, PAPER_COMBOS[0], 0.75, 1.2, 10.0)
        assert report.jobs == 1  # runner owns the worker count
        assert report.num_trials == 3 and report.num_simulated == 3
        assert report.num_events > 0
        assert report.sim_time_sec > 0.0 and report.wall_time_sec > 0.0
        text = report.format()
        assert "3 trials" in text and "events/s" in text and "hit rate" in text

    def test_reset(self):
        report = RunReport(jobs=2)
        report.num_trials = report.num_simulated = 5
        report.reset()
        assert report.num_trials == 0 and report.jobs == 2

    def test_events_per_sec_zero_without_wall(self):
        assert RunReport().events_per_sec == 0.0

    def test_engine_path_counters(self, small_setup):
        report = RunReport()
        with ParallelRunner(jobs=1, report=report) as runner, use_runner(runner):
            batched = simulate_combo(small_setup, PAPER_COMBOS[0], 0.75, 1.2, 10.0)
            simulate_combo(
                small_setup, PAPER_COMBOS[0], 0.75, 1.2, 10.0,
                dispatcher="least_loaded",
            )
        assert [r.delegated for r in batched] == [""] * 3
        assert report.delegations == {"dispatcher": 3}
        assert "delegated runs: dispatcher 3" in report.format()
        report.reset()
        assert report.delegations == {}
        assert "engine" not in report.format()

    def test_uncertified_grid_counts_as_delegation(self, small_setup, monkeypatch):
        from repro.cluster_sim import VectorClusterSimulator

        monkeypatch.setattr(
            VectorClusterSimulator, "_solve_grid", lambda self, *args: None
        )
        report = RunReport()
        with ParallelRunner(jobs=1, report=report) as runner, use_runner(runner):
            results = simulate_combo(small_setup, PAPER_COMBOS[0], 0.75, 1.2, 10.0)
        assert [r.delegated for r in results] == ["grid"] * 3
        assert report.delegations == {"grid": 3}
        assert "engine delegated runs: grid 3" in report.format()

    def test_record_annealing_counters(self):
        class FakeResult:
            steps = 1200
            wall_time_sec = 0.5

        report = RunReport()
        report.record_annealing(FakeResult())
        report.record_annealing(FakeResult())
        assert report.num_sa_runs == 2 and report.num_sa_steps == 2400
        assert report.sa_steps_per_sec == pytest.approx(2400.0)
        assert "steps/s" in report.format()
        report.reset()
        assert report.num_sa_runs == 0 and report.sa_steps_per_sec == 0.0
        assert "annealing" not in report.format()

    def test_record_audit_counters(self):
        class FakeAudit:
            events_audited = 7000
            num_violations = 0

        report = RunReport()
        report.record_audit(FakeAudit())
        report.record_audit(FakeAudit())
        assert report.num_audited_runs == 2 and report.num_audited_events == 14000
        assert report.num_audit_violations == 0
        assert "audit 2 runs" in report.format()
        assert "clean" in report.format()

    def test_record_audit_violations_shown(self):
        class DirtyAudit:
            events_audited = 10
            num_violations = 3

        report = RunReport()
        report.record_audit(DirtyAudit())
        assert "3 violations" in report.format()
        report.reset()
        assert report.num_audited_runs == 0
        assert "audit" not in report.format()

    def test_record_audit_accepts_real_report(self, small_setup):
        from repro.verify import standard_auditors
        from repro.verify.audit import run_audited

        setup = small_setup
        layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
        simulator = VoDClusterSimulator(
            setup.cluster(1.2), setup.videos(), layout
        )
        generator = WorkloadGenerator.poisson_zipf(setup.popularity(0.75), 10.0)
        trace = generator.generate(
            setup.peak_minutes, np.random.default_rng(5)
        )
        _, audit_report = run_audited(
            simulator, trace, auditors=standard_auditors()
        )
        report = RunReport()
        report.record_audit(audit_report)
        assert audit_report.events_audited > 0
        assert report.num_audited_events == audit_report.events_audited
        assert report.num_audit_violations == 0


class TestActiveRunner:
    def test_default_runner_is_serial_uncached(self):
        runner = get_runner()
        assert runner.jobs == 1 and runner.cache is None

    def test_use_runner_scopes_and_restores(self):
        with ParallelRunner(jobs=1) as runner:
            with use_runner(runner):
                assert get_runner() is runner
            assert get_runner() is not runner

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestExecutorLifecycle:
    def test_abandoned_runner_reaps_workers(self, small_setup):
        """A runner dropped without close() must not leak its pool."""
        import gc

        runner = ParallelRunner(jobs=2)
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        simulator = VoDClusterSimulator(
            small_setup.cluster(1.2), small_setup.videos(), layout
        )
        generator = WorkloadGenerator.poisson_zipf(
            small_setup.popularity(0.75), 10.0
        )
        traces = list(generator.generate_runs(small_setup.peak_minutes, 2, 3))
        runner.map_simulations(
            simulator, traces, horizon_min=small_setup.peak_minutes
        )
        workers = list(runner._pool()._processes.values())
        assert workers and any(p.is_alive() for p in workers)
        del runner  # no close(): the finalizer must shut the pool down
        gc.collect()
        for proc in workers:
            proc.join(timeout=30)
        assert not any(p.is_alive() for p in workers)

    def test_close_detaches_finalizer(self):
        runner = ParallelRunner(jobs=2)
        runner._pool()
        assert runner._finalizer is not None and runner._finalizer.alive
        runner.close()
        assert runner._finalizer is None

    def test_close_is_idempotent(self):
        runner = ParallelRunner(jobs=2)
        runner._pool()
        runner.close()
        runner.close()


class TestCacheSchemaVersion:
    def _cached_entry(self, small_setup, tmp_path):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        [spec] = make_trials(
            small_setup, layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=15.0, seed=5, num_runs=1,
        )
        cache = ResultCache(tmp_path)
        key = trial_cache_key(spec)
        cache.put(key, run_trial(spec))
        return cache, key

    def _rewrite(self, cache, key, mutate):
        path = cache.path_for(key)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        mutate(payload)
        np.savez_compressed(path, **payload)

    def test_entries_carry_the_schema_marker(self, small_setup, tmp_path):
        cache, key = self._cached_entry(small_setup, tmp_path)
        with np.load(cache.path_for(key)) as archive:
            assert int(archive["schema"][()]) >= 2

    def test_unversioned_entry_is_a_miss(self, small_setup, tmp_path):
        """Pre-versioning entries (no marker) re-simulate, never crash."""
        cache, key = self._cached_entry(small_setup, tmp_path)
        self._rewrite(cache, key, lambda p: p.pop("schema"))
        assert cache.get(key) is None

    def test_foreign_schema_is_a_miss(self, small_setup, tmp_path):
        cache, key = self._cached_entry(small_setup, tmp_path)

        def bump(payload):
            payload["schema"] = np.int64(999)

        self._rewrite(cache, key, bump)
        assert cache.get(key) is None

    def test_pre_pr5_entry_missing_fields_is_a_miss(
        self, small_setup, tmp_path
    ):
        """An old-shape entry (availability fields absent) must read as a
        miss even if it somehow carries the current marker."""
        cache, key = self._cached_entry(small_setup, tmp_path)

        def strip(payload):
            for name in ("server_downtime_min", "num_failures",
                         "mean_time_to_recovery_min"):
                payload.pop(name)

        self._rewrite(cache, key, strip)
        assert cache.get(key) is None


class TestShardedTrials:
    def _trials(self, small_setup, **overrides):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        kwargs = dict(
            theta=0.75, degree=1.2, arrival_rate_per_min=10.0,
            seed=1, num_runs=2,
        )
        kwargs.update(overrides)
        return make_trials(small_setup, layout, **kwargs)

    def test_run_major_order_and_distinct_keys(self, small_setup):
        trials = self._trials(small_setup, num_shards=3)
        assert [(t.run_index, t.shard_index) for t in trials] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert len({trial_cache_key(t) for t in trials}) == 6

    def test_shard_count_changes_config_key(self, small_setup):
        unsharded = self._trials(small_setup)[0]
        sharded = self._trials(small_setup, num_shards=2)[0]
        assert unsharded.config_key != sharded.config_key

    def test_num_shards_validation(self, small_setup):
        with pytest.raises(ValueError):
            self._trials(small_setup, num_shards=0)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"num_runs": 0}, "num_runs"),
            ({"num_runs": -2}, "num_runs"),
            ({"num_runs": 2.7}, "num_runs"),
            ({"num_runs": True}, "num_runs"),
            ({"num_shards": 1.5}, "num_shards"),
            ({"arrival_rate_per_min": -5.0}, "arrival_rate_per_min"),
            ({"arrival_rate_per_min": float("nan")}, "arrival_rate_per_min"),
            ({"arrival_rate_per_min": float("inf")}, "arrival_rate_per_min"),
            ({"degree": 0.5}, "degree"),
            ({"degree": float("nan")}, "degree"),
            ({"degree": float("inf")}, "degree"),
        ],
    )
    def test_bad_design_point_fails_at_the_call(
        self, small_setup, overrides, match
    ):
        with pytest.raises(ValueError, match=match):
            self._trials(small_setup, **overrides)

    def test_edge_design_points_accepted(self, small_setup):
        trials = self._trials(
            small_setup, num_runs=np.int64(1), arrival_rate_per_min=0.0,
            degree=1,
        )
        assert len(trials) == 1 and trials[0].degree == 1.0

    def test_shard_zero_trace_matches_plain(self, small_setup):
        plain = self._trials(small_setup)
        sharded = self._trials(small_setup, num_shards=2)
        for run_index in range(2):
            assert trial_trace(sharded[2 * run_index]) == trial_trace(
                plain[run_index]
            )
            assert trial_trace(sharded[2 * run_index + 1]) != trial_trace(
                plain[run_index]
            )


class TestTrialSpec:
    def test_resolved_horizon_defaults_to_setup(self, small_setup):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        spec = TrialSpec(
            setup=small_setup, layout=layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=10.0, seed=1, run_index=0,
        )
        assert spec.resolved_horizon_min() == small_setup.peak_minutes
        assert TrialSpec(
            setup=small_setup, layout=layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=10.0, seed=1, run_index=0, horizon_min=42.0,
        ).resolved_horizon_min() == 42.0

    def test_specs_share_config_key_across_run_indices(self, small_setup):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        trials = make_trials(
            small_setup, layout, theta=0.75, degree=1.2,
            arrival_rate_per_min=10.0, seed=1, num_runs=3,
        )
        assert len({t.config_key for t in trials}) == 1
        assert len({trial_cache_key(t) for t in trials}) == 3


class _UnhashableSetup:
    """A duck-typed setup that cannot key the trace memo."""

    __hash__ = None

    def __init__(self, setup):
        self._setup = setup
        self.peak_minutes = setup.peak_minutes

    def cluster(self, degree):
        return self._setup.cluster(degree)

    def videos(self):
        return self._setup.videos()

    def popularity(self, theta):
        return self._setup.popularity(theta)


def _fig4_sweep(setup):
    """One callable per Figure 4 design point, in ``run_fig4`` order."""
    from repro.experiments.fig4 import FIG4_SUBPLOTS

    results = []
    for _, combo, which in FIG4_SUBPLOTS:
        theta = setup.theta_high if which == "high" else setup.theta_low
        for degree in setup.replication_degrees:
            layout = build_layout(setup, combo, theta, degree)
            for rate in setup.arrival_rates_per_min:
                yield functools.partial(
                    simulate_combo, setup, combo, theta, degree, rate,
                    layout=layout,
                )


class TestTrialMemos:
    @pytest.fixture(autouse=True)
    def _cold_memos(self):
        trial._TRACE_MEMO.clear()
        trial._SIM_MEMO.clear()
        yield
        trial._TRACE_MEMO.clear()
        trial._SIM_MEMO.clear()

    def _spec(self, setup, **overrides):
        layout = overrides.pop("layout", None) or build_layout(
            setup, PAPER_COMBOS[0], 0.75, 1.2
        )
        kwargs = dict(
            theta=0.75, degree=1.2, arrival_rate_per_min=10.0,
            seed=1, num_runs=1,
        )
        kwargs.update(overrides)
        return make_trials(setup, layout, **kwargs)[0]

    def test_same_spec_returns_same_trace_object(self, small_setup):
        spec = self._spec(small_setup)
        assert trial_trace(spec) is trial_trace(spec)
        assert len(trial._TRACE_MEMO) == 1

    def test_memo_counts_ranks_without_building_them(self, small_setup):
        trace = trial_trace(self._spec(small_setup))
        assert "video_ranks" not in vars(trace)
        size = trace.arrival_min.nbytes + trace.videos.nbytes
        assert trial._TRACE_MEMO.nbytes == size + trace.video_ranks.nbytes

    def test_distinct_trace_inputs_get_distinct_traces(self, small_setup):
        from dataclasses import replace

        spec = self._spec(small_setup)
        variants = [
            replace(spec, seed=2),
            replace(spec, run_index=1),
            replace(spec, shard_index=1),
            replace(spec, horizon_min=45.0),
            replace(spec, theta=0.25),
            replace(spec, arrival_rate_per_min=20.0),
            replace(spec, setup=replace(small_setup, num_videos=31)),
        ]
        base = trial_trace(spec)
        traces = [trial_trace(v) for v in variants]
        assert len({id(t) for t in [base, *traces]}) == 1 + len(variants)
        assert len(trial._TRACE_MEMO) == 1 + len(variants)
        trial._TRACE_MEMO.clear()
        for variant, trace in zip(variants, traces):
            fresh = trial_trace(variant)
            assert fresh is not trace and fresh == trace
            assert fresh != base

    def test_eviction_respects_byte_bound(self, small_setup, monkeypatch):
        trials = make_trials(
            small_setup, build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2),
            theta=0.75, degree=1.2, arrival_rate_per_min=10.0, seed=1,
            num_runs=6,
        )
        sizes = [
            trace.arrival_min.nbytes * 2 + trace.video_ranks.nbytes
            for trace in map(trial_trace, trials)
        ]
        memo = trial._TraceMemo(max_bytes=sizes[-1] + sizes[-2] + sizes[-3])
        monkeypatch.setattr(trial, "_TRACE_MEMO", memo)
        traces = []
        for spec in trials:
            traces.append(trial_trace(spec))
            assert memo.nbytes <= memo.max_bytes
        assert 1 <= len(memo) <= 3
        assert memo.nbytes == sum(sizes[-len(memo):])
        assert trial_trace(trials[-1]) is traces[-1]  # newest kept
        first = trial_trace(trials[0])  # oldest evicted: regenerated
        assert first is not traces[0] and first == traces[0]

    def test_trace_larger_than_bound_is_not_kept(self, small_setup, monkeypatch):
        memo = trial._TraceMemo(max_bytes=8)
        monkeypatch.setattr(trial, "_TRACE_MEMO", memo)
        spec = self._spec(small_setup)
        assert trial_trace(spec) == trial_trace(spec)
        assert len(memo) == 0 and memo.nbytes == 0

    def test_unhashable_setup_still_runs(self, small_setup):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        spec = self._spec(_UnhashableSetup(small_setup), layout=layout)
        plain = self._spec(small_setup, layout=layout)
        first = trial_trace(spec)
        assert trial_trace(spec) is not first
        assert first == trial_trace(plain)
        assert run_trial(spec).same_outcome(run_trial(plain))
        assert len(trial._TRACE_MEMO) == 1  # only the hashable setup's

    def test_one_simulator_serves_every_rate_of_a_layout(self, small_setup):
        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        specs = [
            self._spec(
                small_setup, layout=layout, arrival_rate_per_min=rate,
                seed=seed, horizon_min=horizon,
            )
            for rate, seed, horizon in ((10.0, 1, None), (20.0, 2, 60.0),
                                        (30.0, 3, None))
        ]
        assert len({s.config_key for s in specs}) == 3
        assert len({s.simulator_key for s in specs}) == 1
        for spec in specs:
            run_trial(spec)
        assert len(trial._SIM_MEMO) == 1

    def test_simulator_inputs_get_their_own_simulator(self, small_setup):
        base = self._spec(small_setup)
        variants = [
            self._spec(
                small_setup,
                layout=build_layout(small_setup, PAPER_COMBOS[3], 0.75, 1.2),
            ),
            self._spec(
                small_setup, degree=1.4,
                layout=build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.4),
            ),
            self._spec(small_setup, engine="optimized"),
            self._spec(small_setup, dispatcher="least_loaded"),
            self._spec(small_setup, backbone_mbps=100.0),
        ]
        simulators = [
            trial._simulator_for(spec) for spec in [base, *variants]
        ]
        assert len({id(s) for s in simulators}) == 1 + len(variants)
        assert len(trial._SIM_MEMO) == 1 + len(variants)

    def test_simulator_key_survives_pickling(self, small_setup):
        import pickle

        spec = self._spec(small_setup)
        simulator = trial._simulator_for(spec)
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped.layout is not spec.layout
        assert trial._simulator_for(shipped) is simulator

    def test_fig4_sweep_same_outcome_warm_cleared_and_pooled(self):
        setup = PaperSetup().quick(num_runs=3)
        warm = [point() for point in _fig4_sweep(setup)]
        # 2 thetas x 8 rates x 3 runs distinct traces; 24 layouts.
        assert len(trial._TRACE_MEMO) == 48
        cleared = []
        for point in _fig4_sweep(setup):
            trial._TRACE_MEMO.clear()
            trial._SIM_MEMO.clear()
            cleared.append(point())
        with ParallelRunner(jobs=2) as runner, use_runner(runner):
            pooled = [point() for point in _fig4_sweep(setup)]
        assert len(warm) == len(cleared) == len(pooled) == 192
        for a, b, c in zip(warm, cleared, pooled):
            assert len(a) == len(b) == len(c) == 3
            assert all(x.same_outcome(y) for x, y in zip(a, b))
            assert all(x.same_outcome(y) for x, y in zip(a, c))
