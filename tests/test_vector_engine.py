"""Lockstep equivalence of the vector event-batch engine + engine= threading.

The ``vector`` engine (``repro.cluster_sim.vector``) must produce
bit-identical :class:`SimulationResult` outcomes to the optimized and
reference loops on *every* configuration: the batched fast path on the
paper's base model, and the delegation path everywhere else (dynamic
dispatchers, chaos, backbone redirection, stream limits, truncation).
This module enforces that over

* hand-picked crossings of every feature axis,
* randomized scenarios drawn from the fuzzer's own DES generator, and
* every pinned DES case in ``tests/corpus/``,

and additionally checks the ``engine=`` selection surface: the registry,
``solve(engine=...)``, the trial cache key, and serving-plane shards.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cluster_sim import (
    ENGINES,
    ReferenceClusterSimulator,
    VectorClusterSimulator,
    VoDClusterSimulator,
    engine_run_kwargs,
    make_simulator,
    validate_engine,
)
from repro.verify import load_corpus
from repro.verify.scenarios import _draw_des, build_des

CORPUS_DIR = Path(__file__).parent / "corpus"
DES_CORPUS = [
    (path, case) for path, case in load_corpus(CORPUS_DIR) if case.kind == "des"
]


def _params(**overrides) -> dict:
    """A small, fast DES case; overrides select the feature under test."""
    params = {
        "num_videos": 24,
        "num_servers": 4,
        "theta": 0.75,
        "bandwidth_mbps": 300.0,
        "rate_per_min": 18.0,
        "duration_min": 45.0,
        "video_duration_min": 20.0,
        "capacity": 16,
        "dispatcher": "static_rr",
        "failures": False,
        "failure_at_t0": False,
        "failure_at_horizon": False,
        "correlated_failures": False,
        "mtbf_frac": 0.4,
        "mttr_frac": 0.15,
        "redirection": False,
        "backbone_frac": 0.4,
        "stream_limits": False,
        "watch_time": False,
        "watch_mean": 0.6,
        "failover_on_down": False,
        "horizon_frac": 1.0,
        "trace_seed": 11,
        "build_seed": 12,
        "failure_seed": 13,
        "limits_seed": 14,
    }
    params.update(overrides)
    return params


def _vector_twin(optimized: VoDClusterSimulator) -> VectorClusterSimulator:
    """A vector engine over the exact same system as *optimized*."""
    return VectorClusterSimulator(
        optimized._cluster,
        optimized._videos,
        optimized._layout,
        dispatcher_factory=optimized._dispatcher_factory,
        backbone_mbps=optimized._backbone_mbps,
        stream_limits=optimized._stream_limits,
        redirection_pods=optimized._redirection_pods,
    )


def _assert_lockstep(params: dict) -> None:
    optimized, reference, trace, run_kwargs = build_des(params)
    vector = _vector_twin(optimized)
    opt_result = optimized.run(trace, **run_kwargs)
    vec_result = vector.run(trace, **run_kwargs)
    assert opt_result.same_outcome(vec_result), params
    ref_result = reference.run(trace, **run_kwargs)
    assert ref_result.same_outcome(vec_result), params


class TestFeatureCrossings:
    """One axis at a time: each non-default knob flips the engine onto a
    different internal path (batched vs delegated) — all must agree."""

    def test_base_model_fast_path(self):
        _assert_lockstep(_params())

    def test_saturated_fast_path(self):
        # High rate forces rejections, exercising the admission sandwich.
        _assert_lockstep(_params(rate_per_min=60.0, bandwidth_mbps=120.0))

    def test_watch_time_departures(self):
        _assert_lockstep(_params(watch_time=True))

    def test_horizon_truncation(self):
        _assert_lockstep(_params(horizon_frac=0.7))

    def test_stream_limits(self):
        _assert_lockstep(_params(stream_limits=True))

    @pytest.mark.parametrize("dispatcher", ["least_loaded", "first_fit"])
    def test_dynamic_dispatchers_delegate(self, dispatcher):
        _assert_lockstep(_params(dispatcher=dispatcher))

    def test_backbone_redirection(self):
        _assert_lockstep(_params(redirection=True))

    def test_chaos_failures(self):
        _assert_lockstep(_params(failures=True, failover_on_down=True))

    def test_chaos_with_retry_and_rereplication(self):
        _assert_lockstep(
            _params(
                failures=True,
                failover_on_down=True,
                failover_retry=True,
                max_retries=3,
                backoff_frac=0.02,
                rereplication=True,
                migration_frac=1.5,
            )
        )

    @pytest.mark.parametrize(
        "feature",
        [
            {},
            {"redirection": True},
            {"failures": True, "failover_on_down": True},
            {
                "failures": True,
                "failover_on_down": True,
                "failover_retry": True,
                "rereplication": True,
            },
        ],
        ids=["plain", "redirection", "failures", "chaos"],
    )
    def test_fig5_scale(self, fig5_des, feature):
        _assert_lockstep(_params(**fig5_des, **feature))

    def test_empty_trace(self):
        optimized, _, trace, run_kwargs = build_des(_params())
        empty = type(trace)(
            arrival_min=trace.arrival_min[:0], videos=trace.videos[:0]
        )
        vector = _vector_twin(optimized)
        opt_result = optimized.run(empty, **run_kwargs)
        vec_result = vector.run(empty, **run_kwargs)
        assert opt_result.same_outcome(vec_result)

    def test_fast_path_engages_on_base_model(self, monkeypatch):
        """The batched path (not delegation) serves the paper's base model."""
        optimized, _, trace, run_kwargs = build_des(_params())
        vector = _vector_twin(optimized)
        expected = optimized.run(trace, **run_kwargs)

        def _no_delegation(self, *args, **kwargs):
            raise AssertionError("base model must take the batched path")

        monkeypatch.setattr(VoDClusterSimulator, "run", _no_delegation)
        got = vector.run(trace, **run_kwargs)
        assert expected.same_outcome(got)


def _grid_lockstep(layout, trace, *, bandwidths, horizon_min=None,
                   stream_limits=None, delegated=""):
    """Run one system on all three engines; return the vector result.

    *delegated* is the vector run's expected engine path: ``""`` (the
    batched path), ``"grid"`` (an uncertified grid), or ``None`` for
    either.
    """
    from repro import ClusterSpec, VideoCollection
    from repro.model.cluster import ServerSpec

    cluster = ClusterSpec(
        [ServerSpec(storage_gb=1.0e6, bandwidth_mbps=b) for b in bandwidths]
    )
    videos = VideoCollection.homogeneous(layout.num_videos, duration_min=30.0)
    args = (cluster, videos, layout)
    kwargs = {"stream_limits": stream_limits}
    run = {"horizon_min": horizon_min}
    vec_result = VectorClusterSimulator(*args, **kwargs).run(trace, **run)
    for engine in (VoDClusterSimulator, ReferenceClusterSimulator):
        assert engine(*args, **kwargs).run(trace, **run).same_outcome(vec_result)
    if delegated is None:
        assert vec_result.delegated in ("", "grid")
    else:
        assert vec_result.delegated == delegated
    return vec_result


def _poisson_trace(num_videos, rate_per_min, duration_min, seed, watch=None):
    from repro.workload import RequestTrace

    rng = np.random.default_rng(seed)
    count = rng.poisson(rate_per_min * duration_min)
    times = np.sort(rng.uniform(0.0, duration_min, count))
    videos = rng.integers(0, num_videos, count)
    return RequestTrace(times, videos, watch(rng, count) if watch else None)


class TestGridRows:
    """Each server is one grid row; rows must not leak into each other."""

    def test_one_saturated_row_delegates_the_run(self, monkeypatch):
        # One starved server saturates and needs a second sandwich round;
        # with a one-round budget its row stays open, so the whole run
        # takes the optimized loop.
        from repro.cluster_sim import vector
        from repro.model import ReplicaLayout

        monkeypatch.setattr(vector, "_MAX_ROUNDS", 1)
        layout = ReplicaLayout.from_assignment(
            [[v % 4] for v in range(16)], 4
        )
        trace = _poisson_trace(16, 8.0, 40.0, seed=5)
        bandwidths = [400.0, 400.0, 24.0, 400.0]
        result = _grid_lockstep(
            layout, trace, bandwidths=bandwidths, delegated="grid"
        )
        assert result.server_served[2] < result.per_video_requests[2::4].sum()
        # The default budget decides the same grid on the batched path.
        monkeypatch.setattr(vector, "_MAX_ROUNDS", 24)
        _grid_lockstep(layout, trace, bandwidths=bandwidths)

    def test_skewed_rows_with_an_empty_server(self):
        # Server 0 holds every video, server 1 a few, server 3 none: the
        # grid is as wide as server 0's timeline and row 3 is all padding.
        from repro.model import ReplicaLayout

        layout = ReplicaLayout.from_assignment(
            [[0, 1] if v < 3 else [0] for v in range(12)], 4
        )
        trace = _poisson_trace(12, 10.0, 40.0, seed=6)
        result = _grid_lockstep(
            layout, trace, bandwidths=[200.0, 120.0, 120.0, 120.0]
        )
        assert result.server_served[3] == result.server_served[2] == 0
        assert result.server_served[0] > 2 * result.server_served[1] > 0
        assert result.num_rejected > 0

    def test_zero_hold_and_truncated_departures(self):
        # Watch times far below one ulp of the arrival time end a stream
        # at its own arrival instant; full-length streams outlive the
        # horizon and are never popped.
        from repro.model import ReplicaLayout

        def watch(rng, count):
            kind = rng.integers(0, 3, count)
            return np.choose(kind, [1e-18, rng.uniform(0.5, 5.0, count), 1e3])

        layout = ReplicaLayout.from_assignment(
            [[v % 3, (v + 1) % 3] for v in range(9)], 3
        )
        trace = _poisson_trace(9, 12.0, 40.0, seed=7, watch=watch)
        t = trace.arrival_min
        assert np.any(t + trace.watch_min == t)
        result = _grid_lockstep(
            layout, trace, bandwidths=[60.0] * 3, horizon_min=30.0
        )
        assert 0 < result.num_events - result.num_requests
        assert result.num_truncated > 0

    def test_stream_limits_across_rows(self):
        from repro.model import ReplicaLayout

        layout = ReplicaLayout.from_assignment(
            [[v % 4, (v + 2) % 4] for v in range(16)], 4
        )
        trace = _poisson_trace(16, 12.0, 40.0, seed=8)
        result = _grid_lockstep(
            layout,
            trace,
            bandwidths=[1000.0] * 4,
            stream_limits=[0, 3, 9, 40],
        )
        assert result.server_served[0] == 0
        assert result.server_peak_load_mbps[1] == 3 * 4.0
        assert result.server_peak_load_mbps[2] == 9 * 4.0


def _spy_sandwich(monkeypatch):
    """Count the grid replays that enter the admission sandwich."""
    from repro.cluster_sim import vector

    calls = []
    sandwich = vector._sandwich

    def _counted(*args):
        calls.append(1)
        return sandwich(*args)

    monkeypatch.setattr(vector, "_sandwich", _counted)
    return calls


def _random_exit_case(rng):
    """A small system weighted toward the admit-all exit's edges.

    Bandwidths are whole multiples of one replica rate (a server can fill
    to exactly its capacity), half the layouts mix per-replica rates
    (float residue in the occupancy folds), and zero-hold streams,
    stream limits and a cut horizon each appear in about half the cases.
    """
    from repro.model import ReplicaLayout

    num_servers = int(rng.integers(1, 5))
    num_videos = int(rng.integers(2, 10))
    mixed = rng.random() < 0.5
    holders = [
        np.sort(rng.choice(num_servers, int(rng.integers(1, num_servers + 1)),
                           replace=False))
        for _ in range(num_videos)
    ]
    indices = np.concatenate(holders)
    rates = (
        rng.choice([0.1, 0.3, 0.7, 1.1, 2.9], indices.size)
        if mixed else np.full(indices.size, 4.0)
    )
    layout = ReplicaLayout.from_holders(
        np.cumsum([0] + [h.size for h in holders]), indices, rates,
        num_servers=num_servers,
    )
    unit = float(rng.choice(rates))
    bandwidths = (unit * rng.integers(2, 13, num_servers)).tolist()

    def watch(rng, count):
        kind = rng.integers(0, 3, count)
        return np.choose(kind, [1e-18, rng.uniform(0.5, 5.0, count), 1e3])

    trace = _poisson_trace(
        num_videos,
        float(rng.uniform(0.05, 1.2)),
        40.0,
        seed=int(rng.integers(1 << 30)),
        watch=watch if rng.random() < 0.5 else None,
    )
    limits = (
        rng.integers(1, 12, num_servers).tolist() if rng.random() < 0.5 else None
    )
    horizon = 25.0 if rng.random() < 0.5 else None
    return layout, trace, bandwidths, horizon, limits


class TestAdmitAllExit:
    """A grid on which every arrival fits when all are admitted returns
    straight after the admit-all fold; everything else takes the
    sandwich.  Both must equal the reference loop."""

    def test_random_cases_match_reference(self, monkeypatch):
        calls = _spy_sandwich(monkeypatch)
        rng = np.random.default_rng(np.random.SeedSequence(0xE817))
        exits = 0
        for index in range(80):
            layout, trace, bandwidths, horizon, limits = _random_exit_case(rng)
            if index % 2:
                # Every server's capacity is exactly its admit-all peak.
                bandwidths = np.maximum(
                    _grid_lockstep(
                        layout, trace, bandwidths=[1e9] * len(bandwidths),
                        horizon_min=horizon, stream_limits=limits,
                        delegated=None,
                    ).server_peak_load_mbps,
                    0.1,
                ).tolist()
            before = len(calls)
            _grid_lockstep(
                layout, trace, bandwidths=bandwidths, horizon_min=horizon,
                stream_limits=limits, delegated=None,
            )
            exits += len(calls) == before
        # Both paths are exercised.
        assert 20 <= exits <= 60

    def test_server_filled_to_exact_capacity_exits(self, monkeypatch):
        from repro.model import ReplicaLayout
        from repro.workload import RequestTrace

        calls = _spy_sandwich(monkeypatch)
        layout = ReplicaLayout.from_assignment([[0], [0], [0]], 1)
        fill = RequestTrace([1.0, 2.0, 3.0], [0, 1, 2])
        result = _grid_lockstep(layout, fill, bandwidths=[12.0])
        assert calls == [] and result.num_rejected == 0
        assert result.server_peak_load_mbps[0] == 12.0
        over = RequestTrace([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 0])
        result = _grid_lockstep(layout, over, bandwidths=[12.0])
        assert calls == [1] and result.num_rejected == 1

    def test_stream_limit_overflow_takes_the_sandwich(self, monkeypatch):
        from repro.model import ReplicaLayout
        from repro.workload import RequestTrace

        calls = _spy_sandwich(monkeypatch)
        layout = ReplicaLayout.from_assignment([[0], [0]], 1)
        trace = RequestTrace([1.0, 2.0, 3.0], [0, 1, 0])
        result = _grid_lockstep(
            layout, trace, bandwidths=[100.0], stream_limits=[3]
        )
        assert calls == [] and result.num_rejected == 0
        result = _grid_lockstep(
            layout, trace, bandwidths=[100.0], stream_limits=[2]
        )
        assert calls == [1] and result.num_rejected == 1

    def test_no_overflow_never_enters_the_sandwich(self, monkeypatch):
        # With a zero round budget the sandwich would delegate every run
        # to the optimized loop; an unsaturated run must not reach it.
        from repro.cluster_sim import vector

        monkeypatch.setattr(vector, "_MAX_ROUNDS", 0)
        calls = _spy_sandwich(monkeypatch)
        optimized, _, trace, run_kwargs = build_des(_params(rate_per_min=6.0))
        expected = optimized.run(trace, **run_kwargs)
        assert expected.num_rejected == 0
        result = _vector_twin(optimized).run(trace, **run_kwargs)
        assert expected.same_outcome(result)
        assert calls == [] and result.delegated == ""

        optimized, reference, trace, run_kwargs = build_des(
            _params(rate_per_min=60.0, bandwidth_mbps=120.0)
        )
        result = _vector_twin(optimized).run(trace, **run_kwargs)
        assert optimized.run(trace, **run_kwargs).same_outcome(result)
        assert reference.run(trace, **run_kwargs).same_outcome(result)
        assert calls == [1] and result.delegated == "grid"


def _observed_pair(layout, trace, *, bandwidths, horizon_min=None,
                   stream_limits=None):
    """Observe one system on the vector and optimized engines.

    The two engines build the admitted-stream table independently (from
    the certified grid and from the run record), so their observations
    must agree row for row and event for event.
    """
    from repro import ClusterSpec, VideoCollection
    from repro.model.cluster import ServerSpec
    from repro.observe import Observer, ObserverConfig

    cluster = ClusterSpec(
        [ServerSpec(storage_gb=1.0e6, bandwidth_mbps=b) for b in bandwidths]
    )
    videos = VideoCollection.homogeneous(layout.num_videos, duration_min=30.0)
    config = ObserverConfig(
        sample_interval_min=0.7, trace_events=True, trace_event_every=1
    )
    observed = {}
    for engine in (VectorClusterSimulator, VoDClusterSimulator):
        observer = Observer(config)
        result = engine(
            cluster, videos, layout, stream_limits=stream_limits
        ).run(trace, horizon_min=horizon_min, observer=observer)
        observed[engine] = (result, observer)
    (vec, vec_obs), (opt, opt_obs) = observed.values()
    assert vec.same_outcome(opt)
    for name in ("sim.server_load_mbps", "sim.server_streams", "sim.rates"):
        assert vec_obs.registry.series[name].rows == (
            opt_obs.registry.series[name].rows
        ), name
    for kind in ("arrival", "departure"):
        assert vec_obs.tracer.by_kind(kind) == opt_obs.tracer.by_kind(kind)
    return vec, vec_obs


class TestObservedLockstep:
    """An observed vector run batches and observes what the optimized
    loop observes."""

    def test_random_cases_match_optimized(self):
        rng = np.random.default_rng(np.random.SeedSequence(0xE817))
        batched = 0
        for _ in range(80):
            layout, trace, bandwidths, horizon, limits = _random_exit_case(rng)
            result, observer = _observed_pair(
                layout, trace, bandwidths=bandwidths, horizon_min=horizon,
                stream_limits=limits,
            )
            batched += result.delegated == ""
            assert len(observer.tracer.by_kind("arrival")) == (
                result.num_requests
            )
        assert batched >= 60

    def test_saturated_base_model_stays_batched(self):
        optimized, _, trace, run_kwargs = build_des(
            _params(rate_per_min=60.0, bandwidth_mbps=120.0)
        )
        result, observer = _observed_pair(
            optimized._layout, trace,
            bandwidths=optimized._cluster.bandwidth_mbps.tolist(),
        )
        assert result.delegated == "" and result.num_rejected > 0
        assert observer.registry.series["sim.rates"].rows[-1][2] > 0.0


class TestUncertifiedGrid:
    """A grid the engine cannot certify exact hands the whole run to the
    optimized loop (``delegated == "grid"``), with the same outcome."""

    @staticmethod
    def _residue_system():
        # 0.7 + 0.1 - 0.7 - 0.1 folds to -1.4e-16, which the scalar loops
        # clamp to zero at the second departure (t = 32 < horizon).
        from repro.model import ReplicaLayout

        return ReplicaLayout.from_holders(
            [0, 1, 2], [0, 0], [0.7, 0.1], num_servers=1
        )

    def test_negative_departure_on_the_admit_all_exit(self, monkeypatch):
        from repro.workload import RequestTrace

        calls = _spy_sandwich(monkeypatch)
        trace = RequestTrace([1.0, 2.0], [0, 1])
        result = _grid_lockstep(
            self._residue_system(), trace, bandwidths=[10.0],
            horizon_min=40.0, delegated="grid",
        )
        assert calls == [] and result.num_rejected == 0

    def test_negative_departure_after_the_sandwich(self, monkeypatch):
        from repro.workload import RequestTrace

        calls = _spy_sandwich(monkeypatch)
        trace = RequestTrace([1.0, 2.0, 3.0], [0, 1, 0])
        result = _grid_lockstep(
            self._residue_system(), trace, bandwidths=[0.8],
            horizon_min=40.0, delegated="grid",
        )
        assert calls == [1] and result.num_rejected == 1

    def test_recheck_catches_a_wrong_decision(self, monkeypatch):
        # A sandwich that rejects an arrival the exact replay admits is
        # caught by the re-check, never published.
        from repro.cluster_sim import vector
        from repro.model import ReplicaLayout
        from repro.workload import RequestTrace

        sandwich = vector._sandwich

        def _first_admission_flipped(na, *args):
            status = sandwich(na, *args)
            status[np.argmax(status[:na] == 1)] = 2
            return status

        monkeypatch.setattr(vector, "_sandwich", _first_admission_flipped)
        layout = ReplicaLayout.from_assignment([[0], [0]], 1)
        trace = RequestTrace([1.0, 2.0, 3.0], [0, 1, 0])
        result = _grid_lockstep(
            layout, trace, bandwidths=[8.0], delegated="grid"
        )
        assert result.num_rejected == 1


class TestRandomizedLockstep:
    """Scenarios from the fuzzer's own DES generator (fixed stream)."""

    @pytest.mark.parametrize("index", range(8))
    def test_random_case(self, index):
        rng = np.random.default_rng(np.random.SeedSequence((0x7EC, index)))
        case = _draw_des(rng, index)
        _assert_lockstep(case.params)


@pytest.mark.parametrize(
    "path, case", DES_CORPUS, ids=[path.stem for path, _ in DES_CORPUS]
)
def test_corpus_case_vector_lockstep(path, case):
    """Every pinned DES corpus case replays through the vector engine."""
    _assert_lockstep(case.params)


class TestEngineRegistry:
    def test_registry_names(self):
        assert set(ENGINES) == {"optimized", "vector", "reference", "audited"}
        for name in ENGINES:
            validate_engine(name)
        with pytest.raises(ValueError, match="unknown engine"):
            validate_engine("warp")

    def test_make_simulator_types(self):
        optimized, _, _, _ = build_des(_params())
        args = (optimized._cluster, optimized._videos, optimized._layout)
        assert isinstance(make_simulator("vector", *args), VectorClusterSimulator)
        assert isinstance(
            make_simulator("reference", *args), ReferenceClusterSimulator
        )
        audited = make_simulator("audited", *args)
        assert type(audited) is VoDClusterSimulator

    def test_engine_run_kwargs(self):
        assert engine_run_kwargs("optimized") == {}
        assert engine_run_kwargs("vector") == {}
        audited = engine_run_kwargs("audited")
        assert audited["auditors"], "audited engine must attach auditors"


class TestEngineThreading:
    """engine= flows through solve(), the trial cache and the serving plane."""

    @pytest.fixture(scope="class")
    def small_setup(self):
        from repro.experiments import PaperSetup

        return PaperSetup().scaled_down(
            num_videos=24, num_servers=4, num_runs=2
        )

    def _solve(self, small_setup, engine):
        from repro import PipelineConfig, solve

        return solve(
            PipelineConfig(
                theta=0.75,
                replication_degree=1.2,
                arrival_rate_per_min=15.0,
                setup=small_setup,
                engine=engine,
            )
        )

    @pytest.mark.parametrize("engine", ["vector", "audited"])
    def test_solve_engines_match_default(self, small_setup, engine):
        baseline = self._solve(small_setup, "optimized")
        other = self._solve(small_setup, engine)
        assert len(baseline.results) == len(other.results)
        for a, b in zip(baseline.results, other.results):
            assert a.same_outcome(b)

    def test_solve_reference_engine_matches(self, small_setup):
        baseline = self._solve(small_setup, "optimized")
        reference = self._solve(small_setup, "reference")
        for a, b in zip(baseline.results, reference.results):
            assert a.same_outcome(b)

    def test_observer_rejects_reference_engine(self, small_setup):
        from repro import PipelineConfig, solve
        from repro.observe import Observer, ObserverConfig

        config = PipelineConfig(setup=small_setup, engine="reference")
        with pytest.raises(ValueError, match="reference"):
            solve(config, observer=Observer(ObserverConfig()))

    def test_engine_distinguishes_trial_cache_key(self, small_setup):
        from repro.experiments.runner import build_layout, PAPER_COMBOS
        from repro.runtime import make_trials

        layout = build_layout(small_setup, PAPER_COMBOS[0], 0.75, 1.2)
        keys = {}
        for engine in ("optimized", "vector", "audited", "reference"):
            trials = make_trials(
                small_setup,
                layout,
                theta=0.75,
                degree=1.2,
                arrival_rate_per_min=15.0,
                seed=7,
                num_runs=1,
                engine=engine,
            )
            keys[engine] = trials[0].config_key
        assert len(set(keys.values())) == 4, keys

    def test_serving_engine_and_shards_snapshots_match(self):
        from repro.serving import ServingConfig, ServingControlPlane

        base = dict(
            epochs=2,
            epoch_minutes=30.0,
            base_rate_per_min=6.0,
            peak_rate_per_min=10.0,
            screen=False,
            anneal_polish=False,
        )
        plain = ServingControlPlane(ServingConfig(**base)).run()
        vector = ServingControlPlane(
            ServingConfig(**base, engine="vector")
        ).run()
        assert plain.digest() == vector.digest()
        sharded = ServingControlPlane(
            ServingConfig(**base, engine="vector", shards=2)
        ).run()
        # Shard 0 regenerates the unsharded epoch trace; shard 1 adds its
        # own stream — total demand roughly doubles at the same logical N.
        assert sharded.digest() != plain.digest()

    def test_from_pipeline_carries_engine_and_shards(self):
        from repro import PipelineConfig
        from repro.serving import ServingConfig

        pipeline = PipelineConfig(engine="vector", shards=2, dispatcher="least_loaded")
        serving = ServingConfig.from_pipeline(pipeline)
        assert serving.engine == "vector"
        assert serving.shards == 2
        assert serving.dispatcher == "least_loaded"


class TestDefaultEngine:
    """``vector`` is the default everywhere and records its engine path."""

    @pytest.fixture(scope="class")
    def small_setup(self):
        from repro.experiments import PaperSetup

        return PaperSetup().scaled_down(
            num_videos=24, num_servers=4, num_runs=2
        )

    def test_configs_default_to_registry_default(self):
        from repro import PipelineConfig
        from repro.cluster_sim import DEFAULT_ENGINE
        from repro.runtime.trial import TrialSpec
        from repro.serving import ServingConfig

        assert DEFAULT_ENGINE == "vector"
        assert PipelineConfig().engine == ServingConfig().engine == DEFAULT_ENGINE
        assert TrialSpec.__dataclass_fields__["engine"].default == DEFAULT_ENGINE

    def test_cli_engine_choices_match_registry(self):
        import argparse

        from repro import PipelineConfig
        from repro.__main__ import build_parser
        from repro.cluster_sim import DEFAULT_ENGINE
        from repro.serving import ServingConfig

        (verbs,) = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        for verb, config_cls in (
            ("pipeline", PipelineConfig),
            ("serve", ServingConfig),
        ):
            parser = verbs.choices[verb]
            (action,) = [a for a in parser._actions if a.dest == "engine"]
            assert set(action.choices) == set(ENGINES)
            # The flag declares no default: the config field's is the one.
            assert action.default is argparse.SUPPRESS
            assert config_cls().engine == DEFAULT_ENGINE

    def test_observed_solve_delegates_with_same_outcome(self, small_setup):
        from repro import PipelineConfig, solve
        from repro.observe import Observer, ObserverConfig

        config = PipelineConfig(
            theta=0.75,
            replication_degree=1.2,
            arrival_rate_per_min=15.0,
            setup=small_setup,
        )
        plain = solve(config)
        observed = solve(config, observer=Observer(ObserverConfig()))
        assert len(plain.results) == len(observed.results) == 2
        for batched, watched in zip(plain.results, observed.results):
            assert batched.same_outcome(watched)
            # An observer is folded from the grid: both runs batch.
            assert batched.delegated == watched.delegated == ""
        for solved in (plain, observed):
            assert solved.report.delegations == {}
            assert "engine" not in solved.report.format()

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"dispatcher": "least_loaded"}, "dispatcher"),
            ({"redirection": True}, "backbone"),
            ({"failures": True}, "failures"),
        ],
    )
    def test_delegation_reason_recorded(self, overrides, reason):
        optimized, _, trace, run_kwargs = build_des(_params(**overrides))
        result = _vector_twin(optimized).run(trace, **run_kwargs)
        assert result.delegated == reason
        assert optimized.run(trace, **run_kwargs).delegated == ""

    def test_auditors_delegation_reason(self):
        from repro.verify import standard_auditors

        optimized, _, trace, run_kwargs = build_des(_params())
        result = _vector_twin(optimized).run(
            trace, auditors=standard_auditors(), **run_kwargs
        )
        assert result.delegated == "auditors"

    def test_uncertified_grid_delegates(self, monkeypatch):
        optimized, reference, trace, run_kwargs = build_des(
            _params(rate_per_min=60.0, bandwidth_mbps=120.0)
        )
        monkeypatch.setattr(
            VectorClusterSimulator, "_solve_grid", lambda self, *args: None
        )
        result = _vector_twin(optimized).run(trace, **run_kwargs)
        assert result.delegated == "grid"
        assert optimized.run(trace, **run_kwargs).same_outcome(result)
        assert reference.run(trace, **run_kwargs).same_outcome(result)

    def test_round_budget_counts_productive_rounds(self, monkeypatch):
        # An unsaturated server resolves in one sandwich round, so a
        # one-round budget must keep every server on the batched path.
        from repro.cluster_sim import vector

        monkeypatch.setattr(vector, "_MAX_ROUNDS", 1)
        optimized, _, trace, run_kwargs = build_des(_params(rate_per_min=6.0))
        expected = optimized.run(trace, **run_kwargs)
        assert expected.num_rejected == 0
        result = _vector_twin(optimized).run(trace, **run_kwargs)
        assert expected.same_outcome(result)
        assert result.delegated == ""

    def test_merge_keeps_first_delegation_reason(self):
        from dataclasses import replace

        from repro.cluster_sim.sharding import merge_results

        optimized, _, trace, run_kwargs = build_des(_params())
        batched = _vector_twin(optimized).run(trace, **run_kwargs)
        assert batched.delegated == ""
        unbatched = optimized.run(trace, **run_kwargs)
        grid = replace(unbatched, delegated="grid")
        failures = replace(unbatched, delegated="failures")
        assert merge_results([batched, grid, failures]).delegated == "grid"
        assert merge_results([failures, batched, grid]).delegated == "failures"
        assert merge_results([batched, batched]).delegated == ""
