"""Tests for the unified observability layer (repro.observe).

Covers the metric primitives (histogram bucketing math, bulk folds), the
tracer's JSONL round-trip, the ``timed()`` profiling hook, and the
observer's subsystem hooks — including the contract that matters most:
an observed simulation is bit-identical to an unobserved one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.annealing import GeometricCooling, SimulatedAnnealer
from repro.cluster_sim import VoDClusterSimulator
from repro.experiments import PaperSetup, build_layout, PAPER_COMBOS
from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observer,
    ObserverConfig,
    TimeSeries,
    Tracer,
    load_trace,
    read_jsonl,
    render_trace_report,
    timed,
)
from repro.runtime import RunReport
from repro.workload import WorkloadGenerator

from test_annealing_incremental import make_problem


@pytest.fixture(scope="module")
def small_setup() -> PaperSetup:
    return PaperSetup().scaled_down(num_videos=30, num_servers=4, num_runs=2)


# ----------------------------------------------------------------------
# Metric primitives
# ----------------------------------------------------------------------
class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", ())

    def test_bucketing_is_bisect_left(self):
        h = Histogram("h", (0.5, 1.0))
        for value in (0.2, 0.5, 0.7, 1.0, 1.5):
            h.observe(value)
        # bisect_left: an exact edge value lands in the bucket it bounds.
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.min == 0.2 and h.max == 1.5
        assert h.mean == pytest.approx((0.2 + 0.5 + 0.7 + 1.0 + 1.5) / 5)

    def test_quantile_returns_bucket_edge(self):
        h = Histogram("h", (1.0, 2.0, 3.0))
        for value in [0.5] * 50 + [1.5] * 40 + [2.5] * 10:
            h.observe(value)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(0.9) == 2.0
        assert h.quantile(1.0) == 3.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_empty_is_zero(self):
        assert Histogram("h", (1.0,)).quantile(0.5) == 0.0

    def test_observe_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-0.5, 2.5, size=500)
        a = Histogram("a", (0.0, 0.5, 1.0, 1.5, 2.0))
        b = Histogram("b", (0.0, 0.5, 1.0, 1.5, 2.0))
        for v in values:
            a.observe(v)
        b.observe_many(values.tolist())
        assert a.counts == b.counts and a.count == b.count
        assert a.sum == pytest.approx(b.sum)
        assert a.min == b.min and a.max == b.max

    def test_merge_bucket_counts_matches_scalar(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1.2, size=300)
        a = Histogram("a", (0.25, 0.5, 0.75, 1.0))
        b = Histogram("b", (0.25, 0.5, 0.75, 1.0))
        for v in values:
            a.observe(v)
        # The vectorized path the observer uses.
        bucket_counts = np.bincount(
            np.searchsorted(b.bounds, values, side="left"),
            minlength=len(b.counts),
        )
        b.merge_bucket_counts(
            bucket_counts.tolist(),
            values.size,
            float(values.sum()),
            float(values.min()),
            float(values.max()),
        )
        assert a.counts == b.counts and a.count == b.count
        assert a.sum == pytest.approx(b.sum)
        assert a.min == b.min and a.max == b.max

    def test_merge_bucket_counts_validates(self):
        h = Histogram("h", (1.0,))
        with pytest.raises(ValueError, match="bucket"):
            h.merge_bucket_counts([1, 2, 3], 6, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="negative"):
            h.merge_bucket_counts([0, 0], -1, 0.0, 0.0, 0.0)
        h.merge_bucket_counts([0, 0], 0, 0.0, 0.0, 0.0)  # no-op
        assert h.count == 0


class TestTimeSeries:
    def test_append_and_column(self):
        s = TimeSeries("s", ("t", "value"))
        s.append(0.0, 1.0)
        s.append(1.0, 2.0)
        assert len(s) == 2
        assert s.column("value") == [1.0, 2.0]

    def test_width_validation(self):
        s = TimeSeries("s", ("t", "value"))
        with pytest.raises(ValueError, match="expects 2 values"):
            s.append(1.0)
        with pytest.raises(ValueError, match="rows of 2 values"):
            s.extend([(1.0, 2.0), (3.0,)])

    def test_extend_bulk(self):
        s = TimeSeries("s", ("t", "a", "b"))
        s.extend(zip([0.0, 1.0], [1, 2], [3, 4]))
        assert s.rows == [(0.0, 1, 3), (1.0, 2, 4)]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        r = MetricsRegistry()
        assert r.counter("x") is r.counter("x")
        assert r.histogram("h", (1.0,)) is r.histogram("h", (1.0,))

    def test_kind_conflicts_raise(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="another kind"):
            r.gauge("x")
        r.histogram("h", (1.0,))
        with pytest.raises(ValueError, match="different bounds"):
            r.histogram("h", (2.0,))
        r.timeseries("s", ("t",))
        with pytest.raises(ValueError, match="different columns"):
            r.timeseries("s", ("t", "v"))

    def test_snapshot_is_json_ready(self):
        import json

        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.gauge("g").set(1.25)
        r.histogram("h", (1.0,)).observe(0.5)
        r.timeseries("s", ("t",)).append(0.0)
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["counters"] == {"c": 3}
        assert snap["histograms"]["h"]["count"] == 1


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_emit_and_by_kind(self):
        t = Tracer()
        t.emit("arrival", t=1.0, video=3)
        t.emit("sa.level", level=0)
        assert len(t) == 2
        assert t.by_kind("arrival") == [{"kind": "arrival", "t": 1.0, "video": 3}]

    def test_cap_counts_dropped(self):
        t = Tracer(max_events=2)
        for _ in range(5):
            t.emit("x")
        assert len(t.events) == 2 and t.num_dropped == 3

    def test_span_records_wall(self):
        t = Tracer()
        with t.span("phase", run=1):
            pass
        (event,) = t.events
        assert event["kind"] == "span" and event["name"] == "phase"
        assert event["run"] == 1 and event["wall_sec"] >= 0.0

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        t.emit("arrival", t=0.5, video=7, admitted=True)
        t.emit("migration", epoch=2, executed=False)
        path = tmp_path / "trace.jsonl"
        assert t.write_jsonl(path) == 2
        assert read_jsonl(path) == t.events


# ----------------------------------------------------------------------
# timed()
# ----------------------------------------------------------------------
class TestTimed:
    def test_dict_sink_accumulates(self):
        sink: dict = {}
        with timed(sink, "a"):
            pass
        with timed(sink, "a"):
            pass
        assert sink["a"] >= 0.0 and len(sink) == 1

    def test_none_sink_is_noop(self):
        with timed(None, "a"):
            pass  # must not raise

    def test_run_report_sink(self):
        report = RunReport()
        with timed(report, "replicate"):
            pass
        assert report.phase_seconds["replicate"] >= 0.0
        assert "phases" in report.format() and "replicate" in report.format()

    def test_observer_sink_folds_into_report(self):
        observer = Observer()
        with timed(observer, "place"):
            pass
        report = RunReport()
        observer.fold_into_report(report)
        assert report.phase_seconds["place"] >= 0.0


# ----------------------------------------------------------------------
# Observer + simulator
# ----------------------------------------------------------------------
def _run_pair(setup, *, config=None, rate=12.0):
    layout = build_layout(setup, PAPER_COMBOS[0], 0.75, 1.2)
    simulator = VoDClusterSimulator(setup.cluster(1.2), setup.videos(), layout)
    generator = WorkloadGenerator.poisson_zipf(setup.popularity(0.75), rate)
    trace = generator.generate(setup.peak_minutes, np.random.default_rng(11))
    observer = Observer(config)
    plain = simulator.run(trace, horizon_min=setup.peak_minutes)
    observed = simulator.run(
        trace, horizon_min=setup.peak_minutes, observer=observer
    )
    return plain, observed, observer


class TestObserverSimulation:
    def test_observed_run_is_bit_identical(self, small_setup):
        plain, observed, _ = _run_pair(
            small_setup,
            config=ObserverConfig(
                sample_interval_min=1.0, trace_events=True, trace_event_every=1
            ),
        )
        assert plain.same_outcome(observed)

    def test_fold_is_deferred_until_read(self, small_setup):
        _, _, observer = _run_pair(small_setup)
        assert len(observer._pending_sims) == 1
        assert observer.registry.counter("sim.runs").value == 1
        assert not observer._pending_sims

    def test_sample_timeline_shape(self, small_setup):
        setup = small_setup
        _, observed, observer = _run_pair(
            setup, config=ObserverConfig(sample_interval_min=5.0)
        )
        registry = observer.registry
        load = registry.series["sim.server_load_mbps"]
        expected = int(setup.peak_minutes // 5.0)
        assert len(load) == expected
        assert load.columns == ("run", "t") + tuple(
            f"s{k}" for k in range(setup.num_servers)
        )
        # Samples are per-server bandwidth snapshots: all non-negative and
        # within each server's capacity.
        bandwidth = setup.cluster(1.2).bandwidth_mbps
        for row in load.rows:
            for used, cap in zip(row[2:], bandwidth):
                assert 0.0 <= used <= cap + 1e-9
        hist = registry.histograms["sim.server_utilization"]
        assert hist.count == expected * setup.num_servers
        assert 0.0 <= hist.mean <= 1.0

    def test_counters_match_result(self, small_setup):
        _, observed, observer = _run_pair(small_setup)
        registry = observer.registry
        assert registry.counter("sim.requests").value == observed.num_requests
        assert registry.counter("sim.rejected").value == observed.num_rejected
        assert registry.counter("sim.events").value == observed.num_events

    def test_trace_events_sampled(self, small_setup):
        _, observed, observer = _run_pair(
            small_setup,
            config=ObserverConfig(
                sample_interval_min=0.0, trace_events=True, trace_event_every=1
            ),
        )
        tracer = observer.tracer
        arrivals = tracer.by_kind("arrival")
        assert len(arrivals) == observed.num_requests
        assert all(isinstance(e["admitted"], bool) for e in arrivals)
        assert len(tracer.by_kind("sim.run")) == 1

    def test_sampling_disabled_keeps_series_empty(self, small_setup):
        _, _, observer = _run_pair(
            small_setup, config=ObserverConfig(sample_interval_min=0.0)
        )
        assert all(len(s) == 0 for s in observer.registry.series.values())
        assert observer.registry.counter("sim.runs").value == 1


class TestSampleRule:
    """A hand-built run with known occupancy at every sample instant.

    A sample at ``s`` reflects every arrival before ``s`` plus every
    departure, crash and failover retry at or before ``s``.  Two servers
    of two 4 Mb/s streams each; video 0 lives on server 0, video 1 on
    server 1; every stream holds 5 minutes; samples every minute.
    """

    # (time, video, minutes watched): the arrivals at t=1.0, 2.0 and 7.0
    # land exactly on a sample instant; the t=1.0 stream departs exactly
    # on one (6.0), and the t=7.0 stream, watched far below one ulp of
    # its arrival time, departs at its own arrival instant, after it.
    TIMES = [0.5, 1.0, 1.5, 2.0, 2.8, 6.5, 7.0]
    VIDEOS = [0, 0, 1, 0, 1, 0, 0]
    WATCH = [5.0] * 6 + [1e-18]

    def _run(self, engine, **run_kwargs):
        from repro import ClusterSpec, VideoCollection
        from repro.cluster_sim import make_simulator
        from repro.model import ReplicaLayout
        from repro.workload import RequestTrace

        simulator = make_simulator(
            engine,
            ClusterSpec.homogeneous(2, storage_gb=1e6, bandwidth_mbps=8.0),
            VideoCollection.homogeneous(2, duration_min=5.0),
            ReplicaLayout.from_assignment([[0], [1]], 2),
        )
        observer = Observer(
            ObserverConfig(
                sample_interval_min=1.0, trace_events=True, trace_event_every=1
            )
        )
        result = simulator.run(
            RequestTrace(self.TIMES, self.VIDEOS, self.WATCH),
            horizon_min=10.0,
            observer=observer,
            **run_kwargs,
        )
        return result, observer

    # Arrivals before each instant t = 1..10.
    REQUESTS = [1, 3, 5, 5, 5, 5, 6, 7, 7, 7]

    @staticmethod
    def _events(observer):
        """Traced arrivals and departures, in recorded order."""
        return [
            (event["kind"], event["t"])
            for event in observer.tracer.events
            if event["kind"] in ("arrival", "departure")
        ]

    @staticmethod
    def _columns(observer):
        series = observer.registry.series
        load = [list(row[2:]) for row in series["sim.server_load_mbps"].rows]
        streams = [list(row[2:]) for row in series["sim.server_streams"].rows]
        rejection = [row[2] for row in series["sim.rates"].rows]
        return load, streams, rejection

    @pytest.mark.parametrize("engine", ["vector", "optimized", "audited"])
    def test_instant_ties(self, engine):
        result, observer = self._run(engine)
        assert result.delegated == ""
        load, streams, rejection = self._columns(observer)
        # t=1: the arrival at 1.0 is not in yet; t=2: neither is the
        # rejected one at 2.0; t=6: the departure at 6.0 is applied.
        s0 = [4, 8, 8, 8, 8, 0, 4, 4, 4, 4]
        s1 = [0, 4, 8, 8, 8, 8, 4, 0, 0, 0]
        assert load == [[float(a), float(b)] for a, b in zip(s0, s1)]
        assert streams == [[a // 4, b // 4] for a, b in zip(s0, s1)]
        rejected = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
        assert rejection == [r / q for r, q in zip(rejected, self.REQUESTS)]
        assert self._events(observer) == [
            ("arrival", 0.5), ("arrival", 1.0), ("arrival", 1.5),
            ("arrival", 2.0), ("arrival", 2.8), ("departure", 5.5),
            ("departure", 6.0), ("departure", 6.5), ("arrival", 6.5),
            ("arrival", 7.0), ("departure", 7.0), ("departure", 7.8),
        ]
        arrivals = observer.tracer.by_kind("arrival")
        assert [e["admitted"] for e in arrivals] == [
            True, True, True, False, True, True, True
        ]
        departures = observer.tracer.by_kind("departure")
        assert [e["server"] for e in departures] == [0, 0, 1, 0, 1]

    @pytest.mark.parametrize("engine", ["vector", "optimized", "audited"])
    @pytest.mark.parametrize(
        "retries, s1, rejected, tail",
        [
            # The retry at 4.3 starts the stream late.
            (3, [0, 4, 0, 0, 4, 4, 4, 4, 4, 0], [0, 0, 1, 1] + [1] * 6,
             [(9.3, 1)]),
            # A one-retry budget is exhausted at 3.3: rejected from then.
            (1, [0, 4] + [0] * 8, [0, 0, 1, 2] + [2] * 6, []),
        ],
    )
    def test_crash_and_failover_retry(self, engine, retries, s1, rejected, tail):
        from repro.cluster_sim import (
            FailoverPolicy,
            FailureEvent,
            FailureSchedule,
        )

        # Server 1 crashes at 2.5 (dropping the t=1.5 stream) and is back
        # at 3.5.  The t=2.8 request retries at 3.3 (still down) and, with
        # budget left, at 4.3: pending at the 3.0 sample, neither served
        # nor rejected.
        result, observer = self._run(
            engine,
            failures=FailureSchedule([FailureEvent(2.5, 1, 1.0)]),
            failover=FailoverPolicy(
                max_retries=retries, backoff_base_min=0.5, backoff_factor=2.0
            ),
        )
        assert result.delegated == ("failures" if engine == "vector" else "")
        assert result.num_rejected == rejected[-1]
        assert result.streams_dropped == 1
        load, streams, rejection = self._columns(observer)
        s0 = [4, 8, 8, 8, 8, 0, 4, 4, 4, 4]
        assert load == [[float(a), float(b)] for a, b in zip(s0, s1)]
        assert streams == [[a // 4, b // 4] for a, b in zip(s0, s1)]
        assert rejection == [r / q for r, q in zip(rejected, self.REQUESTS)]
        arrivals = observer.tracer.by_kind("arrival")
        # Admitted *on arrival*: the retried request was not.
        assert [e["admitted"] for e in arrivals] == [
            True, True, True, False, False, True, True
        ]
        departures = observer.tracer.by_kind("departure")
        assert [(e["t"], e["server"]) for e in departures] == [
            (5.5, 0), (6.0, 0), (7.0, 0)
        ] + tail


class TestSampleBounds:
    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -1.0])
    def test_non_finite_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="sample_interval_min"):
            ObserverConfig(sample_interval_min=interval)

    def test_sample_count_bounded_by_trace_cap(self, small_setup):
        # 90 one-minute samples fit a cap of 90, not one of 89.
        _, _, observer = _run_pair(
            small_setup,
            config=ObserverConfig(sample_interval_min=1.0, max_trace_events=90),
        )
        assert len(observer.registry.series["sim.server_load_mbps"]) == 90
        with pytest.raises(ValueError, match=r"1\.0.*90\.0.*89"):
            _run_pair(
                small_setup,
                config=ObserverConfig(
                    sample_interval_min=1.0, max_trace_events=89
                ),
            )

    def test_tiny_interval_fails_fast(self, small_setup):
        with pytest.raises(ValueError, match=r"1e-09.*90\.0"):
            _run_pair(
                small_setup, config=ObserverConfig(sample_interval_min=1e-9)
            )


# ----------------------------------------------------------------------
# Observer + annealing / dynamic hooks
# ----------------------------------------------------------------------
class TestObserverAnnealing:
    def test_sa_levels_recorded_and_identical(self):
        problem = make_problem()
        annealer = SimulatedAnnealer(
            GeometricCooling(1.0), steps_per_level=50, max_levels=8
        )
        plain = annealer.run(problem, np.random.default_rng(3))
        observer = Observer()
        observed = annealer.run(
            problem, np.random.default_rng(3), observer=observer
        )
        # Observation consumes no randomness: identical trajectory.
        assert observed.best_cost == plain.best_cost
        assert observed.steps == plain.steps
        registry = observer.registry
        levels = registry.series["sa.levels"]
        assert len(levels) == observed.levels
        assert registry.counter("sa.steps").value == observed.steps
        assert registry.counter("sa.accepted").value == observed.accepted
        assert registry.counter("sa.runs").value == 1
        assert len(observer.tracer.by_kind("sa.level")) == observed.levels


class TestObserverDynamic:
    def test_migration_events_recorded(self):
        from repro.serving import ServingConfig, ServingControlPlane

        setup = PaperSetup(
            num_servers=3, server_bandwidth_mbps=120.0, num_videos=12,
            duration_min=12.0, peak_minutes=15.0, num_runs=1, seed=5,
        )
        config = ServingConfig(
            setup=setup, epochs=3, epoch_minutes=15.0, base_rate_per_min=2.0,
            peak_rate_per_min=5.0, drift="release:3", replan="always",
        )
        observer = Observer()
        result = ServingControlPlane(config, observer=observer).run()
        registry = observer.registry
        assert registry.counter("serving.epochs").value == 3
        assert len(observer.tracer.by_kind("serving.epoch")) == 3
        executed = [s for s in result.snapshots if s.migration_executed]
        assert executed
        assert registry.counter("serving.replans").value == len(executed)
        assert (
            registry.counter("serving.replicas_copied").value
            == result.total_replicas_copied
        )


# ----------------------------------------------------------------------
# Export + report rendering
# ----------------------------------------------------------------------
class TestExport:
    def test_export_jsonl_and_render(self, small_setup, tmp_path):
        _, _, observer = _run_pair(
            small_setup,
            config=ObserverConfig(
                sample_interval_min=5.0, trace_events=True, trace_event_every=10
            ),
        )
        path = tmp_path / "obs.jsonl"
        lines = observer.export_jsonl(path)
        events = load_trace(path)
        assert len(events) == lines
        kinds = {e["kind"] for e in events}
        assert {"meta", "metrics", "series", "sim.run"} <= kinds
        text = render_trace_report(events, charts=True)
        assert "observation report" in text
        assert "sim.server_utilization" in text
        assert "sim.server_load_mbps" in text

    def test_render_engine_path(self, small_setup, tmp_path):
        from repro import PipelineConfig, solve

        observer = Observer(ObserverConfig())
        solve(
            PipelineConfig(setup=small_setup, engine="vector"),
            observer=observer,
        )
        path = tmp_path / "obs.jsonl"
        observer.export_jsonl(path)
        runs = [e for e in load_trace(path) if e["kind"] == "sim.run"]
        # Observation is folded after the run: it never delegates.
        assert runs and all(e["delegated"] == "" for e in runs)
        text = render_trace_report(load_trace(path))
        assert f"engine path ({len(runs)} simulated runs)" in text
        assert "delegated runs    none" in text

    def test_render_empty(self):
        assert "empty trace" in render_trace_report([])

    def test_snapshot_shape(self, small_setup):
        _, _, observer = _run_pair(small_setup)
        snap = observer.snapshot()
        assert set(snap) == {"metrics", "phase_seconds", "trace"}
        assert snap["metrics"]["counters"]["sim.runs"] == 1
