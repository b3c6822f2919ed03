"""Tests for the in-situ invariant audit subsystem (``repro.verify``).

Three layers:

* **equivalence** — the audited loop returns results bit-identical to the
  plain optimized loop across feature combinations, with a clean report;
* **mutation detection** — deliberately injected accounting bugs (broken
  ``release``, lying/leaky ``fail``) are caught by at least one auditor,
  which is the evidence the audit is actually load-bearing;
* **unit checks** — each auditor's ``finish`` hook flags hand-built
  inconsistent trajectories and passes consistent ones.
"""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection
from repro.cluster_sim import (
    FailureEvent,
    FailureSchedule,
    VoDClusterSimulator,
)
from repro.cluster_sim.metrics import SimulationResult
from repro.cluster_sim.server import StreamingServer
from repro.model.layout import ReplicaLayout
from repro.observe import Observer, ObserverConfig
from repro.verify import (
    BandwidthCapAuditor,
    EventMonotonicityAuditor,
    InvariantViolation,
    ObjectiveAccountingAuditor,
    ReplicaDistinctnessAuditor,
    StreamConservationAuditor,
    failure_auditors,
    run_audited,
    standard_auditors,
)
from repro.verify.audit import Trajectory, audit_record
from repro.verify.scenarios import build_des
from repro.workload import RequestTrace


def des_params(**overrides):
    """A complete, deterministic parameter dict for ``build_des``."""
    params = dict(
        num_videos=20,
        num_servers=4,
        theta=0.8,
        bandwidth_mbps=300.0,
        rate_per_min=12.0,
        duration_min=40.0,
        video_duration_min=15.0,
        capacity=12,
        dispatcher="least_loaded",
        failures=False,
        failure_at_t0=False,
        mtbf_frac=0.5,
        mttr_frac=0.2,
        redirection=False,
        backbone_frac=0.4,
        stream_limits=False,
        watch_time=False,
        watch_mean=0.5,
        failover_on_down=False,
        horizon_frac=1.0,
        trace_seed=11,
        build_seed=12,
        failure_seed=13,
        limits_seed=14,
    )
    params.update(overrides)
    return params


def audited_matches_plain(params):
    optimized, _, trace, run_kwargs = build_des(params)
    result = optimized.run(trace, **run_kwargs)
    audited, report = run_audited(optimized, trace, **run_kwargs)
    assert result.same_outcome(audited)
    assert report.ok, [str(v) for v in report.violations]
    return result, report


class TestAuditedRunEquivalence:
    def test_basic(self):
        result, report = audited_matches_plain(des_params())
        assert report.admitted + report.rejected == result.num_requests
        assert report.events_audited == result.num_events

    def test_failures_and_failover(self):
        result, report = audited_matches_plain(
            des_params(
                failures=True,
                failover_on_down=True,
                bandwidth_mbps=200.0,
                mtbf_frac=0.3,
            )
        )
        assert report.dropped == result.streams_dropped

    def test_failure_at_t0(self):
        audited_matches_plain(des_params(failures=True, failure_at_t0=True))

    def test_redirection_limits_and_watch_times(self):
        result, report = audited_matches_plain(
            des_params(
                redirection=True,
                stream_limits=True,
                watch_time=True,
                bandwidth_mbps=160.0,
                rate_per_min=25.0,
            )
        )
        # The scenario must actually exercise the redirection path.
        assert result.num_redirected > 0

    def test_truncated_horizon(self):
        result, report = audited_matches_plain(des_params(horizon_frac=0.6))
        assert result.num_truncated > 0

    # horizon_frac 1.0 ends at the trace length (the all-arrivals peak
    # slice); 5.75 runs 20 + 90 + 5 minutes, past the last departure.
    @pytest.mark.parametrize(
        ("horizon_frac", "events_per_request"),
        [(1.0, 1), (5.75, 2)],
        ids=["peak-slice", "full-lifecycle"],
    )
    def test_fig5_scale(self, fig5_des, horizon_frac, events_per_request):
        result, report = audited_matches_plain(
            des_params(**fig5_des, horizon_frac=horizon_frac)
        )
        assert report.events_audited == result.num_events
        assert result.num_events == events_per_request * result.num_requests

    def test_repeat_runs_identical(self):
        params = des_params(failures=True, redirection=True)
        optimized, _, trace, run_kwargs = build_des(params)
        first, report_a = run_audited(optimized, trace, **run_kwargs)
        second, report_b = run_audited(optimized, trace, **run_kwargs)
        assert first.same_outcome(second)
        assert report_a.ok and report_b.ok
        assert report_a.events_audited == report_b.events_audited

    def test_empty_trace(self):
        optimized, _, _, _ = build_des(des_params())
        trace = RequestTrace(np.array([]), np.array([], dtype=int))
        result, report = run_audited(optimized, trace, horizon_min=10.0)
        assert result.num_requests == 0
        assert report.ok
        assert report.admitted == 0

    def test_run_auditors_kwarg(self):
        optimized, _, trace, run_kwargs = build_des(des_params())
        plain = optimized.run(trace, **run_kwargs)
        audited = optimized.run(
            trace, auditors=standard_auditors(), **run_kwargs
        )
        assert plain.same_outcome(audited)

    def test_report_metadata(self):
        _, report = audited_matches_plain(des_params())
        assert set(report.checks) == {
            "bandwidth",
            "stream_cap",
            "conservation",
            "placement",
            "monotonic",
            "accounting",
        }
        assert len(report.auditor_names) == 5
        assert report.num_violations == 0
        report.raise_if_failed()  # a clean report must not raise


def one_video_sim(replicas, num_servers=2):
    cluster = ClusterSpec.homogeneous(
        num_servers, storage_gb=100.0, bandwidth_mbps=40.0
    )
    videos = VideoCollection.homogeneous(
        1, bit_rate_mbps=4.0, duration_min=20.0
    )
    layout = ReplicaLayout.from_assignment([replicas], num_servers)
    return VoDClusterSimulator(cluster, videos, layout)


class TestMutationDetection:
    """Injected accounting bugs must be caught by at least one auditor."""

    def test_broken_release_caught(self, monkeypatch):
        # The drain-phase departure path forgets to give bandwidth back.
        def broken_release(self, time_min, rate_mbps):
            self.advance(time_min)
            self.active_streams -= 1

        monkeypatch.setattr(StreamingServer, "release", broken_release)
        sim = one_video_sim([0])
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3, dtype=int))
        _, report = run_audited(sim, trace, horizon_min=60.0)
        assert not report.ok
        assert any("accounting" in v.check for v in report.violations)

    def test_broken_release_raises_via_run(self, monkeypatch):
        def broken_release(self, time_min, rate_mbps):
            self.advance(time_min)
            self.active_streams -= 1

        monkeypatch.setattr(StreamingServer, "release", broken_release)
        sim = one_video_sim([0])
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        with pytest.raises(InvariantViolation):
            sim.run(trace, horizon_min=60.0, auditors=standard_auditors())

    def test_lying_drop_count_caught(self, monkeypatch):
        original_fail = StreamingServer.fail

        def lying_fail(self, time_min):
            return original_fail(self, time_min) + 1

        monkeypatch.setattr(StreamingServer, "fail", lying_fail)
        sim = one_video_sim([0])
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        _, report = run_audited(
            sim,
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(5.0, 0),
        )
        assert not report.ok
        assert any(
            v.check == "stream_conservation" for v in report.violations
        )

    def test_leaky_crash_bandwidth_caught(self, monkeypatch):
        original_fail = StreamingServer.fail

        def leaky_fail(self, time_min):
            dropped = original_fail(self, time_min)
            self.used_mbps = 3.0  # phantom occupancy survives the crash
            return dropped

        monkeypatch.setattr(StreamingServer, "fail", leaky_fail)
        sim = one_video_sim([0])
        trace = RequestTrace(np.array([0.0, 1.0]), np.zeros(2, dtype=int))
        _, report = run_audited(
            sim,
            trace,
            horizon_min=30.0,
            failures=FailureSchedule.single(5.0, 0),
        )
        assert not report.ok
        assert any("accounting" in v.check for v in report.violations)


def make_result(num_servers=1, **overrides):
    base = dict(
        num_requests=5,
        num_rejected=1,
        per_video_requests=np.array([5]),
        per_video_rejected=np.array([1]),
        server_time_avg_load_mbps=np.zeros(num_servers),
        server_peak_load_mbps=np.zeros(num_servers),
        server_served=np.array([4] + [0] * (num_servers - 1)),
        server_bandwidth_mbps=np.full(num_servers, 100.0),
        horizon_min=10.0,
        num_redirected=0,
        streams_dropped=0,
        num_truncated=0,
        num_events=9,
        wall_time_sec=0.0,
    )
    base.update(overrides)
    return SimulationResult(**base)


def make_trajectory(num_servers=1, **attrs):
    trajectory = Trajectory(num_servers, 10.0)
    trajectory.arrivals_total = 5
    trajectory.admitted = 4
    trajectory.rejected = 1
    trajectory.departed = 3
    trajectory.active_end = 1
    for name, value in attrs.items():
        setattr(trajectory, name, value)
    return trajectory


class TestAuditorFinishUnits:
    def test_conservation_clean(self):
        auditor = StreamConservationAuditor()
        assert auditor.finish(make_trajectory(), [], make_result()) == []

    def test_conservation_flags_leak(self):
        auditor = StreamConservationAuditor()
        violations = auditor.finish(
            make_trajectory(departed=2), [], make_result()
        )
        assert any("admissions" in v.message for v in violations)

    def test_conservation_flags_served_mismatch(self):
        auditor = StreamConservationAuditor()
        violations = auditor.finish(
            make_trajectory(), [], make_result(server_served=np.array([7]))
        )
        assert any("served" in v.message for v in violations)

    def test_monotonicity_flags_overshoot(self):
        auditor = EventMonotonicityAuditor()
        assert (
            auditor.finish(make_trajectory(), [], make_result()) == []
        )
        violations = auditor.finish(
            make_trajectory(last_event_time=11.0), [], make_result()
        )
        assert violations and violations[0].check == "event_monotonicity"

    def test_distinctness_flags_negative_rate(self):
        auditor = ReplicaDistinctnessAuditor()
        clean = make_trajectory(rate_matrix=np.array([[4.0]]))
        assert auditor.finish(clean, [], make_result()) == []
        bad = make_trajectory(rate_matrix=np.array([[-1.0]]))
        assert auditor.finish(bad, [], make_result())

    def test_accounting_flags_shadow_mismatch(self):
        auditor = ObjectiveAccountingAuditor()
        server = StreamingServer(0, 100.0)
        server.used_mbps = 5.0
        violations = auditor.finish(
            make_trajectory(), [server], make_result()
        )
        assert any("occupancy" in v.message for v in violations)

    def test_accounting_flags_stream_count(self):
        auditor = ObjectiveAccountingAuditor()
        server = StreamingServer(0, 100.0)
        violations = auditor.finish(
            make_trajectory(shadow_streams=[2]), [server], make_result()
        )
        assert any("active" in v.message for v in violations)

    def test_bandwidth_cap_flags_peak(self):
        auditor = BandwidthCapAuditor()
        server = StreamingServer(0, 100.0)
        server.peak_load_mbps = 150.0
        violations = auditor.finish(make_trajectory(), [server], None)
        assert violations and violations[0].check == "bandwidth_cap"

    def test_stream_cap_flags_overrun(self):
        auditor = BandwidthCapAuditor()
        server = StreamingServer(0, 100.0, max_streams=2)
        server.active_streams = 3
        violations = auditor.finish(make_trajectory(), [server], None)
        assert any("cap" in v.message for v in violations)


class TestStandardAuditors:
    def test_catalogue(self):
        auditors = standard_auditors()
        names = {a.name for a in auditors}
        assert len(auditors) == len(names) == 5
        checks = frozenset().union(*(a.checks for a in auditors))
        assert checks == {
            "bandwidth",
            "stream_cap",
            "conservation",
            "placement",
            "monotonic",
            "accounting",
        }

    def test_violation_str_and_raise(self):
        from repro.verify import Violation

        violation = Violation("bandwidth", 3.5, "over the link")
        assert "bandwidth" in str(violation) and "3.5" in str(violation)
        with pytest.raises(InvariantViolation, match="over the link"):
            raise InvariantViolation([violation])


class TestOneKernel:
    """The audit consumes the plain kernel's record; no path drops a feature."""

    def test_audited_run_keeps_observation(self):
        optimized, _, trace, run_kwargs = build_des(
            des_params(failures=True, redirection=True, failover_on_down=True)
        )
        config = ObserverConfig(
            sample_interval_min=1.0, trace_events=True, trace_event_every=1
        )
        plain_obs, audited_obs = Observer(config), Observer(config)
        plain = optimized.run(trace, observer=plain_obs, **run_kwargs)
        audited = optimized.run(
            trace,
            observer=audited_obs,
            auditors=failure_auditors(),
            **run_kwargs,
        )
        assert plain.same_outcome(audited)
        for name, series in plain_obs.registry.series.items():
            assert audited_obs.registry.series[name].rows == series.rows
        for kind in ("arrival", "departure"):
            events = plain_obs.tracer.by_kind(kind)
            assert events
            assert audited_obs.tracer.by_kind(kind) == events
        assert len(plain_obs.registry.series["sim.server_load_mbps"]) == 40

    def test_decision_codes_past_one_byte(self):
        # N = 130: redirect codes 1 + N + k pass 255, and failover retries
        # add delayed-admission records on top.
        optimized, reference, trace, run_kwargs = build_des(
            des_params(
                num_servers=130,
                num_videos=260,
                capacity=4,
                bandwidth_mbps=120.0,
                rate_per_min=200.0,
                redirection=True,
                backbone_frac=2.0,
                failures=True,
                failover_retry=True,
            )
        )
        _, record = optimized._run(trace, **run_kwargs)
        assert max(record.decisions) > 255
        assert record.delayed_admissions
        audited, report = run_audited(
            optimized, trace, auditors=failure_auditors(), **run_kwargs
        )
        assert report.ok, [str(v) for v in report.violations]
        assert audited.same_outcome(reference.run(trace, **run_kwargs))
        assert report.admitted + report.rejected == audited.num_requests

    def test_saturated_queueing_run_audits_clean(self):
        # The wait queue is a kernel hook: its starts are delayed
        # admissions, so the audit rebuilds a queueing run unchanged.
        from repro import ZipfPopularity
        from repro.cluster_sim import QueueingClusterSimulator
        from repro.placement import smallest_load_first_placement
        from repro.replication import zipf_interval_replication
        from repro.workload import WorkloadGenerator

        pop = ZipfPopularity(40, 0.75)
        cluster = ClusterSpec.homogeneous(
            4, storage_gb=100.0, bandwidth_mbps=120.0
        )
        videos = VideoCollection.homogeneous(40, duration_min=20.0)
        layout = smallest_load_first_placement(
            zipf_interval_replication(pop.probabilities, 4, 60), 15
        )
        trace = WorkloadGenerator.poisson_zipf(pop, 6.0).generate(
            60.0, np.random.default_rng(7)
        )
        kernel = VoDClusterSimulator(cluster, videos, layout)
        result, record = kernel._run(
            trace, horizon_min=60.0, patience_min=2.0
        )
        queued = QueueingClusterSimulator(
            cluster, videos, layout, patience_min=2.0
        ).run(trace, horizon_min=60.0)
        assert result.same_outcome(queued.base)
        assert queued.num_queued_served > 0
        assert queued.num_defected > 0
        assert len(record.delayed_admissions) == queued.num_queued_served
        report = audit_record(kernel, result, record, standard_auditors())
        assert report.ok, [str(v) for v in report.violations]
        assert report.admitted == result.num_served

    def test_repair_before_crash_flagged(self):
        optimized, _, trace, run_kwargs = build_des(des_params(failures=True))
        result, record = optimized._run(trace, **run_kwargs)
        assert record.repair_records
        _, server = record.repair_records[0]
        crash_t = next(c[0] for c in record.crash_records if c[1] == server)
        record.repair_records[0] = (crash_t - 1.0, server)
        report = audit_record(optimized, result, record, standard_auditors())
        assert any(
            v.check == "monotonic" and "precedes its failure" in v.message
            for v in report.violations
        )
