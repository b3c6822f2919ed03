"""Tests for the Erlang loss models and their simulator agreement."""

import numpy as np
import pytest

from repro import ClusterSpec, UniformPopularity, VideoCollection
from repro.analysis.erlang import (
    _fixed_slots_erlang_b,
    cluster_blocking_bound,
    erlang_b,
    offered_load_erlangs,
    partitioned_blocking,
)
from repro.analysis.stats import summarize
from repro.analysis.surrogate import SurrogateWorkload, evaluate_layout
from repro.cluster_sim import LeastLoadedDispatcher, VoDClusterSimulator
from repro.model.layout import ReplicaLayout
from repro.workload import WorkloadGenerator


class TestErlangB:
    @pytest.mark.parametrize(
        "load,servers,expected",
        [
            # Textbook reference values.
            (5.0, 5, 0.2849),
            (10.0, 10, 0.2146),
            (2.0, 4, 0.0952),
            (1.0, 1, 0.5),
            (20.0, 30, 0.0085),
        ],
    )
    def test_reference_values(self, load, servers, expected):
        assert erlang_b(load, servers) == pytest.approx(expected, abs=2e-4)

    def test_zero_load(self):
        assert erlang_b(0.0, 10) == 0.0

    def test_zero_servers_blocks_everything(self):
        assert erlang_b(3.0, 0) == 1.0

    def test_monotone_in_load(self):
        values = [erlang_b(a, 20) for a in np.linspace(1, 40, 15)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))

    def test_monotone_decreasing_in_servers(self):
        values = [erlang_b(10.0, c) for c in range(1, 30)]
        assert all(x >= y - 1e-15 for x, y in zip(values, values[1:]))

    def test_large_system_stable(self):
        # The recurrence must not overflow at paper scale (3600 slots).
        value = erlang_b(3600.0, 3600)
        assert 0.0 < value < 0.05

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            erlang_b(-1.0, 5)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_rejects_negative_or_nan_load(self, bad):
        # The fixed point's closure skips these checks; the public
        # function keeps them on both paths.
        with pytest.raises(ValueError):
            erlang_b(bad, 5)
        loads = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="finite and >= 0"):
            erlang_b(loads, np.array([4, 4]))

    def test_fixed_slots_closure_matches_erlang_b(self):
        # Light, heavy (the overflow series) and zero loads, zero slots.
        slots = np.array([0, 1, 5, 40])
        loads = np.array(
            [[0.0, 0.5, 3.0, 30.0], [2.0, 0.0, 400.0, 0.0], [1.0, 9.0, 0.0, 900.0]]
        )
        blocking = _fixed_slots_erlang_b(slots)(loads)
        assert blocking.tobytes() == erlang_b(loads, slots).tobytes()

    def test_surrogate_rejects_non_finite_offered_load(self):
        workload = SurrogateWorkload(
            popularity=np.full(4, 0.25), arrival_rate_per_min=np.inf
        )
        layout = ReplicaLayout(rate_matrix=np.eye(4, 2) + np.eye(4, 2, -2))
        cluster = ClusterSpec.homogeneous(
            2, storage_gb=100.0, bandwidth_mbps=30.0
        )
        for dispatcher in ("static_rr", "least_loaded", "first_fit"):
            with pytest.raises(ValueError, match="finite and >= 0"):
                evaluate_layout(layout, workload, cluster, dispatcher=dispatcher)


class TestBounds:
    def test_offered_load(self):
        assert offered_load_erlangs(40.0, 90.0) == pytest.approx(3600.0)

    def test_cluster_bound(self):
        bound = cluster_blocking_bound(40.0, 90.0, 3600)
        assert bound == pytest.approx(erlang_b(3600.0, 3600))

    def test_partitioned_worse_than_pooled(self):
        shares = np.full(8, 0.125)
        pooled = cluster_blocking_bound(40.0, 90.0, 3600)
        split = partitioned_blocking(40.0, 90.0, 450, shares)
        assert split >= pooled - 1e-12

    def test_partitioned_skewed_worse_than_uniform(self):
        uniform = partitioned_blocking(40.0, 90.0, 450, np.full(8, 0.125))
        skewed_shares = np.array([0.4, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
        skewed = partitioned_blocking(40.0, 90.0, 450, skewed_shares)
        assert skewed > uniform


class TestSimulatorAgreement:
    """The discrete-event simulator must agree with Erlang-B where the
    model applies: full replication + dynamic dispatch = pooled system."""

    @staticmethod
    def _pooled_setup():
        # 2 servers x 10 slots, exponential-ish: use many short videos so
        # the 10x-duration horizon reaches steady state.
        servers, slots = 2, 10
        cluster = ClusterSpec.homogeneous(
            servers, storage_gb=100.0, bandwidth_mbps=slots * 4.0
        )
        videos = VideoCollection.homogeneous(5, duration_min=10.0)
        layout = ReplicaLayout.from_assignment(
            [[0, 1]] * 5, servers
        )  # full replication
        simulator = VoDClusterSimulator(
            cluster, videos, layout, dispatcher_factory=LeastLoadedDispatcher
        )
        rate = 2.2  # offered load = 22 Erlangs on 20 slots
        generator = WorkloadGenerator.poisson_zipf(UniformPopularity(5), rate)
        return simulator, generator, rate, servers * slots

    def test_steady_state_blocking_matches(self):
        simulator, generator, rate, slots = self._pooled_setup()
        horizon = 600.0
        rejections = [
            simulator.run(trace, horizon_min=horizon).rejection_rate
            for trace in generator.generate_runs(horizon, 12, 77)
        ]
        summary = summarize(rejections)
        expected = erlang_b(rate * 10.0, slots)
        # Tolerance scaled to the sample's own 95% CI half-width rather
        # than a hard-coded band: 3 half-widths of sampling noise plus a
        # small allowance for the fill-up transient, which biases the
        # measured rate slightly low.
        tolerance = 3.0 * summary.ci95 + 0.015
        assert abs(summary.mean - expected) <= tolerance, (
            f"mean {summary.mean:.4f} vs Erlang-B {expected:.4f} "
            f"(ci95 {summary.ci95:.4f}, tolerance {tolerance:.4f})"
        )

    def test_fixed_seed_blocking_exact(self):
        # Determinism pin: one fixed-seed run must reproduce bit-identical
        # counts forever.  Catches accidental RNG-stream or event-order
        # changes that the statistical test above would absorb.
        simulator, generator, _, _ = self._pooled_setup()
        horizon = 600.0
        [trace] = generator.generate_runs(horizon, 1, 1234)
        result = simulator.run(trace, horizon_min=horizon)
        assert result.num_requests == trace.num_requests == 1323
        assert result.num_rejected == 285
        assert result.rejection_rate == pytest.approx(
            285 / 1323, rel=1e-12
        )
