"""Tests for the within-server storage subsystem (S23)."""

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection
from repro.cluster_sim import VoDClusterSimulator
from repro.cluster_sim.server import StreamingServer
from repro.model.layout import ReplicaLayout
from repro.storage import (
    ArrayOrganization,
    DiskArray,
    DiskSpec,
    RoundScheduler,
    effective_stream_capacity,
)
from repro.workload import RequestTrace


class TestDiskSpec:
    def test_overhead(self):
        disk = DiskSpec(seek_ms=5.0, rotational_ms=3.0)
        assert disk.overhead_sec == pytest.approx(0.008)

    def test_service_time(self):
        disk = DiskSpec(seek_ms=5.0, rotational_ms=3.0, transfer_mbps=320.0)
        # 4 Mb block: 0.008 + 4/320 = 0.0205 s.
        assert disk.service_time_sec(4.0) == pytest.approx(0.0205)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskSpec(seek_ms=-1.0)
        with pytest.raises(ValueError):
            DiskSpec(transfer_mbps=0.0)


class TestRoundScheduler:
    def test_block_size(self):
        assert RoundScheduler(2.0).block_megabits(4.0) == pytest.approx(8.0)

    def test_streams_supported(self):
        disk = DiskSpec(seek_ms=5.0, rotational_ms=3.0, transfer_mbps=320.0)
        # per stream: 0.008 + 4/320 = 0.0205 -> floor(1/0.0205) = 48.
        assert RoundScheduler(1.0).streams_supported(disk, 4.0) == 48

    def test_longer_rounds_amortize_seeks(self):
        disk = DiskSpec()
        short = RoundScheduler(0.5).streams_supported(disk, 4.0)
        long = RoundScheduler(4.0).streams_supported(disk, 4.0)
        # Streams per *round* grow; also streams in absolute terms grow
        # because the seek share shrinks.
        assert long > short

    def test_utilization(self):
        disk = DiskSpec(seek_ms=5.0, rotational_ms=3.0, transfer_mbps=320.0)
        sched = RoundScheduler(1.0)
        assert sched.utilization(disk, 4.0, 48) <= 1.0
        assert sched.utilization(disk, 4.0, 49) > 1.0


class TestDiskArray:
    def test_independent_scales_linearly(self):
        one = DiskArray(1).stream_capacity(4.0)
        eight = DiskArray(8).stream_capacity(4.0)
        assert eight == 8 * one

    def test_striped_seek_bound(self):
        wide = DiskArray(64, organization=ArrayOrganization.STRIPED)
        asymptote = int(1.0 / DiskSpec().overhead_sec)
        assert wide.stream_capacity(4.0) <= asymptote
        # And far below the independent organization at the same width.
        independent = DiskArray(64).stream_capacity(4.0)
        assert wide.stream_capacity(4.0) < independent / 4

    def test_striped_better_than_single_disk(self):
        # Narrow stripes still beat one disk (transfer parallelism).
        striped = DiskArray(4, organization=ArrayOrganization.STRIPED)
        single = DiskArray(1)
        assert striped.stream_capacity(4.0) > single.stream_capacity(4.0)

    def test_mirrored_reads_match_independent(self):
        mirrored = DiskArray(8, organization=ArrayOrganization.MIRRORED)
        independent = DiskArray(8)
        assert mirrored.stream_capacity(4.0) == independent.stream_capacity(4.0)

    def test_mirrored_needs_even_disks(self):
        with pytest.raises(ValueError, match="even"):
            DiskArray(3, organization=ArrayOrganization.MIRRORED)

    def test_degraded_striped_is_zero(self):
        array = DiskArray(8, organization=ArrayOrganization.STRIPED)
        assert array.degraded_stream_capacity(4.0, 1) == 0

    def test_degraded_independent_loses_one_share(self):
        array = DiskArray(8)
        full = array.stream_capacity(4.0)
        assert array.degraded_stream_capacity(4.0, 1) == full * 7 // 8

    def test_degraded_mirrored_graceful(self):
        array = DiskArray(8, organization=ArrayOrganization.MIRRORED)
        per_disk = RoundScheduler().streams_supported(DiskSpec(), 4.0)
        assert array.degraded_stream_capacity(4.0, 1) == 7 * per_disk
        # Both copies of every pair failed: nothing left.
        assert array.degraded_stream_capacity(4.0, 8) == 0

    def test_zero_failures_identity(self):
        array = DiskArray(4)
        assert array.degraded_stream_capacity(4.0, 0) == array.stream_capacity(4.0)

    def test_seek_overhead_fraction(self):
        striped = DiskArray(32, organization=ArrayOrganization.STRIPED)
        independent = DiskArray(32)
        assert striped.seek_overhead_fraction(4.0) > independent.seek_overhead_fraction(4.0)
        assert 0.0 < striped.seek_overhead_fraction(4.0) <= 1.0


class TestEffectiveCapacity:
    def test_network_binds_with_many_disks(self):
        array = DiskArray(16)
        cap = effective_stream_capacity(1800.0, array, 4.0)
        assert cap == 450  # the NIC limit

    def test_disks_bind_when_few(self):
        array = DiskArray(2)
        cap = effective_stream_capacity(1800.0, array, 4.0)
        assert cap == array.stream_capacity(4.0) < 450


class TestSimulatorStreamLimits:
    def test_cap_enforced(self):
        cluster = ClusterSpec.homogeneous(1, storage_gb=100.0, bandwidth_mbps=100.0)
        videos = VideoCollection.homogeneous(1, bit_rate_mbps=4.0, duration_min=60.0)
        layout = ReplicaLayout.from_assignment([[0]], 1)
        sim = VoDClusterSimulator(cluster, videos, layout, stream_limits=[2])
        trace = RequestTrace(np.array([0.0, 1.0, 2.0]), np.zeros(3, dtype=int))
        result = sim.run(trace, horizon_min=30.0)
        # Bandwidth allows 25 streams but the disk cap allows 2.
        assert result.num_rejected == 1

    def test_limits_validated(self):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=100.0)
        videos = VideoCollection.homogeneous(1)
        layout = ReplicaLayout.from_assignment([[0]], 2)
        with pytest.raises(ValueError, match="one entry per server"):
            VoDClusterSimulator(cluster, videos, layout, stream_limits=[2])
        with pytest.raises(ValueError, match=r"stream_limits must be in \[0, inf\)"):
            VoDClusterSimulator(cluster, videos, layout, stream_limits=[-1, 2])

    @pytest.mark.parametrize(
        "bad",
        [2.7, True, "3", float("inf"), float("nan")],
        ids=["fractional", "bool", "str", "inf", "nan"],
    )
    def test_non_integer_limits_rejected(self, bad):
        cluster = ClusterSpec.homogeneous(2, storage_gb=100.0, bandwidth_mbps=100.0)
        videos = VideoCollection.homogeneous(1)
        layout = ReplicaLayout.from_assignment([[0]], 2)
        with pytest.raises(ValueError, match="stream_limits must be an integer"):
            VoDClusterSimulator(cluster, videos, layout, stream_limits=[bad, 1])

    def test_server_max_streams(self):
        server = StreamingServer(0, 100.0, max_streams=1)
        server.admit(0.0, 4.0)
        assert not server.can_admit(4.0)
        server.release(1.0, 4.0)
        assert server.can_admit(4.0)


class TestStorageExperiment:
    def test_capacity_table(self):
        from repro.experiments.storage_bottleneck import run_capacity_table

        rows = run_capacity_table(disk_counts=(2, 4))
        assert rows[0]["independent"] < rows[1]["independent"]
        assert all(r["striped_degraded"] == 0 for r in rows)

    def test_simulation_crossover(self):
        import dataclasses

        from repro.experiments import PaperSetup
        from repro.experiments.storage_bottleneck import run_disk_bound_simulation

        tiny = dataclasses.replace(
            PaperSetup().scaled_down(num_videos=40, num_servers=4, num_runs=2)
        )
        rows = run_disk_bound_simulation(tiny, disk_counts=(2, 16), num_runs=2)
        # Disk-bound at 2 disks rejects (far) more than network-bound at 16.
        assert rows[0]["rejection"] > rows[1]["rejection"]

    def test_format(self):
        from repro.experiments.storage_bottleneck import (
            format_storage,
            run_capacity_table,
        )

        text = format_storage(run_capacity_table(disk_counts=(2,)), [])
        assert "E14.1" in text
