"""Wide-striping (shared-storage) cluster model — the paper's contrast.

The paper's introduction contrasts two VoD cluster architectures: shared
storage with *wide data striping* (every video striped over all disks:
perfect load balance, but "high scheduling and extension overhead" and a
failure affects everything) versus the distributed-storage *replication*
design the paper optimizes.  This module provides the striping side of that
comparison so the argument can be measured rather than asserted.

Model (documented synthetic stand-in for a RAID/Tiger-style striped
server, per DESIGN.md's substitution rules):

* Every video is striped across all ``N`` servers, so a stream at rate
  ``b`` draws ``b / N`` from every server simultaneously — the cluster
  behaves as a single pooled link of ``N * B``.
* Striping coordination costs bandwidth: each stream's effective drain is
  inflated by ``1 + overhead_per_server * (N - 1)`` (per-block scheduling,
  synchronization and buffer coupling grow with the stripe width).  With
  ``overhead_per_server = 0`` striping is a perfect pooled link — the
  upper bound replication can only approach.
* Storage is a single shared pool holding exactly one copy of each video.
* A *single* server/disk failure interrupts every stream (all content is
  striped over the failed member) until recovery; replication clusters
  degrade only by one server's worth.

Kernel configuration: the striped cluster *is* a pooled one-server
cluster of ``N * B`` holding every video at its inflated drain rate, so
:class:`VoDClusterSimulator` runs it directly (same interface: trace in,
:class:`SimulationResult` out).  Member outages merge into the pool's
union outages; its served streams, loads and peaks are spread evenly over
the ``N`` members.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .._validation import check_non_negative, check_positive
from ..model.cluster import ClusterSpec, ServerSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .failures import FailureSchedule
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator

__all__ = ["StripedClusterSimulator"]


class _PoolOutage(NamedTuple):
    """A union outage of the pool (server 0).

    Not a :class:`FailureEvent`: that stores a duration, and ``start +
    (end - start)`` need not round back to the member's exact recovery.
    """

    time_min: float
    server: int
    recovery_min: float


def _pool_outages(members: FailureSchedule) -> FailureSchedule:
    """Merge member outages into the pool's: any member down stops it.

    Outages that merely touch stay apart, as in the loop: the recovery is
    applied before a failure at the same instant.
    """
    merged: list[list] = []
    for f in members:  # in time order
        if merged and f.time_min < merged[-1][2]:
            merged[-1][2] = max(merged[-1][2], f.recovery_min)
        else:
            merged.append([f.time_min, 0, f.recovery_min])
    return FailureSchedule(_PoolOutage(*m) for m in merged)


class StripedClusterSimulator:
    """Simulates a wide-striping shared-storage VoD cluster.

    Parameters
    ----------
    cluster:
        Server capacities; striping requires a homogeneous cluster.
    videos:
        The video set (durations and bit rates; one striped copy of each).
    overhead_per_server:
        Fractional per-stream bandwidth inflation per additional stripe
        member (e.g. ``0.01`` = 1% coordination cost per extra server).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        *,
        overhead_per_server: float = 0.01,
    ) -> None:
        check_non_negative("overhead_per_server", overhead_per_server)
        spec = cluster.require_homogeneous()
        total_storage = cluster.total_storage_gb
        needed = float(videos.storage_gb.sum())
        if needed > total_storage + 1e-9:
            raise ValueError(
                f"videos need {needed:.1f} GB but the shared pool has "
                f"{total_storage:.1f} GB"
            )
        self._cluster = cluster
        self._num_servers = cluster.num_servers
        self._overhead = float(overhead_per_server)
        self._inflation = 1.0 + self._overhead * (self._num_servers - 1)
        self._pool_mbps = spec.bandwidth_mbps * self._num_servers
        self._pool = VoDClusterSimulator(
            ClusterSpec([ServerSpec(total_storage, self._pool_mbps)]),
            videos,
            ReplicaLayout(
                rate_matrix=(videos.bit_rates_mbps * self._inflation)[:, None]
            ),
            validate_layout=False,
        )

    # ------------------------------------------------------------------
    @property
    def effective_capacity_mbps(self) -> float:
        """Pooled bandwidth divided by the striping inflation factor."""
        return self._pool_mbps / self._inflation

    def effective_stream_capacity(self, bit_rate_mbps: float) -> int:
        """Concurrent streams the striped cluster sustains at one rate."""
        check_positive("bit_rate_mbps", bit_rate_mbps)
        return int(self.effective_capacity_mbps / bit_rate_mbps + 1e-9)

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
        failures: FailureSchedule | None = None,
    ) -> SimulationResult:
        """Simulate one trace on the striped cluster.

        Any failure event interrupts *all* active streams (every video is
        striped over the failed member) and blocks admissions until the
        member recovers.
        """
        pool_failures = None
        if failures is not None:
            failures.validate_servers(self._num_servers)
            pool_failures = _pool_outages(failures)
        pooled = self._pool.run(
            trace, horizon_min=horizon_min, failures=pool_failures
        )
        # Member failures at or past the horizon are no-ops.
        horizon_min = pooled.horizon_min
        started = [f for f in failures or () if f.time_min < horizon_min]
        # Striping spreads load perfectly: report equal per-server shares
        # of the *useful* (un-inflated) traffic.  Outages are cluster-wide,
        # so no rejection is charged to a lost replica holder and no
        # pool-level repair time is reported.
        n = self._num_servers
        inflation = self._inflation
        return replace(
            pooled,
            server_time_avg_load_mbps=np.full(
                n, pooled.server_time_avg_load_mbps[0] / inflation / n
            ),
            server_peak_load_mbps=np.full(
                n, pooled.server_peak_load_mbps[0] / inflation / n
            ),
            server_served=self._spread_served(int(pooled.server_served[0])),
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
            num_failures=len(started),
            num_recoveries=sum(f.recovery_min <= horizon_min for f in started),
            num_lost_to_failure=0,
            mean_time_to_recovery_min=0.0,
            server_downtime_min=np.full(n, pooled.server_downtime_min[0]),
        )

    def _spread_served(self, served: int) -> np.ndarray:
        """Attribute served streams evenly across stripe members."""
        base, extra = divmod(served, self._num_servers)
        counts = np.full(self._num_servers, base, dtype=np.int64)
        counts[:extra] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StripedClusterSimulator(N={self._num_servers}, "
            f"overhead={self._overhead}, "
            f"effective={self.effective_capacity_mbps:.0f} Mb/s)"
        )
