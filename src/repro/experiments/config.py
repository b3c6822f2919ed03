"""The reconstructed paper setup (Sec. 5, first paragraph).

All evaluation constants live here so every experiment derives from one
source of truth.  Where the OCR of the paper dropped digits, the values are
reconstructed from internal consistency (see DESIGN.md Sec. 3):

* 8 homogeneous servers x 1.8 Gb/s outgoing each -> 3600 concurrent 4 Mb/s
  streams cluster-wide.
* 200 videos x 90 minutes x 4 Mb/s (MPEG-2) -> 2.7 GB per replica.
* Server storage 67.5-135 GB -> cluster capacity 200-400 replicas ->
  replication degrees 1.0-2.0.
* Peak period 90 min; saturation arrival rate 3600/90 = 40 requests/min.
* Zipf skew theta in [0.271, 1]; headline pair 0.75 (high) / 0.25 (low).
* Each data point averages 20 independent runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .._validation import check_int_in_range, check_positive
from ..model import ClusterSpec, ReplicationProblem, VideoCollection
from ..popularity import ZipfPopularity

__all__ = ["PaperSetup"]


@dataclass(frozen=True)
class PaperSetup:
    """Reconstructed constants of the paper's simulation study."""

    num_servers: int = 8
    server_bandwidth_mbps: float = 1800.0
    num_videos: int = 200
    bit_rate_mbps: float = 4.0
    duration_min: float = 90.0
    peak_minutes: float = 90.0
    theta_high: float = 0.75
    theta_low: float = 0.25
    replication_degrees: tuple[float, ...] = (1.0, 1.2, 1.4, 1.6, 1.8, 2.0)
    arrival_rates_per_min: tuple[float, ...] = (10, 15, 20, 25, 30, 35, 40, 45)
    num_runs: int = 20
    seed: int = 20020818  # ICPP 2002 opened August 18
    #: Discrete rate set for the scalable-bit-rate (SA) experiments.
    scalable_rates_mbps: tuple[float, ...] = (2.0, 3.0, 4.0, 5.0, 6.0)

    def __post_init__(self) -> None:
        check_int_in_range("num_servers", self.num_servers, 1)
        check_int_in_range("num_videos", self.num_videos, 1)
        check_int_in_range("num_runs", self.num_runs, 1)
        check_positive("server_bandwidth_mbps", self.server_bandwidth_mbps)
        check_positive("bit_rate_mbps", self.bit_rate_mbps)
        check_positive("duration_min", self.duration_min)
        check_positive("peak_minutes", self.peak_minutes)
        for degree in self.replication_degrees:
            if not 1.0 <= degree <= self.num_servers:
                raise ValueError(
                    f"replication degree {degree} outside [1, N={self.num_servers}]"
                )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def replica_storage_gb(self) -> float:
        """Per-replica footprint: 2.7 GB in the paper's configuration."""
        return self.bit_rate_mbps * self.duration_min * 60.0 / 8000.0

    @property
    def saturation_rate_per_min(self) -> float:
        """Arrival rate that saturates cluster bandwidth (40 req/min)."""
        streams = self.num_servers * int(
            self.server_bandwidth_mbps / self.bit_rate_mbps
        )
        return streams / self.duration_min

    def capacity_replicas(self, degree: float) -> int:
        """Per-server storage capacity ``C`` achieving a replication degree."""
        budget = self.replica_budget(degree)
        return -(-budget // self.num_servers)  # ceil division

    def replica_budget(self, degree: float) -> int:
        """Cluster-wide replica budget for a replication degree."""
        if not 1.0 <= degree <= self.num_servers:
            raise ValueError(f"degree {degree} outside [1, N]")
        return int(round(degree * self.num_videos))

    # ------------------------------------------------------------------
    # Object builders
    # ------------------------------------------------------------------
    def videos(self) -> VideoCollection:
        """The ``M`` videos: one shared, immutable collection per
        ``(num_videos, bit_rate_mbps, duration_min)``, kept outside the
        setup so that pickling a setup does not carry it."""
        return _homogeneous_videos(
            self.num_videos, self.bit_rate_mbps, self.duration_min
        )

    def popularity(self, theta: float) -> ZipfPopularity:
        return ZipfPopularity(self.num_videos, theta)

    def cluster(self, degree: float) -> ClusterSpec:
        """Cluster whose storage realizes the given replication degree."""
        storage = self.capacity_replicas(degree) * self.replica_storage_gb
        return ClusterSpec.homogeneous(
            self.num_servers,
            storage_gb=storage,
            bandwidth_mbps=self.server_bandwidth_mbps,
        )

    def problem(
        self,
        theta: float,
        degree: float,
        *,
        arrival_rate_per_min: float | None = None,
        scalable: bool = False,
    ) -> ReplicationProblem:
        """A full :class:`ReplicationProblem` at one design point."""
        rate = (
            arrival_rate_per_min
            if arrival_rate_per_min is not None
            else self.saturation_rate_per_min
        )
        return ReplicationProblem(
            cluster=self.cluster(degree),
            videos=self.videos(),
            popularity=self.popularity(theta),
            arrival_rate_per_min=rate,
            peak_minutes=self.peak_minutes,
            allowed_bit_rates_mbps=(
                self.scalable_rates_mbps if scalable else (self.bit_rate_mbps,)
            ),
        )

    # ------------------------------------------------------------------
    def quick(self, *, num_runs: int = 3) -> "PaperSetup":
        """A reduced-replication copy for smoke tests and benchmarks."""
        return replace(self, num_runs=num_runs)

    def scaled_down(
        self, *, num_videos: int = 50, num_servers: int = 4, num_runs: int = 3
    ) -> "PaperSetup":
        """A small instance preserving the load ratios (used in tests).

        Bandwidth is scaled so the saturation rate stays at
        ``num_servers/8`` of the paper's, keeping curve shapes comparable.
        """
        return replace(
            self,
            num_videos=num_videos,
            num_servers=num_servers,
            num_runs=num_runs,
            arrival_rates_per_min=tuple(
                r * num_servers / 8 for r in self.arrival_rates_per_min
            ),
        )


@lru_cache(maxsize=16, typed=True)
def _homogeneous_videos(
    num_videos: int, bit_rate_mbps: float, duration_min: float
) -> VideoCollection:
    return VideoCollection.homogeneous(
        num_videos, bit_rate_mbps=bit_rate_mbps, duration_min=duration_min
    )
