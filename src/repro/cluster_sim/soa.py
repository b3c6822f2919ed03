"""Struct-of-arrays request columns for the DES hot loops.

:class:`RequestSoA` is the prepared, per-run form of a
:class:`~repro.workload.requests.RequestTrace`: parallel numpy columns
(arrival times, video ids, stream hold times) plus the horizon cut, built
once per ``run()`` and shared by both simulation loops — the optimized
:class:`~repro.cluster_sim.simulator.VoDClusterSimulator` and the
clarity-first :class:`~repro.cluster_sim.reference.ReferenceClusterSimulator`
— and by the post-run audit in :mod:`repro.verify.audit`.  Centralizing
the per-request state keeps the loops in lockstep *by construction*:
video-id validation, the watch-time/duration hold rule and the horizon
truncation are computed exactly once, vectorized, instead of hand-copied
variants that must be edited in sync.

Two views of the same columns are exposed:

* full numpy arrays (:attr:`times` / :attr:`videos` / :attr:`holds`) for
  vectorized consumers — the reference loop and the audit layer's
  reconstruction / monotonicity checks, which deliberately see arrivals
  *past* the horizon too;
* plain-Python lists truncated to the simulated prefix
  (:attr:`times_list` / :attr:`videos_list` / :attr:`holds_list`) for the
  optimized event loop, which never touches numpy scalars on the hot
  path.

The horizon cut is a single ``searchsorted`` over the (validated
non-decreasing) arrival times: an arrival at exactly ``horizon_min`` is
still simulated, everything strictly later is truncated — identical to
the historical per-arrival ``t > horizon_min`` break, minus one branch
per arrival in the hot loop.
"""

from __future__ import annotations

import numpy as np

from ..workload.requests import RequestTrace

__all__ = ["RequestSoA"]


class RequestSoA:
    """Validated, horizon-cut request columns for one simulation run.

    Build with :meth:`from_trace`; the constructor itself trusts its
    inputs (it exists so tests can assemble corner cases directly).
    """

    __slots__ = (
        "times",
        "videos",
        "holds",
        "num_requests",
        "num_simulated",
        "num_truncated",
        "_times_list",
        "_videos_list",
        "_holds_list",
    )

    def __init__(
        self,
        times: np.ndarray,
        videos: np.ndarray,
        holds: np.ndarray,
        num_simulated: int,
    ) -> None:
        self.times = times
        self.videos = videos
        self.holds = holds
        self.num_requests = int(times.size)
        self.num_simulated = int(num_simulated)
        self.num_truncated = self.num_requests - self.num_simulated
        self._times_list: list[float] | None = None
        self._videos_list: list[int] | None = None
        self._holds_list: list[float] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: RequestTrace,
        durations_min: np.ndarray,
        horizon_min: float,
    ) -> "RequestSoA":
        """Prepare *trace* against a catalog of per-video durations.

        Validates video ids against the catalog (both bounds: a negative
        id would otherwise wrap through numpy's negative indexing into
        the duration/rate tables and silently simulate the wrong videos),
        computes stream hold times — the full video duration (the paper's
        model) or the per-request watch times of an early-departure
        workload, whichever is shorter — and locates the horizon cut.
        """
        times = trace.arrival_min
        videos = trace.videos
        num_videos = int(durations_min.size)
        if times.size:
            if int(videos.min()) < 0:
                raise ValueError(
                    f"trace contains negative video id {int(videos.min())}"
                )
            if int(videos.max()) >= num_videos:
                raise ValueError(
                    "trace references a video outside the collection"
                )
        if trace.watch_min is not None:
            holds = np.minimum(trace.watch_min, durations_min[videos])
        else:
            holds = durations_min[videos]
        # Arrivals are non-decreasing (RequestTrace validates), so the
        # simulated prefix is exactly the count of times <= horizon_min.
        cut = int(np.searchsorted(times, horizon_min, side="right"))
        return cls(times, videos, holds, cut)

    # ------------------------------------------------------------------
    # List views, truncated to the simulated prefix and materialized
    # lazily (the reference loop never asks for them).
    @property
    def times_list(self) -> list[float]:
        if self._times_list is None:
            self._times_list = self.times[: self.num_simulated].tolist()
        return self._times_list

    @property
    def videos_list(self) -> list[int]:
        if self._videos_list is None:
            self._videos_list = self.videos[: self.num_simulated].tolist()
        return self._videos_list

    @property
    def holds_list(self) -> list[float]:
        if self._holds_list is None:
            self._holds_list = self.holds[: self.num_simulated].tolist()
        return self._holds_list

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestSoA(num_requests={self.num_requests}, "
            f"num_simulated={self.num_simulated})"
        )
