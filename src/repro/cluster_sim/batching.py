"""Multicast batching — the Sec. 2 bandwidth-reduction technique.

The paper's related work points at batching/multicasting (Aggarwal et al.'s
batching schemes, Eager et al.'s bandwidth-minimization survey) as the
complementary lever to replication: instead of one unicast stream per
viewer, requests for the same video arriving within a short *batching
window* share a single multicast stream, trading startup latency for
bandwidth.

Model: the first request for video ``v`` opens a batch and schedules it to
fire ``window_min`` later; requests for ``v`` arriving up to the fire
instant join it for free.  At fire time one stream is dispatched for the
whole batch (same dispatch/admission rules as unicast); if no server can
carry it, the entire batch is rejected.  Batches still open at the horizon
fire at it.  ``window_min = 0`` degenerates to the paper's unicast model.

Kernel configuration: batch membership depends on the trace alone, so
batching is a trace transform.  :class:`VoDClusterSimulator` runs the
*stream* trace, one arrival per batch at its fire instant, and the run's
decision record is folded back over the batches into the extra metrics:
streams started, mean startup wait and the *batching factor* (viewers
served per stream) — the capacity multiplier batching buys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._validation import check_non_negative, check_positive
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .dispatch import StaticRoundRobinDispatcher
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator
from .soa import RequestSoA

__all__ = ["BatchingResult", "BatchingClusterSimulator"]


@dataclass(frozen=True)
class BatchingResult:
    """A :class:`SimulationResult` plus batching-specific metrics."""

    base: SimulationResult
    streams_started: int
    viewers_served: int
    mean_wait_min: float

    @property
    def batching_factor(self) -> float:
        """Viewers per multicast stream (1.0 = no sharing)."""
        if self.streams_started == 0:
            return 0.0
        return self.viewers_served / self.streams_started

    @property
    def rejection_rate(self) -> float:
        return self.base.rejection_rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchingResult(rejection={self.rejection_rate:.3f}, "
            f"factor={self.batching_factor:.2f}, "
            f"wait={self.mean_wait_min:.2f}min)"
        )


class BatchingClusterSimulator:
    """Cluster simulator with batched multicast delivery.

    Mirrors :class:`VoDClusterSimulator`'s construction; failures and
    watch-time columns are not supported here (multicast viewers share one
    stream for the full duration).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        layout: ReplicaLayout,
        *,
        window_min: float = 2.0,
        dispatcher_factory=StaticRoundRobinDispatcher,
        validate_layout: bool = True,
    ) -> None:
        check_non_negative("window_min", window_min)
        self._kernel = VoDClusterSimulator(
            cluster,
            videos,
            layout,
            dispatcher_factory=dispatcher_factory,
            validate_layout=validate_layout,
        )
        self._window = float(window_min)
        self._replicated = (layout.video_bit_rates > 0.0).tolist()
        self._durations = videos.durations_min

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
    ) -> BatchingResult:
        """Simulate one trace with batching and return extended metrics."""
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)
        horizon_min = float(horizon_min)
        if trace.watch_min is not None:
            raise ValueError(
                "the batching simulator models full-duration sessions; "
                "strip the trace's watch times first"
            )
        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        per_video_rejected = [0] * len(self._replicated)

        # Form the batches: (fire instant, video, viewer arrival times).
        batches: list[tuple[float, int, list[float]]] = []
        open_batch: dict[int, tuple[float, int, list[float]]] = {}
        for t, video in zip(soa.times_list, soa.videos_list):
            if not self._replicated[video]:
                per_video_rejected[video] += 1
                continue
            batch = open_batch.get(video)
            if batch is not None and batch[0] >= t:
                batch[2].append(t)
            else:
                batch = open_batch[video] = (t + self._window, video, [t])
                batches.append(batch)

        # One stream per batch, in firing order; the stable sort keeps
        # creation order among equal instants.
        batches.sort(key=lambda b: (min(b[0], horizon_min), b[0]))
        starts = [min(b[0], horizon_min) for b in batches]
        streams = RequestTrace(
            np.array(starts, dtype=np.float64),
            np.array([b[1] for b in batches], dtype=np.int64),
        )
        base, record = self._kernel._run(streams, horizon_min=horizon_min)

        streams_started = viewers_served = 0
        total_wait = 0.0
        for (_, video, arrivals), start, decision in zip(
            batches, starts, record.decisions
        ):
            if decision:
                streams_started += 1
                viewers_served += len(arrivals)
                total_wait += sum(start - arrival for arrival in arrivals)
            else:
                per_video_rejected[video] += len(arrivals)
        per_video_requests = np.bincount(
            soa.videos[: soa.num_simulated], minlength=len(per_video_rejected)
        )
        base = replace(
            base,
            num_requests=int(per_video_requests.sum()),
            num_rejected=sum(per_video_rejected),
            per_video_requests=per_video_requests,
            per_video_rejected=np.asarray(per_video_rejected, dtype=np.int64),
            num_truncated=soa.num_truncated,
        )
        mean_wait = total_wait / viewers_served if viewers_served else 0.0
        return BatchingResult(
            base=base,
            streams_started=streams_started,
            viewers_served=viewers_served,
            mean_wait_min=mean_wait,
        )
