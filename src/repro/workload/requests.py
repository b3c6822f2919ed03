"""Request and trace containers.

A :class:`RequestTrace` is a column-oriented batch of requests (arrival time
in minutes, video index) — the unit the simulator consumes and the format
the trace I/O round-trips.  Column orientation keeps paper-scale traces
(thousands of requests) cheap to generate, slice and aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator
from functools import cached_property

import numpy as np

from .._validation import check_int_in_range

__all__ = ["Request", "RequestTrace", "narrow_sort_key", "occurrence_ranks"]


def narrow_sort_key(values: np.ndarray, bound: int) -> np.ndarray:
    """*values* (in ``[0, bound]``) in the narrowest unsigned dtype.

    numpy's stable sort radix-sorts 8- and 16-bit keys, several times
    faster than its merge sort on the int64 originals, in the same order.
    """
    return values.astype(np.min_scalar_type(bound), copy=False)


def occurrence_ranks(videos: np.ndarray) -> np.ndarray:
    """Rank of each request among the earlier requests for its video.

    ``[7, 3, 7, 7, 3] -> [0, 0, 1, 2, 1]`` — the per-video round-robin
    counter value each arrival observes.  The ranks come in the narrowest
    unsigned dtype that holds the request count.  They depend on each
    video's own requests only, so the ranks of a prefix are the prefix of
    the ranks, and dropping every request of some videos leaves the other
    requests' ranks unchanged.
    """
    n = videos.size
    ranks = np.empty(n, dtype=np.min_scalar_type(n))
    if not n:
        return ranks
    key = narrow_sort_key(videos, int(videos.max()))
    order = np.argsort(key, kind="stable")
    sorted_vals = key[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=is_start[1:])
    idx = np.arange(n)
    group_start = np.maximum.accumulate(np.where(is_start, idx, 0))
    ranks[order] = idx - group_start
    return ranks


@dataclass(frozen=True)
class Request:
    """A single VoD request."""

    arrival_min: float
    video: int

    def __post_init__(self) -> None:
        if self.arrival_min < 0:
            raise ValueError(f"arrival_min must be >= 0, got {self.arrival_min}")
        check_int_in_range("video", self.video, 0)


class RequestTrace:
    """An immutable, time-ordered sequence of requests.

    Parameters
    ----------
    arrival_min:
        Arrival times in minutes, non-decreasing.
    videos:
        Video index of each request.
    watch_min:
        Optional per-request watch time (minutes) from an early-departure
        model; ``None`` (the paper's model) means every stream runs for the
        full video duration.
    """

    def __init__(
        self,
        arrival_min: np.ndarray,
        videos: np.ndarray,
        watch_min: np.ndarray | None = None,
    ) -> None:
        times = np.asarray(arrival_min, dtype=np.float64)
        vids = np.asarray(videos, dtype=np.int64)
        if times.ndim != 1 or vids.ndim != 1:
            raise ValueError("trace columns must be one-dimensional")
        if times.shape != vids.shape:
            raise ValueError(
                f"column length mismatch: {times.shape} times vs {vids.shape} videos"
            )
        if times.size and (np.any(times < 0) or not np.all(np.isfinite(times))):
            raise ValueError("arrival times must be finite and >= 0")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("arrival times must be non-decreasing")
        if vids.size and np.any(vids < 0):
            raise ValueError("video indices must be >= 0")
        if watch_min is not None:
            watch = np.asarray(watch_min, dtype=np.float64)
            if watch.shape != times.shape:
                raise ValueError(
                    f"watch_min shape {watch.shape} != arrivals shape {times.shape}"
                )
            if watch.size and (np.any(watch <= 0) or not np.all(np.isfinite(watch))):
                raise ValueError("watch times must be finite and > 0")
            watch = watch.copy()
            watch.setflags(write=False)
        else:
            watch = None
        times = times.copy()
        vids = vids.copy()
        times.setflags(write=False)
        vids.setflags(write=False)
        self._times = times
        self._videos = vids
        self._watch = watch

    # ------------------------------------------------------------------
    @classmethod
    def from_requests(cls, requests: list[Request]) -> "RequestTrace":
        """Build a trace from row objects (sorted by arrival time)."""
        ordered = sorted(requests, key=lambda r: r.arrival_min)
        return cls(
            np.array([r.arrival_min for r in ordered], dtype=np.float64),
            np.array([r.video for r in ordered], dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "RequestTrace":
        return cls(np.empty(0), np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def arrival_min(self) -> np.ndarray:
        """Arrival times (minutes), non-decreasing."""
        return self._times

    @property
    def videos(self) -> np.ndarray:
        """Requested video per arrival."""
        return self._videos

    @property
    def watch_min(self) -> np.ndarray | None:
        """Per-request watch times, or None for full-duration sessions."""
        return self._watch

    @property
    def num_requests(self) -> int:
        return int(self._times.size)

    @cached_property
    def video_ranks(self) -> np.ndarray:
        """Read-only :func:`occurrence_ranks` of :attr:`videos`, built once.

        The static round-robin dispatcher sends a request to its video's
        holder number ``rank % replicas``, so every layout replayed on
        this trace reads the same ranks.
        """
        ranks = occurrence_ranks(self._videos)
        ranks.setflags(write=False)
        return ranks

    @property
    def duration_min(self) -> float:
        """Time of the last arrival (0 for an empty trace)."""
        return float(self._times[-1]) if self._times.size else 0.0

    def __len__(self) -> int:
        return self.num_requests

    def __iter__(self) -> Iterator[Request]:
        for t, v in zip(self._times, self._videos):
            yield Request(float(t), int(v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestTrace):
            return NotImplemented
        if (self._watch is None) != (other._watch is None):
            return False
        watch_equal = self._watch is None or np.array_equal(self._watch, other._watch)
        return bool(
            np.array_equal(self._times, other._times)
            and np.array_equal(self._videos, other._videos)
            and watch_equal
        )

    # ------------------------------------------------------------------
    def video_counts(self, num_videos: int) -> np.ndarray:
        """Requests per video (length ``num_videos``)."""
        check_int_in_range("num_videos", num_videos, 1)
        if self._videos.size and int(self._videos.max()) >= num_videos:
            raise ValueError(
                f"trace references video {int(self._videos.max())} but only "
                f"{num_videos} videos exist"
            )
        return np.bincount(self._videos, minlength=num_videos)

    def window(self, start_min: float, end_min: float) -> "RequestTrace":
        """Sub-trace of arrivals in ``[start_min, end_min)``."""
        if end_min < start_min:
            raise ValueError("end_min must be >= start_min")
        lo = int(np.searchsorted(self._times, start_min, side="left"))
        hi = int(np.searchsorted(self._times, end_min, side="left"))
        watch = self._watch[lo:hi] if self._watch is not None else None
        return RequestTrace(self._times[lo:hi], self._videos[lo:hi], watch)

    def mean_rate_per_min(self) -> float:
        """Empirical arrival rate over the span between first and last arrival.

        Span-based (not anchored at t=0) so windowed sub-traces report
        their own local rate.
        """
        if self.num_requests < 2:
            return 0.0
        span = float(self._times[-1] - self._times[0])
        if span == 0.0:
            return 0.0
        return self.num_requests / span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestTrace(num_requests={self.num_requests}, "
            f"duration_min={self.duration_min:.1f})"
        )
