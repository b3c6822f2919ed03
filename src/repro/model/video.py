"""Videos and video collections.

The paper considers ``M`` videos of equal duration (``90`` minutes for
typical movies).  A video encoded at constant bit rate ``b`` for duration
``D`` occupies ``b * D`` bits of storage (Sec. 3.1); at the paper's typical
MPEG-2 rate of 4 Mb/s and 90 minutes this is 2.7 GB.

Unit conventions used throughout the library:

* bit rates are in **Mb/s** (megabits per second),
* durations are in **minutes**,
* storage is in **GB** (decimal gigabytes, 1 GB = 8000 Mb).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .._validation import check_int_in_range, check_positive

__all__ = ["Video", "VideoCollection", "storage_gb"]

#: Megabits per (decimal) gigabyte.
MEGABITS_PER_GB = 8000.0


def storage_gb(bit_rate_mbps: float, duration_min: float) -> float:
    """Storage required (GB) for a CBR video: ``b * D`` (Sec. 3.1)."""
    check_positive("bit_rate_mbps", bit_rate_mbps)
    check_positive("duration_min", duration_min)
    return bit_rate_mbps * duration_min * 60.0 / MEGABITS_PER_GB


@dataclass(frozen=True)
class Video:
    """A single video title.

    Parameters
    ----------
    video_id:
        Zero-based identifier; by the paper's convention the video with id 0
        is the most popular.
    bit_rate_mbps:
        The (current) constant encoding bit rate.
    duration_min:
        Playback duration in minutes.
    """

    video_id: int
    bit_rate_mbps: float = 4.0
    duration_min: float = 90.0

    def __post_init__(self) -> None:
        check_int_in_range("video_id", self.video_id, 0)
        check_positive("bit_rate_mbps", self.bit_rate_mbps)
        check_positive("duration_min", self.duration_min)

    @property
    def storage_gb(self) -> float:
        """Storage footprint of one replica at the current bit rate."""
        return storage_gb(self.bit_rate_mbps, self.duration_min)

    def with_bit_rate(self, bit_rate_mbps: float) -> "Video":
        """Return a copy re-encoded at a different bit rate."""
        return Video(self.video_id, bit_rate_mbps, self.duration_min)


class VideoCollection(Sequence[Video]):
    """An immutable, id-ordered collection of videos.

    Provides vectorized views (bit-rate array, storage array) used by the
    constraint checks and by the simulator.  Each view is built on first
    access and then shared, read-only.  The views live in slots, so the
    collection's ``__dict__`` (its :func:`repro.runtime.content_key`
    form) holds only the videos, and a pickle carries only the videos.
    """

    __slots__ = ("__dict__", "_bit_rates", "_durations", "_storage")

    def __init__(self, videos: Iterable[Video]) -> None:
        videos = tuple(videos)
        if not videos:
            raise ValueError("VideoCollection must contain at least one video")
        ids = [v.video_id for v in videos]
        if ids != list(range(len(videos))):
            raise ValueError(
                "videos must be supplied in id order with ids 0..M-1; "
                f"got ids {ids[:8]}{'...' if len(ids) > 8 else ''}"
            )
        self._videos = videos

    def __reduce__(self):
        return type(self), (self._videos,)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        num_videos: int,
        *,
        bit_rate_mbps: float = 4.0,
        duration_min: float = 90.0,
    ) -> "VideoCollection":
        """Build ``num_videos`` identical-parameter videos (the paper's set)."""
        check_int_in_range("num_videos", num_videos, 1)
        return cls(
            Video(i, bit_rate_mbps, duration_min) for i in range(num_videos)
        )

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._videos)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            raise TypeError("VideoCollection does not support slicing")
        return self._videos[index]

    def __iter__(self) -> Iterator[Video]:
        return iter(self._videos)

    # ------------------------------------------------------------------
    # Vectorized views
    # ------------------------------------------------------------------
    @property
    def num_videos(self) -> int:
        """Number of videos ``M``."""
        return len(self._videos)

    @property
    def bit_rates_mbps(self) -> np.ndarray:
        """Encoding bit rate of each video (Mb/s; read-only)."""
        return self._view("_bit_rates", "bit_rate_mbps")

    @property
    def durations_min(self) -> np.ndarray:
        """Duration of each video (minutes; read-only)."""
        return self._view("_durations", "duration_min")

    @property
    def storage_gb(self) -> np.ndarray:
        """Per-replica storage footprint of each video (GB; read-only)."""
        return self._view("_storage", "storage_gb")

    def _view(self, slot: str, attribute: str) -> np.ndarray:
        """The read-only array of every video's *attribute*, built once
        into *slot*."""
        try:
            return getattr(self, slot)
        except AttributeError:
            view = np.array(
                [getattr(v, attribute) for v in self._videos], dtype=np.float64
            )
            view.setflags(write=False)
            setattr(self, slot, view)
            return view

    @property
    def is_single_rate(self) -> bool:
        """Whether all videos share one encoding bit rate (Sec. 4.1 setting)."""
        rates = self.bit_rates_mbps
        return bool(np.all(rates == rates[0]))

    def with_bit_rates(self, bit_rates_mbps: np.ndarray) -> "VideoCollection":
        """Return a collection with per-video bit rates replaced."""
        rates = np.asarray(bit_rates_mbps, dtype=np.float64)
        if rates.shape != (self.num_videos,):
            raise ValueError(
                f"bit_rates_mbps must have shape ({self.num_videos},), got {rates.shape}"
            )
        return VideoCollection(
            v.with_bit_rate(float(r)) for v, r in zip(self._videos, rates)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VideoCollection(num_videos={self.num_videos})"

