"""Replica-layout solution representation.

A :class:`ReplicaLayout` answers, for every ``(video, server)`` pair, whether
a replica of the video is stored on that server and at which encoding bit
rate.  The paper writes a layout as an ``M x N`` rate matrix keyed by server,
so the constraint Eq. (6) — all replicas of a video on *distinct* servers —
holds by construction for a matrix; the remaining constraints (Eq. 4, 5, 7)
are checked by :meth:`ReplicaLayout.validate`.

The layout also knows how to compute the per-replica communication weights
``w_i = p_i / r_i`` (Sec. 3.2) and the expected per-server load they induce
under the static round-robin dispatch assumption.

A layout holds its replicas in one of two forms and derives the other on
first use, cached on the immutable layout: the dense ``rate_matrix``, or
the :class:`HolderIndex` (per-video holder lists in CSR form) that
consumers walking the replicas read (dispatch, the vector engine, the
analytical surrogate).  ``ReplicaLayout(rate_matrix)`` is born dense;
:meth:`ReplicaLayout.from_holders` is born from holder lists and builds the
``(M, N)`` matrix only if a reader asks for it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .._validation import check_int_in_range, check_probability_vector
from .cluster import ClusterSpec
from .video import MEGABITS_PER_GB, VideoCollection

__all__ = ["HolderIndex", "ReplicaLayout", "LayoutViolation"]


class LayoutViolation(ValueError):
    """Raised when a layout violates one of the paper's constraints."""


class HolderIndex(NamedTuple):
    """CSR index of a layout's replicas, grouped by video.

    The holders of video ``i`` are ``indices[indptr[i]:indptr[i + 1]]``
    in ascending server order, and ``rates`` holds each replica's bit
    rate at the same positions.  ``indptr`` has ``M + 1`` int64 offsets,
    ``indices`` is int64 and ``rates`` float64; all three arrays are
    read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rates: np.ndarray


def _index_array(name: str, values) -> np.ndarray:
    """*values* as a fresh 1-D int64 array (``ValueError`` otherwise)."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
    return array.astype(np.int64)


def _check_index_range(name: str, array: np.ndarray, bound: int) -> None:
    """Every entry of *array* must lie in ``[0, bound)``."""
    bad = np.flatnonzero((array < 0) | (array >= bound))
    if bad.size:
        raise ValueError(
            f"{name} index {array[bad[0]]} out of range [0, {bound - 1}]"
        )


class ReplicaLayout:
    """Immutable assignment of video replicas (and bit rates) to servers.

    Parameters
    ----------
    rate_matrix:
        ``(M, N)`` array; ``rate_matrix[i, k]`` is the encoding bit rate
        (Mb/s) of video ``i``'s replica on server ``k``, or ``0.0`` when the
        server holds no replica of the video.  The layout keeps a read-only
        copy.  :meth:`from_holders` builds a layout from holder lists
        instead, without the matrix.

    Notes
    -----
    In the single-fixed-rate setting (Sec. 4.1) all non-zero entries share
    one value; the scalable-rate setting (Sec. 4.3) permits different rates
    per video.  The paper's model gives all replicas of one video the same
    rate ("all r_i replicas ... have the same encoding bit rate since they
    are replicated by the same video"); :meth:`validate` enforces that.
    """

    def __init__(self, rate_matrix: np.ndarray) -> None:
        matrix = np.asarray(rate_matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"rate_matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise ValueError("rate_matrix must have at least one video and server")
        if np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
            raise ValueError("rate_matrix entries must be finite and >= 0")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        # Seed the cached ``rate_matrix``; ``holder_index`` derives from it.
        self.__dict__.update(_shape=matrix.shape, rate_matrix=matrix)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_holders(
        cls,
        indptr=None,
        indices=None,
        rates=None,
        *,
        num_servers: int,
        pairs=None,
        rate: float | None = None,
        num_videos: int | None = None,
    ) -> "ReplicaLayout":
        """Build a layout from its holder lists, without a dense matrix.

        Two input forms:

        * CSR — ``indptr`` (``M + 1`` offsets), ``indices`` (the holders
          of each video in turn) and ``rates`` (one bit rate per replica),
          the fields of a :class:`HolderIndex`;
        * ``pairs=(videos, servers)`` — one ``(video, server)`` pair per
          replica in any order, every replica at bit rate ``rate``, over
          ``num_videos`` videos.

        Holders are sorted into ascending server order per video.  The
        checks cost O(replicas) (plus the sort of unsorted input) and fail
        at construction: ``ValueError`` for an inconsistent ``indptr``, an
        out-of-range video or server, or a rate that is not finite and
        ``> 0``; :class:`LayoutViolation` for a server repeated within one
        video (Eq. 6).  The layout's :attr:`rate_matrix` is then built on
        first access only.
        """
        check_int_in_range("num_servers", num_servers, 1)
        if pairs is not None:
            if indptr is not None or indices is not None or rates is not None:
                raise ValueError("pass either the CSR arrays or pairs, not both")
            check_int_in_range("num_videos", num_videos, 1)
            videos, servers = (
                _index_array(name, values)
                for name, values in zip(("videos", "servers"), pairs)
            )
            if videos.shape != servers.shape:
                raise ValueError(
                    f"pairs need one server per video, got {videos.size} "
                    f"videos and {servers.size} servers"
                )
            _check_index_range("video", videos, num_videos)
            _check_index_range("server", servers, num_servers)
            if rate is None or not (np.isfinite(rate) and rate > 0):
                raise ValueError(f"rate must be finite and > 0, got {rate!r}")
            indptr = np.zeros(num_videos + 1, dtype=np.int64)
            np.cumsum(np.bincount(videos, minlength=num_videos), out=indptr[1:])
            order = np.argsort(videos * num_servers + servers, kind="stable")
            indices = servers[order]
            rates = np.full(indices.size, float(rate))
        else:
            if indptr is None or indices is None or rates is None:
                raise ValueError("from_holders needs indptr, indices and rates")
            if rate is not None or num_videos is not None:
                raise ValueError("rate and num_videos go with pairs only")
            indptr = _index_array("indptr", indptr)
            indices = _index_array("indices", indices)
            rates = np.array(rates, dtype=np.float64)
            if indptr.size < 2:
                raise ValueError("indptr needs M + 1 >= 2 offsets")
            if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
                raise ValueError("indptr must start at 0 and be non-decreasing")
            if indptr[-1] != indices.size:
                raise ValueError(
                    f"indptr ends at {indptr[-1]} but there are "
                    f"{indices.size} indices"
                )
            if rates.shape != indices.shape:
                raise ValueError(
                    f"rates must have shape {indices.shape}, got {rates.shape}"
                )
            if not np.all(np.isfinite(rates) & (rates > 0)):
                raise ValueError("rates must be finite and > 0")
            _check_index_range("server", indices, num_servers)
        num_videos = indptr.size - 1
        video_of = np.repeat(np.arange(num_videos), np.diff(indptr))
        same_video = video_of[1:] == video_of[:-1]
        if np.any(same_video & (indices[1:] < indices[:-1])):
            order = np.lexsort((indices, video_of))
            indices, rates = indices[order], rates[order]
        repeated = np.flatnonzero(same_video & (indices[1:] == indices[:-1]))
        if repeated.size:
            at = repeated[0]
            raise LayoutViolation(
                f"video {video_of[at]} assigned twice to one server "
                f"({indices[at]}); replicas need distinct servers (Eq. 6)"
            )
        index = HolderIndex(indptr, indices, rates)
        for array in index:
            array.setflags(write=False)
        layout = cls.__new__(cls)
        # Seed the cached ``holder_index``; ``rate_matrix`` derives from it.
        layout.__dict__.update(
            _shape=(num_videos, num_servers), holder_index=index
        )
        return layout

    @classmethod
    def from_assignment(
        cls,
        replica_servers: Sequence[Sequence[int]],
        num_servers: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> "ReplicaLayout":
        """Build a fixed-rate layout from per-video server lists.

        ``replica_servers[i]`` lists the servers holding video ``i``.
        Duplicate servers within one video are rejected (they would merge
        into a single replica per the paper's Eq. 6 discussion).
        """
        lists = [list(servers) for servers in replica_servers]
        videos = np.repeat(np.arange(len(lists)), [len(s) for s in lists])
        return cls.from_holders(
            num_servers=num_servers,
            pairs=(videos, list(chain.from_iterable(lists))),
            rate=bit_rate_mbps,
            num_videos=len(lists),
        )

    @classmethod
    def empty(cls, num_videos: int, num_servers: int) -> "ReplicaLayout":
        """A layout with no replicas placed (useful as an SA seed)."""
        check_int_in_range("num_videos", num_videos, 1)
        check_int_in_range("num_servers", num_servers, 1)
        return cls(rate_matrix=np.zeros((num_videos, num_servers)))

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @cached_property
    def rate_matrix(self) -> np.ndarray:
        """Read-only ``(M, N)`` float64 rate matrix (0 where no replica).

        A layout built from holder lists scatters its index into a fresh
        matrix on first access and keeps it.
        """
        indptr, indices, rates = self.holder_index
        matrix = np.zeros(self._shape)
        videos = np.repeat(np.arange(self.num_videos), np.diff(indptr))
        matrix[videos, indices] = rates
        matrix.setflags(write=False)
        return matrix

    @property
    def num_videos(self) -> int:
        """Number of videos ``M``."""
        return int(self._shape[0])

    @property
    def num_servers(self) -> int:
        """Number of servers ``N``."""
        return int(self._shape[1])

    @property
    def presence(self) -> np.ndarray:
        """Boolean ``(M, N)`` matrix: replica of video ``i`` on server ``k``."""
        return self.rate_matrix > 0

    @property
    def replica_counts(self) -> np.ndarray:
        """``r_i`` — number of replicas of each video."""
        if "holder_index" in self.__dict__:
            return np.diff(self.holder_index.indptr)
        return self.presence.sum(axis=1).astype(np.int64)

    @property
    def total_replicas(self) -> int:
        """Total number of replicas across the cluster."""
        if "holder_index" in self.__dict__:
            return int(self.holder_index.indptr[-1])
        return int(self.presence.sum())

    @property
    def replication_degree(self) -> float:
        """Average number of replicas per video (the paper's x-axis knob)."""
        return self.total_replicas / self.num_videos

    @property
    def video_bit_rates(self) -> np.ndarray:
        """Per-video encoding bit rate (0 for unplaced videos).

        Defined as the maximum rate over the video's replicas; equal to the
        common rate when the layout is per-video-uniform (the validated
        case).
        """
        return self.rate_matrix.max(axis=1)

    @cached_property
    def holder_index(self) -> HolderIndex:
        """The layout's :class:`HolderIndex`, built once on first access.

        One ``np.nonzero`` over the matrix yields the replicas in
        row-major order, i.e. sorted by video and then by server, which
        is exactly the CSR order; ``bincount`` turns the video ids into
        offsets.  A layout built from holder lists has it from birth.
        """
        videos, servers = np.nonzero(self.rate_matrix > 0)
        indptr = np.zeros(self.num_videos + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(videos, minlength=self.num_videos), out=indptr[1:]
        )
        index = HolderIndex(
            indptr,
            servers.astype(np.int64, copy=False),
            self.rate_matrix[videos, servers],
        )
        for array in index:
            array.setflags(write=False)
        return index

    @cached_property
    def holder_digest(self) -> str:
        """SHA-256 hex digest of the layout's shape and :attr:`holder_index`.

        The content key of the layout: a dense layout and its holder-built
        twin derive the same index, so they digest equal, and a layout
        born from holder lists is digested without building its
        :attr:`rate_matrix`.  The shape fixes every array's length, so
        the concatenated bytes parse one way only.
        """
        import hashlib  # not at module level: keeps ``import repro`` lean

        digest = hashlib.sha256(np.array(self._shape, dtype=np.int64).tobytes())
        for array in self.holder_index:
            digest.update(array.tobytes())
        return digest.hexdigest()

    @cached_property
    def holder_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-video holder tuples of plain ``int`` (from the index).

        The scalar simulator loops iterate candidates per request, where
        numpy scalar boxing would cost more than the admission check, so
        they read these instead of :attr:`holder_index`.
        """
        indptr, indices, _ = self.holder_index
        flat = indices.tolist()
        bounds = indptr.tolist()
        return tuple(
            tuple(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        )

    def servers_of(self, video: int) -> np.ndarray:
        """Indices of the servers holding replicas of *video* (ascending).

        A read-only slice of :attr:`holder_index`.
        """
        check_int_in_range("video", video, 0, self.num_videos - 1)
        indptr, indices, _ = self.holder_index
        return indices[indptr[video] : indptr[video + 1]]

    def videos_on(self, server: int) -> np.ndarray:
        """Indices of videos with a replica on *server*."""
        check_int_in_range("server", server, 0, self.num_servers - 1)
        return np.flatnonzero(self.rate_matrix[:, server] > 0)

    def server_replica_counts(self) -> np.ndarray:
        """Number of replicas stored on each server."""
        return self.presence.sum(axis=0).astype(np.int64)

    def server_storage_used_gb(self, durations_min: np.ndarray) -> np.ndarray:
        """Per-server storage consumption (GB) given per-video durations."""
        durations = np.asarray(durations_min, dtype=np.float64)
        if durations.shape != (self.num_videos,):
            raise ValueError(
                f"durations_min must have shape ({self.num_videos},), got {durations.shape}"
            )
        # storage of replica (i, k) = rate[i, k] * duration[i] * 60 / Mb-per-GB
        per_replica_gb = self.rate_matrix * durations[:, None] * 60.0 / MEGABITS_PER_GB
        return per_replica_gb.sum(axis=0)

    # ------------------------------------------------------------------
    # Load model (Sec. 3.2)
    # ------------------------------------------------------------------
    def replica_weights(self, popularity: np.ndarray) -> np.ndarray:
        """Per-replica communication weights ``w_i = p_i / r_i`` as an (M, N) matrix.

        Entries are 0 where no replica exists.  Videos with zero replicas
        contribute nothing (their requests cannot be serviced at all).
        """
        probs = check_probability_vector("popularity", popularity)
        if probs.shape != (self.num_videos,):
            raise ValueError(
                f"popularity must have shape ({self.num_videos},), got {probs.shape}"
            )
        counts = self.replica_counts
        safe_counts = np.maximum(counts, 1)
        weights = probs / safe_counts
        return np.where(self.presence, weights[:, None], 0.0)

    def expected_server_load_mbps(
        self,
        popularity: np.ndarray,
        requests_per_peak: float,
    ) -> np.ndarray:
        """Expected outgoing load per server (Mb/s) at end of the peak.

        Under static round robin each replica of video ``i`` services
        ``w_i * R`` of the ``R`` peak requests; with video duration equal to
        the peak length each admitted stream is still active, so the load on
        server ``k`` is ``sum_{i on k} w_i * R * b_i`` (Eq. 5's left side).
        """
        if requests_per_peak < 0:
            raise ValueError("requests_per_peak must be >= 0")
        weights = self.replica_weights(popularity)
        return (weights * self.rate_matrix).sum(axis=0) * float(requests_per_peak)

    # ------------------------------------------------------------------
    # Constraint validation (Eq. 4-7)
    # ------------------------------------------------------------------
    def validate(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        *,
        popularity: np.ndarray | None = None,
        requests_per_peak: float | None = None,
        require_full_coverage: bool = True,
        allow_mixed_rates: bool = False,
    ) -> None:
        """Raise :class:`LayoutViolation` if any paper constraint fails.

        * Eq. (4): per-server storage.
        * Eq. (5): per-server outgoing bandwidth — only checked when both
          ``popularity`` and ``requests_per_peak`` are supplied (the paper
          notes this constraint may be violated in the fixed-rate setting
          when offered load exceeds cluster bandwidth).
        * Eq. (6): distinct servers — structural, always true here.
        * Eq. (7): ``1 <= r_i <= N`` — the lower bound is skipped when
          ``require_full_coverage`` is False (partial layouts).

        By default all replicas of one video must share a single bit rate
        (the Sec. 3.2 model); the scalable-rate framework of Sec. 4.3/6
        explicitly permits per-replica rates, enabled with
        ``allow_mixed_rates=True``.
        """
        if (self.num_videos, self.num_servers) != (videos.num_videos, cluster.num_servers):
            raise LayoutViolation(
                f"layout shape {self._shape} does not match "
                f"({videos.num_videos} videos, {cluster.num_servers} servers)"
            )
        # Per-video uniform rate (unless explicitly relaxed).
        if not allow_mixed_rates:
            rates = self.rate_matrix
            row_max = rates.max(axis=1)
            nonzero = rates > 0
            mismatched = nonzero & ~np.isclose(rates, row_max[:, None])
            if np.any(mismatched):
                bad = int(np.flatnonzero(mismatched.any(axis=1))[0])
                raise LayoutViolation(
                    f"video {bad} has replicas at differing bit rates; the "
                    "model requires one rate per video (Sec. 3.2) — pass "
                    "allow_mixed_rates=True for the scalable-rate setting"
                )
        # Eq. (7)
        counts = self.replica_counts
        if require_full_coverage and np.any(counts < 1):
            bad = int(np.flatnonzero(counts < 1)[0])
            raise LayoutViolation(f"video {bad} has no replica (Eq. 7 lower bound)")
        # Upper bound r_i <= N is structural for a matrix layout.

        # Eq. (4)
        used = self.server_storage_used_gb(videos.durations_min)
        capacity = cluster.storage_gb
        over = used > capacity + 1e-9
        if np.any(over):
            bad = int(np.flatnonzero(over)[0])
            raise LayoutViolation(
                f"server {bad} storage exceeded: {used[bad]:.2f} GB used > "
                f"{capacity[bad]:.2f} GB capacity (Eq. 4)"
            )

        # Eq. (5) — optional, needs a load model.
        if popularity is not None and requests_per_peak is not None:
            load = self.expected_server_load_mbps(popularity, requests_per_peak)
            bandwidth = cluster.bandwidth_mbps
            over = load > bandwidth + 1e-9
            if np.any(over):
                bad = int(np.flatnonzero(over)[0])
                raise LayoutViolation(
                    f"server {bad} expected load {load[bad]:.1f} Mb/s exceeds "
                    f"bandwidth {bandwidth[bad]:.1f} Mb/s (Eq. 5)"
                )

    def is_valid(self, cluster: ClusterSpec, videos: VideoCollection, **kwargs) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(cluster, videos, **kwargs)
        except LayoutViolation:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaLayout(M={self.num_videos}, N={self.num_servers}, "
            f"replicas={self.total_replicas})"
        )
