"""Parity pin for the striped, batching and queueing simulators.

A seeded corpus of small, often saturated configurations runs through
:class:`StripedClusterSimulator`, :class:`BatchingClusterSimulator` and
:class:`QueueingClusterSimulator`, and one digest over every
``same_outcome`` field plus each extended metric is pinned.  Arrival
times, durations, windows, patience values and outage bounds sit on a
half-minute grid, so the corpus is dense in exact ties: arrivals at a
batch's fire instant, departures at a waiter's defection deadline,
batches clamped at the horizon, waiters left at the horizon, and
overlapping or touching outages of different stripe members.  Windows
and patience of 0 are included.

``num_events`` and ``num_truncated`` are left out of the digest: they
count the engine's work and the horizon cut, not the simulated outcome.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ClusterSpec, ServerSpec, VideoCollection
from repro.cluster_sim import (
    BatchingClusterSimulator,
    FailureEvent,
    FailureSchedule,
    QueueingClusterSimulator,
    StripedClusterSimulator,
    make_dispatcher_factory,
)
from repro.model.layout import ReplicaLayout
from repro.model.video import Video
from repro.workload import RequestTrace

#: The digest of the corpus below, recorded on the event loops these
#: simulators used before they became configurations of the kernel.
PINNED_DIGEST = "f4fb5338fbbb6a99"

NUM_CASES = 600
GRID = 0.5
RATES = (1.0, 1.5, 2.0, 4.0)
DISPATCHERS = ("static_rr", "least_loaded", "first_fit")

_SCALARS = (
    "num_requests",
    "num_rejected",
    "horizon_min",
    "num_redirected",
    "streams_dropped",
    "num_failures",
    "num_recoveries",
    "num_retries",
    "num_failovers",
    "num_lost_to_failure",
    "num_rereplicated",
    "mean_time_to_recovery_min",
)
_ARRAYS = (
    "per_video_requests",
    "per_video_rejected",
    "server_time_avg_load_mbps",
    "server_peak_load_mbps",
    "server_served",
    "server_bandwidth_mbps",
    "server_downtime_min",
)


def _grid(rng, low, high, size=None):
    """Multiples of GRID in [low, high]."""
    return rng.integers(int(low / GRID), int(high / GRID) + 1, size) * GRID


def _videos(rng, num_videos):
    return VideoCollection(
        Video(
            i,
            float(rng.choice(RATES)),
            float(_grid(rng, 1.0, 20.0)),
        )
        for i in range(num_videos)
    )


def _trace(rng, num_videos, horizon, *, watch=False):
    n = int(rng.integers(0, 40))
    if rng.random() < 0.25:
        times = np.sort(rng.uniform(0.0, 1.2 * horizon, n))
    else:
        times = np.sort(_grid(rng, 0.0, 1.2 * horizon, n))
    videos = rng.integers(0, num_videos, n)
    watch_min = _grid(rng, GRID, 15.0, n) if watch else None
    return RequestTrace(times, videos, watch_min)


def _horizon(rng, trace):
    if rng.random() < 0.2 and trace.duration_min > 0.0:
        return None  # default: the last arrival
    return float(_grid(rng, 5.0, 30.0))


def _outages(rng, num_servers, horizon):
    """Per-member outages; members overlap, touch and nest freely."""
    events = []
    for server in range(num_servers):
        t = float(_grid(rng, 0.0, horizon))
        for _ in range(int(rng.integers(0, 3))):
            if rng.random() < 0.2:
                events.append(FailureEvent(t, server))
                break
            down = float(_grid(rng, GRID, 10.0))
            events.append(FailureEvent(t, server, down))
            gap = 0.0 if rng.random() < 0.4 else float(_grid(rng, 0, 8))
            t += down + gap
    if events and rng.random() < 0.3:
        # Touch another member's outage end exactly.
        other = events[int(rng.integers(len(events)))]
        if other.recovery_min < np.inf:
            free = [
                k
                for k in range(num_servers)
                if all(e.server != k for e in events)
            ]
            if free:
                events.append(FailureEvent(other.recovery_min, free[0], 2.0))
    return FailureSchedule(events)


def _layout(rng, num_videos, num_servers):
    matrix = np.zeros((num_videos, num_servers))
    for video in range(num_videos):
        order = rng.permutation(num_servers)
        holders = order[: int(rng.integers(0, num_servers + 1))]
        if rng.random() < 0.15:
            holders = holders[:0]  # unreplicated video
        rate = float(rng.choice(RATES))
        for k in holders:
            mixed = rng.random() < 0.1
            matrix[video, k] = float(rng.choice(RATES)) if mixed else rate
    return ReplicaLayout(rate_matrix=matrix)


def _cluster(rng, num_servers, *, homogeneous):
    if homogeneous:
        return ClusterSpec.homogeneous(
            num_servers,
            storage_gb=500.0,
            bandwidth_mbps=float(rng.integers(1, 7)) * 4.0,
        )
    return ClusterSpec(
        ServerSpec(500.0, float(rng.integers(1, 7)) * 2.0)
        for _ in range(num_servers)
    )


def striped_cases(seed=0):
    rng = np.random.default_rng([seed, 1])
    for _ in range(NUM_CASES):
        num_servers = int(rng.integers(1, 5))
        num_videos = int(rng.integers(1, 7))
        videos = _videos(rng, num_videos)
        sim = StripedClusterSimulator(
            _cluster(rng, num_servers, homogeneous=True),
            videos,
            overhead_per_server=float(rng.choice((0.0, 0.01, 0.05, 1 / 3))),
        )
        trace = _trace(rng, num_videos, 30.0, watch=rng.random() < 0.3)
        horizon = _horizon(rng, trace)
        failures = None
        if rng.random() < 0.6:
            failures = _outages(rng, num_servers, horizon or 30.0)
        yield sim.run(trace, horizon_min=horizon, failures=failures), ()


def batching_cases(seed=0):
    rng = np.random.default_rng([seed, 2])
    for _ in range(NUM_CASES):
        num_servers = int(rng.integers(1, 5))
        num_videos = int(rng.integers(1, 7))
        videos = _videos(rng, num_videos)
        sim = BatchingClusterSimulator(
            _cluster(rng, num_servers, homogeneous=rng.random() < 0.5),
            videos,
            _layout(rng, num_videos, num_servers),
            window_min=float(rng.choice((0.0, 0.5, 1.0, 2.0, 5.0, 12.5))),
            dispatcher_factory=make_dispatcher_factory(
                str(rng.choice(DISPATCHERS))
            ),
            validate_layout=False,
        )
        trace = _trace(rng, num_videos, 30.0)
        result = sim.run(trace, horizon_min=_horizon(rng, trace))
        yield result.base, (
            result.streams_started,
            result.viewers_served,
            result.mean_wait_min,
        )


def queueing_cases(seed=0):
    rng = np.random.default_rng([seed, 3])
    for _ in range(NUM_CASES):
        num_servers = int(rng.integers(1, 5))
        num_videos = int(rng.integers(1, 7))
        videos = _videos(rng, num_videos)
        sim = QueueingClusterSimulator(
            _cluster(rng, num_servers, homogeneous=rng.random() < 0.5),
            videos,
            _layout(rng, num_videos, num_servers),
            patience_min=float(rng.choice((0.0, 0.5, 1.0, 2.0, 5.0, 40.0))),
            dispatcher_factory=make_dispatcher_factory(
                str(rng.choice(DISPATCHERS))
            ),
            validate_layout=False,
        )
        trace = _trace(rng, num_videos, 30.0)
        result = sim.run(trace, horizon_min=_horizon(rng, trace))
        yield result.base, (
            result.num_queued,
            result.num_queued_served,
            result.mean_wait_min,
            result.max_wait_min,
        )


def _digest(cases) -> str:
    h = hashlib.sha256()
    for base, extended in cases:
        for name in _SCALARS:
            h.update(float(getattr(base, name)).hex().encode())
        for name in _ARRAYS:
            array = np.asarray(getattr(base, name), dtype=np.float64)
            h.update(array.tobytes())
        for value in extended:
            h.update(float(value).hex().encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def test_corpus_digest_is_pinned():
    families = [
        list(family())
        for family in (striped_cases, batching_cases, queueing_cases)
    ]
    for cases in families:
        # The pin only bites if requests actually get turned away.
        assert any(base.num_rejected for base, _ in cases)
        assert any(base.num_rejected < base.num_requests for base, _ in cases)
    digest = _digest(case for cases in families for case in cases)
    assert digest == PINNED_DIGEST


def _one_server(slots=2):
    cluster = ClusterSpec.homogeneous(
        1, storage_gb=100.0, bandwidth_mbps=slots * 4.0
    )
    videos = VideoCollection.homogeneous(2, duration_min=10.0)
    layout = ReplicaLayout.from_assignment([[0], [0]], 1)
    return cluster, videos, layout


def test_batching_rejects_watch_times():
    sim = BatchingClusterSimulator(*_one_server(), window_min=1.0)
    trace = RequestTrace(
        np.array([0.0]), np.zeros(1, dtype=int), np.array([1.0])
    )
    with pytest.raises(ValueError, match="watch times"):
        sim.run(trace, horizon_min=10.0)


@pytest.mark.parametrize("variant", ["striped", "batching", "queueing"])
def test_kernel_counts_events_and_truncation(variant):
    cluster, videos, layout = _one_server()
    sim = {
        "striped": lambda: StripedClusterSimulator(cluster, videos),
        "batching": lambda: BatchingClusterSimulator(cluster, videos, layout),
        "queueing": lambda: QueueingClusterSimulator(cluster, videos, layout),
    }[variant]()
    trace = RequestTrace(
        np.array([0.0, 1.0, 2.0, 12.0, 15.0]), np.zeros(5, dtype=int)
    )
    result = sim.run(trace, horizon_min=10.0)
    base = getattr(result, "base", result)
    assert base.num_truncated == 2
    assert base.num_requests + base.num_truncated == trace.num_requests
    assert base.num_events > 0
