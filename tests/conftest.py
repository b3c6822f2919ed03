"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.model import ReplicationProblem


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20020707)


@pytest.fixture
def zipf_small() -> ZipfPopularity:
    """Ten videos at the paper's high-skew setting."""
    return ZipfPopularity(10, 0.75)


@pytest.fixture
def zipf_paper() -> ZipfPopularity:
    """The paper-scale popularity vector (200 videos)."""
    return ZipfPopularity(200, 0.75)


@pytest.fixture
def paper_cluster() -> ClusterSpec:
    """The paper's cluster: 8 servers, 1.8 Gb/s, 40 replicas of storage."""
    return ClusterSpec.homogeneous(8, storage_gb=108.0, bandwidth_mbps=1800.0)


@pytest.fixture
def paper_videos() -> VideoCollection:
    """200 videos, 90 minutes, 4 Mb/s (2.7 GB each)."""
    return VideoCollection.homogeneous(200, bit_rate_mbps=4.0, duration_min=90.0)


@pytest.fixture
def paper_problem(paper_cluster, paper_videos, zipf_paper) -> ReplicationProblem:
    return ReplicationProblem(
        cluster=paper_cluster,
        videos=paper_videos,
        popularity=zipf_paper,
        arrival_rate_per_min=40.0,
        peak_minutes=90.0,
    )


@pytest.fixture
def fig5_des() -> dict:
    """``build_des`` overrides for the paper's Fig. 5 peak period.

    M=200 videos on N=8 servers of 1,800 Mb/s under static round-robin,
    lambda=40/min over a 20-minute trace of 90-minute videos.  With the
    horizon at the trace length no stream departs, so every event of the
    run is an arrival.
    """
    return dict(
        num_videos=200,
        num_servers=8,
        theta=0.75,
        bandwidth_mbps=1800.0,
        rate_per_min=40.0,
        duration_min=20.0,
        video_duration_min=90.0,
        capacity=30,
        dispatcher="static_rr",
    )
