"""Randomized feasible placement — a reference point for tests and analyses.

Places replicas in random order on a uniformly random feasible server.  Its
expected imbalance is markedly worse than SLF's, which the test suite uses
as a sanity check that SLF's ordering actually matters.
"""

from __future__ import annotations

import numpy as np

from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult
from .base import PlacementError, Placer, validate_placement_inputs

__all__ = ["random_feasible_placement", "RandomFeasiblePlacer"]


def random_feasible_placement(
    replication: ReplicationResult,
    capacity_replicas: int,
    rng: np.random.Generator,
    *,
    bit_rate_mbps: float = 4.0,
    max_restarts: int = 32,
) -> ReplicaLayout:
    """Place replicas randomly, restarting if the random order dead-ends.

    A uniformly random construction can paint itself into a corner (all
    storage-free servers already hold the video); the placer restarts with a
    fresh order up to ``max_restarts`` times before giving up.
    """
    validate_placement_inputs(
        replication, capacity_replicas, bit_rate_mbps=bit_rate_mbps
    )
    num_servers = replication.num_servers
    counts = replication.replica_counts
    base_stream = np.repeat(np.arange(replication.num_videos), counts)

    for _ in range(max_restarts):
        stream = rng.permutation(base_stream)
        storage_left = np.full(num_servers, capacity_replicas, dtype=np.int64)
        holds = np.zeros((replication.num_videos, num_servers), dtype=bool)
        stuck = False
        for video in stream:
            video = int(video)
            feasible = np.flatnonzero(~holds[video] & (storage_left > 0))
            if feasible.size == 0:
                stuck = True
                break
            server = int(rng.choice(feasible))
            holds[video, server] = True
            storage_left[server] -= 1
        if not stuck:
            return ReplicaLayout(rate_matrix=np.where(holds, bit_rate_mbps, 0.0))
    raise PlacementError(
        f"random placement failed to find a feasible layout in {max_restarts} restarts"
    )


class RandomFeasiblePlacer(Placer):
    """Object-style wrapper around :func:`random_feasible_placement`."""

    name = "random"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()

    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        return random_feasible_placement(
            replication, capacity_replicas, self._rng, bit_rate_mbps=bit_rate_mbps
        )
