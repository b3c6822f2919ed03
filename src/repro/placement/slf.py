"""Smallest-load-first placement (the paper's Algorithm 1).

Replicas are grouped per video and the groups sorted non-increasingly by
communication weight.  The placement proceeds in ``C`` rounds; each round
takes the next ``N`` heaviest replicas and deals them out so that the
heaviest replica goes to the least-loaded server that does not already hold
a replica of the same video, the next replica to the least-loaded remaining
server, and so on (each server receives at most one replica per round, which
keeps storage balanced).

Theorem 2 bounds the resulting load-imbalance degree (Eq. 2 over the summed
weights) by ``max_i w_i - min_i w_i``; Theorem 3 notes the bound is
non-increasing in the replication degree.  Both are exercised by the
property-based tests.

Each replica's choice is Alg. 1's ``argmin`` of the current loads over the
feasible servers (unused this round, not holding the video, storage left),
ties to the lower server id.  Within a round only the server that just
received a replica changes load, and that server is then excluded for the
rest of the round, so the servers still eligible keep the relative order
they had when the round began.  The implementation therefore sorts the
loads once per round (a stable sort, which reproduces ``argmin``'s
lowest-index tie-break) and hands each replica the first server in that
order that is unused and does not hold the video.  The layout is
bit-identical to the per-replica ``argmin`` and a round costs one sort plus
a short scan instead of ``O(N)`` array work per replica.

When the strict one-per-server-per-round rule would strand a replica (every
unused server already holds the video), the rule is relaxed for that replica
to the least-loaded server, on current loads, that lacks the video and has
storage left — the same effect as the paper's "placed to the server with the
second smallest load, and so on" tie-walk in Figure 3.  For valid inputs
(``r_i <= N``, ``N * C`` at least the replica total) the relaxation is never
needed: without it every server gets one replica per full round, so storage
lasts for all ``ceil(R / N)`` rounds, and a video's contiguous run of
``r_i <= N`` replicas spans at most two rounds, opening the second one, so
an unused non-holder always remains.  It stays as the guard that keeps the
placement total on any input.
"""

from __future__ import annotations

import numpy as np

from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult
from .base import PlacementError, Placer, sorted_replica_stream, validate_placement_inputs

__all__ = ["smallest_load_first_placement", "SmallestLoadFirstPlacer"]


def smallest_load_first_placement(
    replication: ReplicationResult,
    capacity_replicas: int,
    *,
    bit_rate_mbps: float = 4.0,
) -> ReplicaLayout:
    """Run Algorithm 1 and return the placed layout.

    Parameters
    ----------
    replication:
        Replica counts and weights from any replication algorithm.
    capacity_replicas:
        Per-server storage capacity ``C`` in replicas.
    bit_rate_mbps:
        Rate label stamped on every placed replica.
    """
    validate_placement_inputs(replication, capacity_replicas)
    num_servers = replication.num_servers
    stream = sorted_replica_stream(replication).tolist()
    weights = replication.weights().tolist()

    loads = [0.0] * num_servers
    storage_left = [capacity_replicas] * num_servers
    held_by: dict[int, set[int]] = {}
    placed_videos: list[int] = []
    placed_servers: list[int] = []

    for start in range(0, len(stream), num_servers):
        # Servers still open this round, smallest load first; the stable
        # sort breaks load ties toward the lower server id like argmin.
        order = np.argsort(np.array(loads), kind="stable").tolist()
        open_servers = [server for server in order if storage_left[server] > 0]
        for video in stream[start : start + num_servers]:
            holders = held_by.setdefault(video, set())
            for position, server in enumerate(open_servers):
                if server not in holders:
                    del open_servers[position]
                    break
            else:
                server = _relaxed_choice(video, holders, loads, storage_left)
            holders.add(server)
            storage_left[server] -= 1
            loads[server] += weights[video]
            placed_videos.append(video)
            placed_servers.append(server)

    matrix = np.zeros((replication.num_videos, num_servers))
    matrix[placed_videos, placed_servers] = bit_rate_mbps
    return ReplicaLayout(rate_matrix=matrix)


def _relaxed_choice(
    video: int, holders: set[int], loads: list[float], storage_left: list[int]
) -> int:
    """Least-loaded server that lacks *video* and has storage left, used
    or not this round (ties toward the lower server id)."""
    feasible = np.array(storage_left) > 0
    feasible[list(holders)] = False
    if not feasible.any():
        raise PlacementError(
            f"no feasible server for a replica of video {video}: "
            "all servers either hold the video or are out of storage"
        )
    return int(np.argmin(np.where(feasible, loads, np.inf)))


class SmallestLoadFirstPlacer(Placer):
    """Object-style wrapper around :func:`smallest_load_first_placement`."""

    name = "slf"

    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        return smallest_load_first_placement(
            replication, capacity_replicas, bit_rate_mbps=bit_rate_mbps
        )
