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
they had when the round began.  A round therefore sorts the loads once (a
stable sort, which reproduces ``argmin``'s lowest-index tie-break) and
deals its replicas down that order of open servers.

A whole round is one slice of that order.  Each video's replicas are
contiguous in the stream and ``r_i <= N``, so a video spans at most two
rounds, and only the first video of a round can already hold servers from
the previous round.  Every other video in the round starts fresh, and the
servers its earlier replicas took this round have left the order, so its
replicas take the next open servers as they come.  Only the straddling
video skips its earlier holders; the rest of the round takes the open
servers it passed over, then those after its picks.  A round without a
straddling video is ``open_servers[:n]``.  Loads are then added replica by
replica in stream order, so the float sums are those of the per-replica
``argmin``, and the layout is bit-identical to it.

When a round's picks come up short (too few open servers, or every open
server already holds the straddling video), that round proceeds replica by
replica on current loads, and a replica the strict one-per-server-per-round
rule would strand is placed by the relaxed rule: the least-loaded server,
on current loads, that lacks the video and has storage left — the same
effect as the paper's "placed to the server with the second smallest load,
and so on" tie-walk in Figure 3.  For valid inputs (``r_i <= N``, ``N * C``
at least the replica total) this never happens: every full round gives each
server one replica, so storage lasts for all ``ceil(R / N)`` rounds, and a
straddling video that holds ``j`` servers from the previous round has at
most ``N - j`` replicas left for the ``N - j`` open non-holders.  It stays
as the guard that keeps the placement total on any input.
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
    validate_placement_inputs(
        replication, capacity_replicas, bit_rate_mbps=bit_rate_mbps
    )
    num_servers = replication.num_servers
    videos = sorted_replica_stream(replication)
    stream = videos.tolist()
    weights = replication.weights().tolist()

    loads = [0.0] * num_servers
    storage_left = [capacity_replicas] * num_servers
    servers: list[int] = []  # the server of each placed replica, in stream order
    for start in range(0, len(stream), num_servers):
        # Servers the round's first video took in the previous round.
        first = stream[start]
        run_start = start
        while run_start > 0 and stream[run_start - 1] == first:
            run_start -= 1
        servers += _place_round(
            stream[start : start + num_servers],
            set(servers[run_start:start]),
            loads,
            storage_left,
            weights,
        )

    return ReplicaLayout.from_holders(
        num_servers=num_servers,
        pairs=(videos, servers),
        rate=bit_rate_mbps,
        num_videos=replication.num_videos,
    )


def _place_round(
    videos: list[int],
    straddled: set[int],
    loads: list[float],
    storage_left: list[int],
    weights: list[float],
) -> list[int]:
    """Place one round's replicas, updating *loads* and *storage_left*.

    *videos* is the round's slice of the stream and *straddled* the
    servers its first video took in the previous round.  Returns the
    chosen server of each replica, in order.
    """
    num_replicas = len(videos)
    # Servers still open this round, smallest load first; the stable sort
    # breaks load ties toward the lower server id like argmin.
    order = sorted(range(len(loads)), key=loads.__getitem__)
    open_servers = [server for server in order if storage_left[server] > 0]
    if straddled:
        lead = 1
        while lead < num_replicas and videos[lead] == videos[0]:
            lead += 1
        picks: list[int] = []
        passed: list[int] = []
        position = 0
        while len(picks) < lead and position < len(open_servers):
            server = open_servers[position]
            position += 1
            (passed if server in straddled else picks).append(server)
        picks += (passed + open_servers[position:])[: num_replicas - lead]
    else:
        picks = open_servers[:num_replicas]
    if len(picks) < num_replicas:
        return _place_round_by_replica(
            videos, straddled, open_servers, loads, storage_left, weights
        )
    for video, server in zip(videos, picks):
        storage_left[server] -= 1
        loads[server] += weights[video]
    return picks


def _place_round_by_replica(
    videos: list[int],
    straddled: set[int],
    open_servers: list[int],
    loads: list[float],
    storage_left: list[int],
    weights: list[float],
) -> list[int]:
    """One round replica by replica: the first open non-holder, else the
    relaxed rule on current loads."""
    held_by = {videos[0]: set(straddled)}
    placed = []
    for video in videos:
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
        placed.append(server)
    return placed


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
