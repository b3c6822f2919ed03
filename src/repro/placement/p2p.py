"""Popularity-ordered striping placement (the P2P scheme's counterpart).

Tan & Massoulié's P2P model stripes each video's replicas across as many
boxes as it has copies, so concurrent swarms for different hot videos
decorrelate.  On the cluster this becomes: walk the videos from hottest
to coldest and deal each video's ``r_i`` replicas onto the next ``r_i``
*distinct* servers in cyclic order, advancing the stripe offset by
``r_i`` per video.  The rotating offset is what distinguishes this from
:func:`repro.placement.round_robin.round_robin_placement` with
``sort_by_weight=True``: consecutive hot videos start their stripes on
*different* servers, so the heads of the popularity distribution spread
instead of piling onto the low-id servers.

The deal has a closed form.  Each video's stripe starts where the
previous one ended, so the ``k``-th replica in hottest-first order lands
on server ``k mod N``.  The ``r_i <= N`` consecutive indices of one video
are distinct servers, and server ``s`` receives the replicas
``k = s, s + N, ...``: ``ceil(R / N)`` of them at most, which fits the
storage ``C`` whenever ``R = sum r_i <= N * C`` (guaranteed by
:func:`~repro.placement.base.validate_placement_inputs`).  No server is
full before the deal ends, so the per-server capacity skip of a
step-by-step deal never fires and the whole deal is one list of
``(video, server)`` pairs.
"""

from __future__ import annotations

import numpy as np

from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult
from .base import PlacementError, Placer, validate_placement_inputs

__all__ = ["p2p_stripe_placement", "PopularityStripePlacer"]


def p2p_stripe_placement(
    replication: ReplicationResult,
    capacity_replicas: int,
    *,
    bit_rate_mbps: float = 4.0,
) -> ReplicaLayout:
    """Deal each video's replicas onto a rotating stripe of servers."""
    validate_placement_inputs(
        replication, capacity_replicas, bit_rate_mbps=bit_rate_mbps
    )
    num_servers = replication.num_servers
    counts = replication.replica_counts

    order = np.argsort(-replication.popularity, kind="stable")
    videos = np.repeat(order, counts[order])
    most_per_server = -(-videos.size // num_servers)
    if most_per_server > capacity_replicas:  # pragma: no cover - structural guard
        raise PlacementError(
            f"stripe deal puts {most_per_server} replicas on a server "
            f"with storage for {capacity_replicas}"
        )
    return ReplicaLayout.from_holders(
        num_servers=num_servers,
        pairs=(videos, np.arange(videos.size) % num_servers),
        rate=bit_rate_mbps,
        num_videos=replication.num_videos,
    )


class PopularityStripePlacer(Placer):
    """Object-style wrapper around :func:`p2p_stripe_placement`."""

    name = "p2p_stripe"

    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        return p2p_stripe_placement(
            replication,
            capacity_replicas,
            bit_rate_mbps=bit_rate_mbps,
        )
