"""Round-robin placement — the evaluation's placement baseline.

Replicas are arranged in per-video groups in an arbitrary (here: video-id)
order ``v_1^1 .. v_1^{r_1}, v_2^1 .. v_2^{r_2}, ...`` and dealt to servers
cyclically: replica ``j`` goes to server ``j mod N``.  Because every group
has at most ``N`` replicas, consecutive replicas of one video always land on
distinct servers (Eq. 6), and each server receives at most ``ceil(R / N)``
replicas, which fits whenever the replica budget fits the cluster — so this
construction also serves as the feasibility witness used by
:func:`repro.placement.base.validate_placement_inputs`.

The paper shows this placement is *optimal* when all per-replica weights are
equal and uses it as the baseline otherwise (Sec. 4.2, Sec. 5).
"""

from __future__ import annotations

import numpy as np

from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult
from .base import PlacementError, Placer, sorted_replica_stream, validate_placement_inputs

__all__ = ["round_robin_placement", "RoundRobinPlacer"]


def round_robin_placement(
    replication: ReplicationResult,
    capacity_replicas: int,
    *,
    bit_rate_mbps: float = 4.0,
    sort_by_weight: bool = False,
) -> ReplicaLayout:
    """Deal replicas to servers cyclically.

    Parameters
    ----------
    sort_by_weight:
        When False (default) groups appear in video-id order, the paper's
        "arbitrary order".  When True the groups are first sorted by weight,
        which makes the deal deterministic with respect to popularity and is
        occasionally useful in analyses.
    """
    validate_placement_inputs(
        replication, capacity_replicas, bit_rate_mbps=bit_rate_mbps
    )
    num_servers = replication.num_servers

    if sort_by_weight:
        stream = sorted_replica_stream(replication)
    else:
        counts = replication.replica_counts
        stream = np.repeat(np.arange(replication.num_videos), counts)

    servers = np.arange(stream.size) % num_servers
    matrix = np.zeros((replication.num_videos, num_servers), dtype=np.float64)
    matrix[stream, servers] = bit_rate_mbps
    # The cyclic deal guarantees Eq. 6 because each group spans consecutive
    # positions and r_i <= N; assert cheaply to catch representation bugs.
    placed = (matrix > 0).sum()
    if placed != stream.size:  # pragma: no cover - structural
        raise PlacementError(
            f"round-robin merged replicas: placed {placed} of {stream.size}"
        )
    return ReplicaLayout(rate_matrix=matrix)


class RoundRobinPlacer(Placer):
    """Object-style wrapper around :func:`round_robin_placement`."""

    name = "rr"

    def __init__(self, *, sort_by_weight: bool = False) -> None:
        self._sort_by_weight = bool(sort_by_weight)

    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        return round_robin_placement(
            replication,
            capacity_replicas,
            bit_rate_mbps=bit_rate_mbps,
            sort_by_weight=self._sort_by_weight,
        )
