"""Round-free greedy least-loaded placement (extension).

Drops Algorithm 1's one-replica-per-server-per-round rule and simply sends
every replica (heaviest first) to the least-loaded feasible server.  Storage
balance is no longer structural, so the storage constraint is enforced
directly.  This variant generalizes naturally to heterogeneous clusters:
loads can be normalized by per-server bandwidth shares so a twice-as-fat
server absorbs twice the weight.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array, check_positive
from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult
from .base import PlacementError, Placer, sorted_replica_stream, validate_placement_inputs

__all__ = ["greedy_least_loaded_placement", "GreedyLeastLoadedPlacer"]


def greedy_least_loaded_placement(
    replication: ReplicationResult,
    capacity_replicas: int | np.ndarray,
    *,
    bit_rate_mbps: float = 4.0,
    server_shares: np.ndarray | None = None,
) -> ReplicaLayout:
    """Place each replica on the least (relative) loaded feasible server.

    Parameters
    ----------
    capacity_replicas:
        Either a scalar ``C`` (homogeneous storage) or a per-server array.
    server_shares:
        Optional positive per-server capacity shares; the greedy compares
        ``load_k / share_k`` so bigger servers attract more weight.  Default
        is equal shares (the homogeneous case).
    """
    num_servers = replication.num_servers
    if np.isscalar(capacity_replicas):
        validate_placement_inputs(
            replication, int(capacity_replicas), bit_rate_mbps=bit_rate_mbps
        )
        storage_left = np.full(num_servers, int(capacity_replicas), dtype=np.int64)
    else:
        check_positive("bit_rate_mbps", bit_rate_mbps)
        storage_left = np.asarray(capacity_replicas, dtype=np.int64).copy()
        if storage_left.shape != (num_servers,):
            raise ValueError(
                f"capacity_replicas must be scalar or shape ({num_servers},)"
            )
        if replication.total_replicas > int(storage_left.sum()):
            raise PlacementError("replicas exceed total cluster storage")

    if server_shares is None:
        shares = np.ones(num_servers, dtype=np.float64)
    else:
        shares = as_float_array("server_shares", server_shares)
        if shares.shape != (num_servers,) or np.any(shares <= 0):
            raise ValueError("server_shares must be positive, one per server")

    stream = sorted_replica_stream(replication)
    weights = replication.weights()
    loads = np.zeros(num_servers, dtype=np.float64)
    holds = np.zeros((replication.num_videos, num_servers), dtype=bool)

    for video in stream:
        video = int(video)
        feasible = ~holds[video] & (storage_left > 0)
        if not feasible.any():
            raise PlacementError(
                f"no feasible server for a replica of video {video}"
            )
        relative = np.where(feasible, loads / shares, np.inf)
        server = int(np.argmin(relative))
        holds[video, server] = True
        storage_left[server] -= 1
        loads[server] += weights[video]

    return ReplicaLayout(rate_matrix=np.where(holds, bit_rate_mbps, 0.0))


class GreedyLeastLoadedPlacer(Placer):
    """Object-style wrapper around :func:`greedy_least_loaded_placement`."""

    name = "greedy"

    def __init__(self, *, server_shares: np.ndarray | None = None) -> None:
        self._server_shares = server_shares

    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        return greedy_least_loaded_placement(
            replication,
            capacity_replicas,
            bit_rate_mbps=bit_rate_mbps,
            server_shares=self._server_shares,
        )
