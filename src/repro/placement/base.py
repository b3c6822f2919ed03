"""Shared interface and input validation for placement algorithms."""

from __future__ import annotations

import abc

import numpy as np

from .._validation import check_int_in_range, check_positive
from ..model.layout import ReplicaLayout
from ..replication.base import ReplicationResult

__all__ = ["PlacementError", "Placer", "validate_placement_inputs"]


class PlacementError(RuntimeError):
    """Raised when a placer cannot produce a feasible layout."""


def validate_placement_inputs(
    replication: ReplicationResult,
    capacity_replicas: int,
    *,
    bit_rate_mbps: float,
) -> None:
    """Check that a feasible placement exists for the replica counts.

    A layout exists iff every ``r_i <= N`` (guaranteed by
    :class:`ReplicationResult`) and the total replica count does not exceed
    the cluster storage ``N * C`` — the round-robin construction then always
    succeeds (see :mod:`repro.placement.round_robin`).  The bit rate stamped
    on every replica must be positive: a zero rate would place nothing.
    """
    check_positive("bit_rate_mbps", bit_rate_mbps)
    check_int_in_range("capacity_replicas", capacity_replicas, 1)
    total = replication.total_replicas
    available = replication.num_servers * capacity_replicas
    if total > available:
        raise PlacementError(
            f"{total} replicas exceed cluster storage of {available} "
            f"({replication.num_servers} servers x {capacity_replicas} replicas)"
        )


def sorted_replica_stream(replication: ReplicationResult) -> np.ndarray:
    """Video index of each replica, ordered by non-increasing weight.

    This realizes steps 1-2 of Algorithm 1: replicas of one video form a
    group with a common weight ``w_i = p_i / r_i``, and the groups are
    sorted non-increasingly.  Ties break toward the lower video index for
    determinism.
    """
    weights = replication.weights()
    order = np.argsort(-weights, kind="stable")
    return np.repeat(order, replication.replica_counts[order])


class Placer(abc.ABC):
    """Interface of a placement algorithm.

    ``place`` returns a fixed-rate :class:`ReplicaLayout`; the bit rate is a
    pure labelling concern (the placement itself happens in weight space).
    """

    #: Short machine-friendly name used in experiment tables.
    name: str = "placer"

    @abc.abstractmethod
    def place(
        self,
        replication: ReplicationResult,
        capacity_replicas: int,
        *,
        bit_rate_mbps: float = 4.0,
    ) -> ReplicaLayout:
        """Map every replica to a server and return the resulting layout."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
