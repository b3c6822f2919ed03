"""Layout migration: re-plan with minimal replica movement.

Re-running a replication algorithm from scratch each epoch would produce a
layout unrelated to the current one — and "the overhead of video placement
is huge" (Sec. 1), since every *added* replica copies gigabytes across the
backbone.  :func:`plan_migration` therefore reconciles the current layout
with new target replica counts:

1. videos whose count shrinks drop replicas from their most-loaded servers
   (deletes are free);
2. videos whose count grows add replicas on the least-loaded feasible
   servers (each addition is a data copy);
3. a swap repair handles the rare case where every storage-free server
   already holds the video (one extra move).

The result carries the add/remove lists and the number of copied replicas
so experiments can weigh availability gains against migration traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_int_in_range
from ..model.layout import ReplicaLayout
from ..model.objective import communication_weights
from ..replication.base import ReplicationResult

__all__ = ["MigrationPlan", "plan_migration", "plan_rereplication"]


def plan_rereplication(
    lost_videos,
    durations_min,
    rates_mbps,
    *,
    migration_mbps: float,
) -> list[tuple[int, float]]:
    """Schedule re-copies of the replicas a recovered server lost.

    Copies are serialized over one ``migration_mbps`` repair link in
    ascending video-id order (deterministic, so every simulator loop
    derives the identical schedule).  A video of ``duration_min`` minutes
    streamed at ``rate_mbps`` occupies ``duration_min * 60 * rate_mbps``
    megabits, so its copy takes ``duration_min * rate_mbps /
    migration_mbps`` minutes — the 60s cancel.

    Returns ``(video, completion_offset_min)`` pairs: offsets are
    cumulative, measured from the recovery instant.
    """
    if not migration_mbps > 0:
        raise ValueError(f"migration_mbps must be > 0, got {migration_mbps}")
    plan: list[tuple[int, float]] = []
    elapsed = 0.0
    for video in sorted(int(v) for v in lost_videos):
        rate = float(rates_mbps[video])
        if rate <= 0.0:
            raise ValueError(f"video {video} has no positive rate to re-copy")
        elapsed += float(durations_min[video]) * rate / migration_mbps
        plan.append((video, elapsed))
    return plan


@dataclass(frozen=True)
class MigrationPlan:
    """Outcome of a layout reconciliation.

    ``added`` entries are data copies (expensive); ``removed`` entries are
    deletes (free).  ``replicas_copied`` counts the adds, including any
    repair-induced relocations.
    """

    new_layout: ReplicaLayout
    added: tuple[tuple[int, int], ...]
    removed: tuple[tuple[int, int], ...]
    replicas_copied: int

    def bytes_moved_gb(self, replica_storage_gb: float) -> float:
        """Migration traffic for fixed-size replicas."""
        if replica_storage_gb <= 0:
            raise ValueError("replica_storage_gb must be > 0")
        return self.replicas_copied * replica_storage_gb

    @property
    def is_noop(self) -> bool:
        return not self.added and not self.removed


def plan_migration(
    current: ReplicaLayout,
    target: ReplicationResult,
    capacity_replicas: int,
    *,
    bit_rate_mbps: float = 4.0,
) -> MigrationPlan:
    """Reconcile *current* into a layout realizing *target*'s counts."""
    check_int_in_range("capacity_replicas", capacity_replicas, 1)
    num_videos, num_servers = current.num_videos, current.num_servers
    if target.num_videos != num_videos or target.num_servers != num_servers:
        raise ValueError("current layout and target replication disagree on M/N")
    if target.total_replicas > num_servers * capacity_replicas:
        raise ValueError("target replication exceeds cluster storage")

    holds = current.presence.copy()
    new_counts = np.asarray(target.replica_counts)
    weights = communication_weights(target.popularity, new_counts)
    # Server load under the *new* weights, over currently-kept replicas.
    loads = (holds * weights[:, None]).sum(axis=0)
    storage_used = holds.sum(axis=0).astype(np.int64)

    removed: list[tuple[int, int]] = []
    added: list[tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Phase 1: shrinking videos drop replicas from the heaviest servers.
    # ------------------------------------------------------------------
    deltas = new_counts - holds.sum(axis=1)
    for video in np.flatnonzero(deltas < 0):
        video = int(video)
        for _ in range(-int(deltas[video])):
            holders = np.flatnonzero(holds[video])
            server = int(holders[np.argmax(loads[holders])])
            holds[video, server] = False
            loads[server] -= weights[video]
            storage_used[server] -= 1
            removed.append((video, server))

    # ------------------------------------------------------------------
    # Phase 2: growing videos add replicas on the lightest feasible server
    # (heaviest-weight videos first, mirroring smallest-load-first).
    # ------------------------------------------------------------------
    growing = np.flatnonzero(deltas > 0)
    order = growing[np.argsort(-weights[growing], kind="stable")]
    pending: list[int] = []
    for video in order:
        pending.extend([int(video)] * int(deltas[video]))

    for video in pending:
        feasible = ~holds[video] & (storage_used < capacity_replicas)
        if not feasible.any():
            server = _swap_repair(
                holds, loads, storage_used, weights, video,
                capacity_replicas, added,
            )
        else:
            masked = np.where(feasible, loads, np.inf)
            server = int(np.argmin(masked))
        holds[video, server] = True
        loads[server] += weights[video]
        storage_used[server] += 1
        added.append((video, server))

    layout = ReplicaLayout(rate_matrix=np.where(holds, bit_rate_mbps, 0.0))
    return MigrationPlan(
        new_layout=layout,
        added=tuple(added),
        removed=tuple(removed),
        replicas_copied=len(added),
    )


def _swap_repair(
    holds: np.ndarray,
    loads: np.ndarray,
    storage_used: np.ndarray,
    weights: np.ndarray,
    video: int,
    capacity: int,
    added: list[tuple[int, int]],
) -> int:
    """Free a slot for *video* by relocating another video's replica.

    Finds a server not holding *video* (but full) and a replica on it that
    can legally move to some other server with space; performs that move
    (counted as one extra copy) and returns the freed server.
    """
    not_holding = np.flatnonzero(~holds[video])
    for server in not_holding[np.argsort(loads[not_holding])]:
        server = int(server)
        # Move the lightest-weight occupant that fits elsewhere.
        occupants = np.flatnonzero(holds[:, server])
        for other in occupants[np.argsort(weights[occupants])]:
            other = int(other)
            destinations = ~holds[other] & (storage_used < capacity)
            destinations[server] = False
            if destinations.any():
                dest = int(np.argmin(np.where(destinations, loads, np.inf)))
                holds[other, server] = False
                holds[other, dest] = True
                loads[server] -= weights[other]
                loads[dest] += weights[other]
                storage_used[server] -= 1
                storage_used[dest] += 1
                added.append((other, dest))
                return server
    raise RuntimeError(
        f"cannot place a replica of video {video}: no swap frees a feasible slot"
    )
