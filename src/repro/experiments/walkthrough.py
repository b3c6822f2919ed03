"""Worked reproductions of the paper's illustrative Figures 1-3.

These are not measurements but algorithm walkthroughs; each function
returns the exact step sequence the corresponding figure draws, and the
``algorithm_walkthrough.py`` example renders them.

* Figure 1 — bounded Adams replication of 5 videos on 3 servers (C = 3).
* Figure 2 — Zipf-interval replication scenario: 7 videos, 4 servers.
* Figure 3 — smallest-load-first placement on 4 servers, showing the
  conflict step (a server skipped because it already holds the video).
"""

from __future__ import annotations

import numpy as np

from ..popularity import zipf_probabilities
from ..replication import adams_replication, zipf_interval_replication
from ..replication.base import ReplicationResult
from ..replication.zipf_interval import interval_boundaries

__all__ = ["figure1_trace", "figure2_scenario", "figure3_trace"]


def figure1_trace(
    popularity: np.ndarray | None = None,
    num_servers: int = 3,
    capacity: int = 3,
) -> dict:
    """Replay the Figure 1 Adams replication walkthrough.

    Returns the per-iteration trace plus the final counts; the default
    instance matches the figure's shape (5 videos, 3 servers, C = 3, so 15
    - 5 = 4 duplications... the figure's storage is 9 replicas total, i.e.
    4 duplications after the initial assignment).
    """
    if popularity is None:
        popularity = np.array([0.40, 0.25, 0.15, 0.12, 0.08])
    budget = num_servers * capacity
    result = adams_replication(popularity, num_servers, budget, record_trace=True)
    return {
        "popularity": np.asarray(popularity, dtype=float),
        "num_servers": num_servers,
        "budget": budget,
        "trace": result.info["trace"],
        "final_counts": result.replica_counts,
        "final_weights": result.weights(),
    }


def figure2_scenario(
    num_videos: int = 7,
    num_servers: int = 4,
    theta: float = 0.5,
    budget: int | None = None,
) -> dict:
    """Replay the Figure 2 Zipf-interval replication scenario.

    Shows the tuned skew ``u``, the interval boundaries ``z_k`` and the
    per-video interval index / replica count.
    """
    probs = zipf_probabilities(num_videos, theta)
    if budget is None:
        budget = int(2.0 * num_videos)  # the figure's storage: degree ~2
    result = zipf_interval_replication(probs, num_servers, budget)
    u = result.info["u"]
    boundaries = interval_boundaries(
        float(probs.max()), float(probs.min()), num_servers, u
    )
    return {
        "popularity": probs,
        "num_servers": num_servers,
        "budget": budget,
        "u": u,
        "boundaries": boundaries,
        "replica_counts": result.replica_counts,
        "total": result.total_replicas,
    }


def figure3_trace(replication: ReplicationResult | None = None, capacity: int = 2) -> dict:
    """Replay the Figure 3 smallest-load-first placement step by step.

    Mirrors :func:`repro.placement.slf.smallest_load_first_placement` while
    recording, for every replica, the candidate servers, the chosen server
    and whether the smallest-load server had to be skipped because it
    already held the video (the figure's highlighted conflict).
    """
    if replication is None:
        probs = zipf_probabilities(8, 0.75)
        replication = adams_replication(probs, 4, 11)  # mixed counts
        capacity = max(capacity, 3)  # 11 replicas need ceil(11/4) per server
    from ..placement.base import sorted_replica_stream, validate_placement_inputs

    validate_placement_inputs(replication, capacity, bit_rate_mbps=4.0)
    num_servers = replication.num_servers
    stream = sorted_replica_stream(replication)
    weights = replication.weights()

    loads = np.zeros(num_servers)
    storage_left = np.full(num_servers, capacity, dtype=np.int64)
    holds = np.zeros((replication.num_videos, num_servers), dtype=bool)

    steps: list[dict] = []
    position = 0
    while position < stream.size:
        batch = stream[position : position + num_servers]
        position += batch.size
        used = np.zeros(num_servers, dtype=bool)
        for video in batch:
            video = int(video)
            feasible = ~used & ~holds[video] & (storage_left > 0)
            if not feasible.any():
                feasible = ~holds[video] & (storage_left > 0)
            if not feasible.any():
                raise RuntimeError(f"no feasible server for video {video}")
            masked = np.where(feasible, loads, np.inf)
            server = int(np.argmin(masked))
            smallest_overall = int(np.argmin(np.where(storage_left > 0, loads, np.inf)))
            steps.append(
                {
                    "video": video,
                    "weight": float(weights[video]),
                    "chosen_server": server,
                    "smallest_load_server": smallest_overall,
                    "conflict": server != smallest_overall,
                    "loads_before": loads.copy(),
                }
            )
            holds[video, server] = True
            used[server] = True
            storage_left[server] -= 1
            loads[server] += weights[video]

    return {
        "replication": replication,
        "steps": steps,
        "final_loads": loads,
        "imbalance": float(np.abs(loads - loads.mean()).max()),
        "bound": replication.weight_spread(),
    }
