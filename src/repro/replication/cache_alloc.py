"""Cache-scale replication baselines from the distributed-caches literature.

Two competitors to the paper's smoothed-proportional (Zipf-interval)
scheme, both from the large-cache line of work surveyed in PAPERS.md:

* :class:`CacheProportionalReplicator` — the proportional-to-popularity
  cache allocation: the continuous allocation ``t_i = s * p_i`` clipped
  into the Eq. (7) box ``[1, N]``, with the scale ``s`` water-filled so
  the budget is met exactly, then rounded by largest remainder.  This is
  the fluid-limit optimum of the large-cache model (serve-rate matches
  demand exactly when capacity does), and the policy Tan & Massoulié
  prove asymptotically optimal for P2P VoD.
* :class:`LargeCacheReplicator` — the *stochastic* refinement of Moharir
  & Karamchandani's large-cache allocation: at finite cache sizes the
  proportional policy over-replicates the head (big service pools enjoy
  economies of scale) and starves the tail, so the optimal allocation
  solves a separable convex knapsack instead.  We instantiate their
  knapsack with this repo's Erlang service model — video ``i``'s ``r_i``
  replicas form a loss group of ``r_i * s`` stream slots offered
  ``a_i = A p_i`` Erlangs — and minimize the aggregate blocked fraction
  ``sum_i p_i B(a_i, r_i s)`` exactly by greedy marginal allocation
  (Fox's algorithm; optimal because Erlang-B is convex decreasing in the
  slot count).  The solution lands on square-root safety staffing:
  sub-proportional for the head, super-proportional for the tail.

Both allocations deviate from the unconstrained cache literature in one
deliberate way: Eq. (7)'s floor keeps ``r_i >= 1`` (every video stays on
the cluster), where pure cache models may evict cold content entirely.
See DESIGN.md for the model comparison against Eq. (1).
"""

from __future__ import annotations

import heapq

import numpy as np

from .base import ReplicationResult, Replicator, validate_replication_inputs

__all__ = [
    "box_waterfill_targets",
    "round_targets",
    "cache_proportional_replication",
    "CacheProportionalReplicator",
    "large_cache_replication",
    "LargeCacheReplicator",
]

#: 1/B cap: beyond this the blocking (and any marginal gain) is zero in
#: float64, and the inverse-Erlang recurrence would overflow.
_INV_B_CAP = 1e300


def box_waterfill_targets(
    weights: np.ndarray, num_servers: int, budget: int
) -> np.ndarray:
    """Continuous targets ``t_i = clip(s * w_i, 1, N)`` with ``sum t = budget``.

    The scale ``s`` is found by bisection — ``sum_i clip(s w_i, 1, N)`` is
    continuous and non-decreasing in ``s``, running from ``M`` (everything
    at the floor) to ``N * M`` (everything at the cap) — so the returned
    targets meet the budget to floating-point precision whenever
    ``M <= budget <= N * M``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    num_videos = weights.size
    budget = float(min(budget, num_servers * num_videos))
    if budget <= num_videos:
        return np.ones(num_videos)
    positive = weights[weights > 0]
    if positive.size == 0:
        return np.ones(num_videos)
    lo, hi = 0.0, num_servers / float(positive.min())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # adjacent doubles: no later step can move the bracket
        total = float(np.clip(mid * weights, 1.0, num_servers).sum())
        if total < budget:
            lo = mid
        else:
            hi = mid
    return np.clip(hi * weights, 1.0, num_servers)


def round_targets(
    targets: np.ndarray, num_servers: int, budget: int
) -> np.ndarray:
    """Largest-remainder rounding of box-constrained continuous targets.

    ``floor(t_i)`` never overshoots the budget (``t_i >= 1`` and
    ``sum t <= budget``); the remaining replicas go to the largest
    fractional remainders that are still below the ``N`` cap.
    """
    counts = np.floor(targets).astype(np.int64)
    counts = np.clip(counts, 1, num_servers)
    remaining = budget - int(counts.sum())
    if remaining > 0:
        remainders = targets - np.floor(targets)
        order = np.argsort(
            -(np.where(counts < num_servers, remainders, -np.inf)),
            kind="stable",
        )
        idx = 0
        num_videos = counts.size
        while remaining > 0:
            video = int(order[idx % num_videos])
            if counts[video] < num_servers:
                counts[video] += 1
                remaining -= 1
            idx += 1
            if idx > 2 * num_videos * num_servers:  # pragma: no cover - guard
                raise RuntimeError("target rounding failed to converge")
    return counts


def cache_proportional_replication(
    popularity: np.ndarray, num_servers: int, budget: int
) -> ReplicationResult:
    """Water-filled proportional-to-popularity cache allocation.

    Unlike :func:`repro.replication.proportional.proportional_replication`
    (Hamilton apportionment of the *unclipped* quotas), the continuous
    allocation here is re-scaled until the budget is met *after* the
    ``[1, N]`` clipping, so replicas shaved off the capped head are
    redistributed proportionally over the rest instead of by raw
    remainder order.
    """
    probs = validate_replication_inputs(popularity, num_servers, budget)
    budget = min(budget, num_servers * probs.size)
    targets = box_waterfill_targets(probs, num_servers, budget)
    counts = round_targets(targets, num_servers, budget)
    return ReplicationResult(
        replica_counts=counts,
        num_servers=num_servers,
        popularity=probs,
        info={"algorithm": "cache_proportional"},
    )


class CacheProportionalReplicator(Replicator):
    """Object-style wrapper around :func:`cache_proportional_replication`."""

    name = "cache_proportional"

    def replicate(
        self, popularity: np.ndarray, num_servers: int, budget: int
    ) -> ReplicationResult:
        return cache_proportional_replication(popularity, num_servers, budget)


def large_cache_replication(
    popularity: np.ndarray,
    num_servers: int,
    budget: int,
    *,
    slots_per_replica: int = 15,
    load_factor: float = 0.9,
) -> ReplicationResult:
    """Optimal large-cache allocation by greedy marginal allocation.

    Minimizes the expected blocked fraction ``sum_i p_i B(a_i, r_i s)``
    over ``1 <= r_i <= N``, ``sum r_i = budget``, where ``s`` is the
    stream-slot capacity a single replica contributes
    (``slots_per_replica``; the paper's configuration has ~450 slots
    spread over ~30 replicas per server, i.e. ~15) and the offered loads
    put the system at ``load_factor`` of its designed capacity:
    ``A = load_factor * budget * s`` total Erlangs, split ``a_i = A p_i``.

    Greedy marginal allocation (assign each spare replica to the video
    with the largest blocking decrease) is *exactly* optimal here because
    the objective is separable and Erlang-B is convex decreasing in the
    slot count, so the per-video marginal gains are themselves
    decreasing.
    """
    probs = validate_replication_inputs(popularity, num_servers, budget)
    if slots_per_replica < 1:
        raise ValueError(
            f"slots_per_replica must be >= 1, got {slots_per_replica}"
        )
    if load_factor <= 0:
        raise ValueError(f"load_factor must be > 0, got {load_factor}")
    num_videos = probs.size
    budget = min(budget, num_servers * num_videos)
    step = int(slots_per_replica)
    offered_total = load_factor * budget * step
    # Floor tiny offered loads: a zero-popularity video never blocks and
    # must never attract replicas beyond its Eq. (7) floor of one.
    offered = np.maximum(offered_total * probs, 1e-12)

    # Vectorized inverse-B ladders at r=1 and r=2 for every video.
    inv_cur = np.ones(num_videos)
    for c in range(1, step + 1):
        inv_cur = np.minimum(1.0 + (c / offered) * inv_cur, _INV_B_CAP)
    inv_next = inv_cur.copy()
    for c in range(step + 1, 2 * step + 1):
        inv_next = np.minimum(1.0 + (c / offered) * inv_next, _INV_B_CAP)

    remaining = budget - num_videos
    gains = probs * (1.0 / inv_cur - 1.0 / inv_next)
    heap = list(zip((-gains).tolist(), range(num_videos))) if num_servers > 1 else []
    heapq.heapify(heap)
    # The greedy loop runs on plain Python lists: one pop touches one
    # video, so per-element numpy indexing would only add overhead.
    counts_list = [1] * num_videos
    offered_list = offered.tolist()
    inv_next_list = inv_next.tolist()
    probs_list = probs.tolist()
    while remaining > 0 and heap:
        _, video = heapq.heappop(heap)
        count = counts_list[video] + 1
        counts_list[video] = count
        remaining -= 1
        if count >= num_servers:
            continue
        # Advance 1/B(a, c) by one replica's slots with the inverse
        # Erlang-B recurrence I_c = 1 + (c / a) I_{c-1}, capped so
        # deep-tail videos cannot overflow float64.
        a_i = offered_list[video]
        cur = inv_next_list[video]
        nxt = cur
        for c in range(count * step + 1, (count + 1) * step + 1):
            nxt = 1.0 + (c / a_i) * nxt
            if nxt > _INV_B_CAP:
                nxt = _INV_B_CAP
                break
        inv_next_list[video] = nxt
        gain = probs_list[video] * (1.0 / cur - 1.0 / nxt)
        heapq.heappush(heap, (-gain, video))
    counts = np.array(counts_list, dtype=np.int64)
    # Recompute the final per-video blocking so the reported objective is
    # exact at the final counts.  Videos sorted by slot count, descending,
    # make the ladder an active prefix: at step ``c`` only the videos with
    # at least ``c`` slots advance, each by the same capped recurrence as
    # the full-width form, so the work is ``sum(slots)`` element steps
    # rather than ``max(slots) * M``.
    order = np.argsort(-counts, kind="stable")
    sorted_counts = counts[order]
    sorted_offered = offered[order]
    inv_sorted = np.ones(num_videos)
    for level in range(1, int(sorted_counts[0]) + 1):
        # Videos with at least ``level`` replicas: a prefix of the order.
        active = int(np.count_nonzero(sorted_counts >= level))
        offered_active = sorted_offered[:active]
        inv_active = inv_sorted[:active]
        for c in range((level - 1) * step + 1, level * step + 1):
            np.minimum(
                1.0 + (c / offered_active) * inv_active, _INV_B_CAP, out=inv_active
            )
    inv_final = np.empty(num_videos)
    inv_final[order] = inv_sorted
    blocked = float(probs @ (1.0 / inv_final))
    return ReplicationResult(
        replica_counts=counts,
        num_servers=num_servers,
        popularity=probs,
        info={
            "algorithm": "large_cache",
            "slots_per_replica": step,
            "load_factor": float(load_factor),
            "offered_erlangs": float(offered_total),
            "predicted_blocked_fraction": blocked,
        },
    )


class LargeCacheReplicator(Replicator):
    """Object-style wrapper around :func:`large_cache_replication`."""

    name = "large_cache"

    def __init__(
        self, *, slots_per_replica: int = 15, load_factor: float = 0.9
    ) -> None:
        self._slots_per_replica = int(slots_per_replica)
        self._load_factor = float(load_factor)

    def replicate(
        self, popularity: np.ndarray, num_servers: int, budget: int
    ) -> ReplicationResult:
        return large_cache_replication(
            popularity,
            num_servers,
            budget,
            slots_per_replica=self._slots_per_replica,
            load_factor=self._load_factor,
        )
