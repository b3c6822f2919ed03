"""Zipf-like-distribution-based replication (Sec. 4.1.2).

The time-efficient approximation of the optimal (Adams) replication.  The
popularity *range* ``[p_M, p_1]`` is partitioned into ``N`` intervals whose
widths follow a Zipf-like law with tunable skew ``u`` (the paper's function
``generate(u)``): interval ``k`` (counting from the most-popular end) has
width proportional to ``k ** -u``.  Every video whose popularity falls in
interval ``k`` is assigned ``r = N + 1 - k`` replicas (function
``assignment(u, r)``), so the hottest interval maps to ``N`` replicas and the
coldest to one.

Lemma 4.1: the total number of replicas produced is non-decreasing in ``u``
(increasing ``u`` widens the high-replica intervals).  A binary search over
``u`` therefore finds the assignment that best fills the replica budget
``N * C``; the paper bounds the search and shows overall complexity
``O(M log M)``, versus ``O(M + N*C log M)`` for the Adams method — the win
being that the cost does not grow with the storage capacity.  The
popularities are sorted once (``O(M log M)``); each search step then counts
its total from the ``N - 1`` interior boundaries alone, in ``O(N log M)``,
and per-video counts are built only for the chosen ``u``.

The bisection stops as soon as the best fitting total equals the budget.
It moves the chosen ``u`` only on a *strictly* larger total that still
fits, and no fitting total exceeds the budget, so from then on no step can
move ``u`` or the counts; the remaining steps would only narrow the
bracket.  ``info`` then reports fewer iterations and evaluations than a
search run down to ``tol``, with the same ``u``, counts and utilization.

Degenerate cases handled explicitly:

* **Uniform popularity** (``p_1 == p_M``): the interval construction is
  undefined; the paper notes a simple round-robin replication is optimal
  here, so we delegate to :func:`repro.replication.uniform.round_robin_replication`.
* **Budget below the algorithm's floor**: even at ``u -> -inf`` the top
  video sits in interval 1, so the minimum total is about ``M + N - 1``.
  When the budget is smaller, the result is repaired by trimming replicas
  from the videos whose weight grows least.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._validation import check_int_in_range
from .base import ReplicationResult, Replicator, validate_replication_inputs

__all__ = [
    "interval_boundaries",
    "interval_replica_counts",
    "zipf_interval_replication",
    "ZipfIntervalReplicator",
]

#: Widest skew bracket explored before declaring the budget unreachable by
#: pure interval tuning (the assignment saturates far before |u| = 64).
_MAX_ABS_U = 64.0


def interval_boundaries(
    p_max: float, p_min: float, num_servers: int, u: float
) -> np.ndarray:
    """Boundaries ``z_0 > z_1 > ... > z_N`` of the ``generate(u)`` partition.

    ``z_0 = p_max`` and ``z_N = p_min``; interval ``k`` is ``[z_k, z_{k-1})``
    with width proportional to the Zipf weight ``k ** -u``.
    """
    check_int_in_range("num_servers", num_servers, 1)
    if not p_max >= p_min:
        raise ValueError(f"p_max ({p_max}) must be >= p_min ({p_min})")
    ranks = np.arange(1, num_servers + 1, dtype=np.float64)
    # Normalize in log space to keep extreme |u| finite.
    log_w = -u * np.log(ranks)
    log_w -= log_w.max()
    weights = np.exp(log_w)
    weights /= weights.sum()
    cumulative = np.concatenate(([0.0], np.cumsum(weights)))
    cumulative[-1] = 1.0  # guard against round-off
    return p_max - (p_max - p_min) * cumulative


def interval_replica_counts(
    popularity: np.ndarray, num_servers: int, u: float
) -> np.ndarray:
    """Replica counts for skew *u*: video in interval ``k`` gets ``N+1-k``."""
    probs = np.asarray(popularity, dtype=np.float64)
    boundaries = interval_boundaries(
        float(probs.max()), float(probs.min()), num_servers, u
    )
    # interval index k = 1 + #{ interior boundaries z_1..z_{N-1} > p }.
    interior = boundaries[1:num_servers]  # descending
    # searchsorted needs ascending input; negate both sides.
    above = np.searchsorted(-interior, -probs, side="left")
    return (num_servers - above).astype(np.int64)


def _interval_total(ascending: np.ndarray, num_servers: int, u: float) -> int:
    """``interval_replica_counts(p, N, u).sum()`` from ``p`` sorted ascending.

    Summing ``N - #{interior z > p_i}`` over the videos equals ``N * M``
    minus, per interior boundary ``z``, the number of videos below it, so
    the total needs ``N - 1`` binary searches and no per-video counts.
    """
    boundaries = interval_boundaries(
        float(ascending[-1]), float(ascending[0]), num_servers, u
    )
    below = np.searchsorted(ascending, boundaries[1:num_servers], side="left")
    return num_servers * ascending.size - int(below.sum())


def _trim_to_budget(
    probs: np.ndarray, counts: np.ndarray, budget: int
) -> tuple[np.ndarray, int]:
    """Remove replicas until the budget holds, hurting max-weight least.

    Each step removes one replica from the video whose post-removal weight
    ``p_i / (r_i - 1)`` is smallest.  Returns the counts and the number of
    replicas trimmed.
    """
    counts = counts.copy()
    excess = int(counts.sum()) - budget
    if excess <= 0:
        return counts, 0
    # Lazy-free min-heap: one live entry per trimmable video.  A removal
    # only changes that video's own weight, so each step is one pop plus at
    # most one push — O(excess * log M) against the old full-array argmin
    # scan's O(excess * M).  Entries are (weight, video); on ties the heap
    # yields the lowest video index, matching np.argmin's first-minimum
    # tie-break, so the output is bit-identical to the scan.
    heap = [
        (probs[video] / (counts[video] - 1), video)
        for video in range(counts.size)
        if counts[video] > 1
    ]
    heapq.heapify(heap)
    trimmed = 0
    while excess > 0:
        if not heap:
            raise RuntimeError("cannot trim below one replica per video")
        _, video = heapq.heappop(heap)
        counts[video] -= 1
        trimmed += 1
        excess -= 1
        if counts[video] > 1:
            heapq.heappush(heap, (probs[video] / (counts[video] - 1), video))
    return counts, trimmed


def _check_search(tol: float, max_iterations: int) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    check_int_in_range("max_iterations", max_iterations, 1)


def zipf_interval_replication(
    popularity: np.ndarray,
    num_servers: int,
    budget: int,
    *,
    tol: float = 1e-8,
    max_iterations: int = 120,
) -> ReplicationResult:
    """Binary-search the interval skew ``u`` to fill the replica budget.

    Returns the assignment with the largest total number of replicas that
    does not exceed *budget* over the explored bracket (Lemma 4.1 makes the
    search sound).  ``info`` records the tuned ``u``, the evaluation count
    and how much of the budget was used.  The bisection ends once the
    budget is filled exactly (see the module docstring).
    """
    _check_search(tol, max_iterations)
    probs = validate_replication_inputs(popularity, num_servers, budget)
    num_videos = probs.size
    budget = min(budget, num_servers * num_videos)

    if float(probs.max()) == float(probs.min()):
        # Uniform popularity: round-robin replication is optimal (Sec. 4.1).
        from .uniform import round_robin_replication

        result = round_robin_replication(probs, num_servers, budget)
        result.info.update({"algorithm": "zipf_interval", "degenerate": "uniform"})
        return result

    evaluations = 0
    ascending = np.sort(probs)

    def total_at(u: float) -> int:
        nonlocal evaluations
        evaluations += 1
        return _interval_total(ascending, num_servers, u)

    # --- bracket [lo, hi] with total(lo) <= budget < total(hi) -----------
    lo, hi = -1.0, 1.0
    total_lo = total_at(lo)
    while total_lo > budget and lo > -_MAX_ABS_U:
        lo *= 2.0
        total_lo = total_at(lo)
    total_hi = total_at(hi)
    while total_hi <= budget and hi < _MAX_ABS_U:
        # hi still fits: remember it as the best-so-far lower bracket.
        lo, total_lo = hi, total_hi
        hi *= 2.0
        total_hi = total_at(hi)

    trimmed = 0
    iterations = 0
    if total_lo > budget:
        # Budget below the algorithm's floor (~ M + N - 1): repair by trim.
        best_u = lo
        best_counts, trimmed = _trim_to_budget(
            probs, interval_replica_counts(probs, num_servers, lo), budget
        )
        best_total = int(best_counts.sum())
    else:
        if total_hi <= budget:
            # Even the widest skew fits: take it (typically full replication).
            best_u, best_total = hi, total_hi
        else:
            # --- binary search --------------------------------------------
            best_u, best_total = lo, total_lo
            while (
                best_total < budget
                and hi - lo > tol
                and iterations < max_iterations
            ):
                mid = 0.5 * (lo + hi)
                total_mid = total_at(mid)
                if total_mid <= budget:
                    lo = mid
                    if total_mid > best_total:
                        best_u, best_total = mid, total_mid
                else:
                    hi = mid
                iterations += 1
        best_counts = interval_replica_counts(probs, num_servers, best_u)

    return ReplicationResult(
        replica_counts=best_counts,
        num_servers=num_servers,
        popularity=probs,
        info={
            "algorithm": "zipf_interval",
            "u": best_u,
            "iterations": iterations,
            "evaluations": evaluations,
            "trimmed": trimmed,
            "budget": budget,
            "budget_utilization": best_total / budget,
        },
    )


class ZipfIntervalReplicator(Replicator):
    """Object-style wrapper around :func:`zipf_interval_replication`."""

    name = "zipf"

    def __init__(self, *, tol: float = 1e-8, max_iterations: int = 120) -> None:
        _check_search(tol, max_iterations)
        self._tol = float(tol)
        self._max_iterations = int(max_iterations)

    def replicate(
        self, popularity: np.ndarray, num_servers: int, budget: int
    ) -> ReplicationResult:
        return zipf_interval_replication(
            popularity,
            num_servers,
            budget,
            tol=self._tol,
            max_iterations=self._max_iterations,
        )
