"""Analytical Erlang fixed-point surrogate for layout rejection rates.

The paper's Sec. 5.3 observation — rejections are driven by the dynamic
load imbalance the ``w_i = p_i / r_i`` dispatch weights leave behind — is
exactly what a reduced-load Erlang loss model computes in closed form.
This module turns a concrete :class:`~repro.model.layout.ReplicaLayout`
plus a workload (popularity vector, Poisson arrival rate, holding times)
into predicted per-video and cluster-wide rejection rates and per-server
utilizations *without simulating a single event*, which makes scoring an
entire SA neighborhood or parameter grid a one-call numpy program
(:func:`evaluate_layouts`) instead of millions of DES events.

Model
-----
Each server ``k`` is an ``M/G/c_k/c_k`` loss system over its stream slots
``c_k = floor(bandwidth_k / bit_rate)``; by Erlang insensitivity only the
mean holding time matters.  Video ``i`` offers ``a_i = lambda p_i D_i``
Erlangs to its replica-holder set ``S_i``:

* ``static_rr`` (the paper's dispatcher) — the per-video stream splits
  evenly over holders (the ``w_i = p_i / r_i`` weights), so server ``k``
  is offered ``A_k = sum_i a_i x_ik / r_i`` and blocks with Erlang-B
  ``L_k = B(A_k, c_k)``.  The offered loads do not depend on the blocking
  probabilities, so the fixed point degenerates and converges in one
  step; under Poisson splitting the model is exact in steady state (the
  cyclic counter makes per-server arrivals slightly *more* regular than
  Poisson, which the audit tolerance absorbs).
* ``least_loaded`` / ``first_fit`` — blocked requests overflow to the
  video's other holders, which couples the servers: a request is lost
  only when every holder is full (independence approximation, per-video
  loss ``prod_k L_k``), and the resulting offered loads ``A_k(L)`` feed
  back into ``L_k = B(A_k, c_k)``.  That is the classical reduced-load
  Erlang fixed point, solved by damped iteration with
  convergence/divergence diagnostics.  The two policies differ in how
  the load routes: ``least_loaded`` spreads each video's carried stream
  over holders proportionally to their free probability ``1 - L_k``,
  while ``first_fit`` is an *ordered hunt* — video ``i`` offers ``a_i``
  to its lowest-id holder and only the blocked fraction overflows to the
  next (``A_k`` gains ``a_i prod_{j in S_i, j < k} L_j``), matching the
  simulator's fixed server-id candidate order.
  *Complete pooled components* — maximal server groups whose videos are
  replicated on every server of the group — are solved exactly as one
  pooled ``M/G/C/C`` system instead (full replication therefore
  reproduces :func:`~repro.analysis.erlang.cluster_blocking_bound`
  bit-exactly, and single-copy layouts reproduce the partitioned bound).

Assumptions (see DESIGN.md Sec. 10): Poisson arrivals, holding time equal
to the video duration (no early-exit watch-time model), steady state (the
paper's 90-minute transient peak rejects *less*; audits use long
horizons), no backbone redirection and no failures.  The
:mod:`repro.verify.surrogate_audit` auditor cross-validates the surrogate
against the real DES on sampled configurations and asserts its
predictions stay inside the pooled/partitioned Erlang bracket.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_non_negative, check_probability_vector
from .erlang import _check_loads, _fixed_slots_erlang_b, erlang_b
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout

__all__ = [
    "SurrogateWorkload",
    "FixedPointSpec",
    "FixedPointDiagnostics",
    "SurrogateResult",
    "BatchSurrogateResult",
    "server_stream_slots",
    "evaluate_layout",
    "evaluate_layouts",
]

#: Dispatchers the surrogate understands, mapped to its load models:
#: static Poisson splitting, proportional overflow, and ordered hunt.
_STATIC_DISPATCHERS = frozenset({"static_rr"})
_OVERFLOW_DISPATCHERS = frozenset({"least_loaded", "first_fit"})
_ORDERED_DISPATCHERS = frozenset({"first_fit"})


@dataclass(frozen=True)
class SurrogateWorkload:
    """The workload side of a surrogate evaluation.

    Attributes
    ----------
    popularity:
        Per-video request probabilities ``p_i`` (length ``M``, sums to 1).
    arrival_rate_per_min:
        Poisson arrival rate ``lambda`` of the request stream.
    holding_time_min:
        Mean stream holding time(s) ``D`` — a scalar, or a length-``M``
        array for per-video durations.
    """

    popularity: np.ndarray = field(repr=False)
    arrival_rate_per_min: float = 40.0
    holding_time_min: "float | np.ndarray" = 90.0

    def __post_init__(self) -> None:
        probs = check_probability_vector("popularity", self.popularity)
        check_non_negative("arrival_rate_per_min", self.arrival_rate_per_min)
        holding = np.asarray(self.holding_time_min, dtype=np.float64)
        if holding.ndim == 0:
            holding = np.full(probs.shape, float(holding))
        if holding.shape != probs.shape:
            raise ValueError(
                f"holding_time_min must be scalar or shape {probs.shape}, "
                f"got {holding.shape}"
            )
        if np.any(holding < 0) or not np.all(np.isfinite(holding)):
            raise ValueError("holding_time_min must be finite and >= 0")
        holding.setflags(write=False)
        object.__setattr__(self, "popularity", probs)
        object.__setattr__(self, "holding_time_min", holding)

    @property
    def num_videos(self) -> int:
        return int(self.popularity.shape[0])

    @property
    def per_video_offered_erlangs(self) -> np.ndarray:
        """``a_i = lambda p_i D_i`` — each video's offered traffic."""
        return (
            self.arrival_rate_per_min * self.popularity * self.holding_time_min
        )

    @property
    def total_offered_erlangs(self) -> float:
        """Cluster-wide offered traffic ``a = sum_i a_i``."""
        return float(self.per_video_offered_erlangs.sum())

    @classmethod
    def from_problem(cls, problem) -> "SurrogateWorkload":
        """Workload of a :class:`repro.model.problem.ReplicationProblem`."""
        return cls(
            popularity=problem.popularity.probabilities,
            arrival_rate_per_min=problem.arrival_rate_per_min,
            holding_time_min=problem.videos.durations_min,
        )

    @classmethod
    def from_setup(
        cls, setup, theta: float, arrival_rate_per_min: float
    ) -> "SurrogateWorkload":
        """Workload of a :class:`repro.experiments.config.PaperSetup` point."""
        return cls(
            popularity=setup.popularity(theta).probabilities,
            arrival_rate_per_min=arrival_rate_per_min,
            holding_time_min=setup.videos().durations_min,
        )


@dataclass(frozen=True)
class FixedPointSpec:
    """Damped fixed-point iteration controls.

    ``damping`` is the step fraction toward the freshly computed blocking
    vector (1.0 = undamped Picard iteration); the blocking map is a
    self-map of ``[0, 1]^N`` so the damped iteration is robust, but
    heavily loaded overflow systems oscillate undamped.
    """

    damping: float = 0.6
    tolerance: float = 1e-12
    max_iterations: int = 500

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


@dataclass(frozen=True)
class FixedPointDiagnostics:
    """Convergence record of one surrogate evaluation."""

    dispatcher: str
    iterations: int
    residual: float
    converged: bool
    damping: float

    def __str__(self) -> str:
        state = "converged" if self.converged else "DIVERGED"
        return (
            f"{self.dispatcher}: {state} in {self.iterations} iterations "
            f"(residual {self.residual:.2e}, damping {self.damping:g})"
        )


@dataclass(frozen=True)
class SurrogateResult:
    """Predicted steady-state performance of one layout.

    All blocking figures are probabilities in ``[0, 1]``; utilizations are
    carried load over stream slots.
    """

    rejection_rate: float
    per_video_blocking: np.ndarray = field(repr=False)
    per_server_offered_erlangs: np.ndarray = field(repr=False)
    per_server_blocking: np.ndarray = field(repr=False)
    per_server_utilization: np.ndarray = field(repr=False)
    diagnostics: FixedPointDiagnostics = field(repr=False, default=None)

    def format(self) -> str:
        util = ", ".join(f"{u:.3f}" for u in self.per_server_utilization)
        return (
            f"surrogate rejection {self.rejection_rate:.4f} "
            f"(util [{util}]; {self.diagnostics})"
        )


@dataclass(frozen=True)
class BatchSurrogateResult:
    """Stacked predictions for ``B`` layouts scored in one call."""

    rejection_rates: np.ndarray = field(repr=False)
    per_video_blocking: np.ndarray = field(repr=False)
    per_server_offered_erlangs: np.ndarray = field(repr=False)
    per_server_blocking: np.ndarray = field(repr=False)
    per_server_utilization: np.ndarray = field(repr=False)
    diagnostics: FixedPointDiagnostics = field(repr=False, default=None)

    @property
    def num_layouts(self) -> int:
        return int(self.rejection_rates.shape[0])

    def ranking(self) -> np.ndarray:
        """Layout indices from best (lowest) to worst predicted rejection."""
        return np.argsort(self.rejection_rates, kind="stable")

    def result_for(self, index: int) -> SurrogateResult:
        """The single-layout view of batch entry *index*."""
        return SurrogateResult(
            rejection_rate=float(self.rejection_rates[index]),
            per_video_blocking=self.per_video_blocking[index],
            per_server_offered_erlangs=self.per_server_offered_erlangs[index],
            per_server_blocking=self.per_server_blocking[index],
            per_server_utilization=self.per_server_utilization[index],
            diagnostics=self.diagnostics,
        )


def server_stream_slots(
    cluster: ClusterSpec, layout: ReplicaLayout
) -> np.ndarray:
    """Per-server stream slots ``c_k = floor(bandwidth_k / bit_rate)``.

    The Erlang model needs one slot size, so the layout must be
    fixed-rate (the Sec. 3.2/4.1 setting): every placed replica at one
    common bit rate.  Raises ``ValueError`` for scalable-rate layouts.
    """
    return _fixed_rate_slots(
        cluster, layout.holder_index.rates, layout.num_servers
    )


def _fixed_rate_slots(
    cluster: ClusterSpec, rates: np.ndarray, num_servers: int
) -> np.ndarray:
    """Stream slots for a layout whose placed replicas have *rates*."""
    if rates.size == 0:
        raise ValueError("layout has no replicas; stream slots are undefined")
    rate = float(rates.max())
    if not np.allclose(rates, rate, rtol=1e-9):
        raise ValueError(
            "surrogate requires a fixed-rate layout (one bit rate for all "
            "replicas); scalable-rate layouts are outside the Erlang model"
        )
    bandwidth = cluster.bandwidth_mbps
    if num_servers != bandwidth.shape[0]:
        raise ValueError(
            f"layout has {num_servers} servers, cluster has "
            f"{bandwidth.shape[0]}"
        )
    return np.floor(bandwidth / rate + 1e-9).astype(np.int64)


# ----------------------------------------------------------------------
# Core evaluation
# ----------------------------------------------------------------------
# A batch of B layouts is one flat *holder list*: entry h is a placed
# replica, ``video[h] = b*M + i`` and ``server[h] = b*N + k`` for video i
# on server k of layout b.  Entries are sorted by video and, within a
# video, by server (the layouts' ``holder_index`` order), so each placed
# video's holders form one contiguous segment.  Every per-video or
# per-server sum of the fixed point is a weighted ``np.bincount`` over
# these indices, which costs O(replicas) rather than O(B * M * N).
#
# The overflow models split the list once per batch.  A single-replica
# video offers its server a constant load: under first_fit its overflow
# is exp(0) = 1, so it offers exactly a_i; under least_loaded its loss
# is its holder's L_k and its free probability 1 - L_k, so it offers
# a_i (1 - L_k) / (1 - L_k), i.e. a_i, or 0 by the ``free > 0`` guard
# where L_k is exactly 1.  Their a_i are summed per server once into
# ``base``, which least_loaded scales by that per-server factor each
# iteration; only multi-replica holders are gathered, bincounted and
# exponentiated per iteration.  Exact in real arithmetic; in floating
# point only the summation order of the per-server loads differs.


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal values in sorted *keys*."""
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _segmented_exclusive_cumsum(
    values: np.ndarray, starts: np.ndarray, segment: np.ndarray
) -> np.ndarray:
    """Exclusive prefix sums of *values* restarted at every segment start.

    Subtracting each finished segment's total before the running sum
    enters the next keeps the partial sums at segment scale, so rounding
    does not grow with the batch; the residual drift is then removed
    exactly by re-basing on each segment's first entry.
    """
    totals = np.add.reduceat(values, starts)
    restarted = values.copy()
    restarted[starts[1:]] -= totals[:-1]
    exclusive = np.cumsum(restarted) - values
    return exclusive - exclusive[starts][segment]


def _split_by_replicas(
    video_starts: np.ndarray, num_holders: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a holder list into single- and multi-replica videos.

    Returns ``(single, sizes, starts)``: the holder mask of the
    single-replica videos, and the segment sizes and start offsets of
    the multi-replica videos within the compacted ``holders[~single]``.
    """
    video_sizes = np.diff(np.r_[video_starts, num_holders])
    single = np.repeat(video_sizes == 1, video_sizes)
    sizes = video_sizes[video_sizes > 1]
    return single, sizes, np.cumsum(sizes) - sizes


def _complete_components(
    video: np.ndarray,
    server: np.ndarray,
    video_starts: np.ndarray,
    num_server_ids: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Complete pooled components of a holder list.

    A component is a maximal set of servers connected by shared videos;
    it is *complete* when every video of the component is replicated on
    every server of the component — then least-loaded dispatch with
    Erlang insensitivity makes the component one exact pooled
    ``M/G/C/C`` system (the structure the simulator-agreement tests in
    ``tests/test_erlang.py`` validate).  Components are found by label
    propagation over the holder edges: each server's label falls to the
    smallest server id reachable through shared videos.  Only
    multi-replica videos join servers, so only their holders propagate;
    a single-replica video's one label is its server's own.  Returns the
    sorted flat ``(video_ids, server_ids)`` of the complete components.
    """
    hosting = np.flatnonzero(np.bincount(server, minlength=num_server_ids))
    single, multi_sizes, multi_starts = _split_by_replicas(
        video_starts, video.size
    )
    label = np.arange(num_server_ids)
    if multi_sizes.size:
        multi_server = server[~single]
        by_server = np.argsort(multi_server, kind="stable")
        server_starts = _run_starts(multi_server[by_server])
        linked = multi_server[by_server][server_starts]
        while True:
            video_label = np.minimum.reduceat(label[multi_server], multi_starts)
            holder_label = np.repeat(video_label, multi_sizes)
            fresh = label.copy()
            fresh[linked] = np.minimum.reduceat(
                holder_label[by_server], server_starts
            )
            # Labels are server ids of the same component: jump through
            # them.
            fresh = fresh[fresh]
            if np.array_equal(fresh, label):
                break
            label = fresh
    holder_component = label[server]
    video_component = holder_component[video_starts]
    server_component = label[hosting]
    holders = np.bincount(holder_component, minlength=num_server_ids)
    videos = np.bincount(video_component, minlength=num_server_ids)
    servers = np.bincount(server_component, minlength=num_server_ids)
    complete = (holders > 0) & (holders == videos * servers)
    if not complete.any():
        return []
    video_ids = video[video_starts]
    video_order = np.argsort(video_component, kind="stable")
    server_order = np.argsort(server_component, kind="stable")
    video_bounds = np.r_[0, np.cumsum(videos)]
    server_bounds = np.r_[0, np.cumsum(servers)]
    return [
        (
            video_ids[video_order[video_bounds[c] : video_bounds[c + 1]]],
            hosting[server_order[server_bounds[c] : server_bounds[c + 1]]],
        )
        for c in np.flatnonzero(complete)
    ]


def _evaluate_holders(
    video: np.ndarray,
    server: np.ndarray,
    num_layouts: int,
    slots: np.ndarray,
    workload: SurrogateWorkload,
    dispatcher: str,
    spec: FixedPointSpec,
) -> BatchSurrogateResult:
    """Evaluate a batch given as a flat holder list (see above)."""
    num_videos = workload.num_videos
    num_servers = slots.shape[0]
    num_video_ids = num_layouts * num_videos
    num_server_ids = num_layouts * num_servers

    def per_video(weights: np.ndarray) -> np.ndarray:
        return np.bincount(video, weights, minlength=num_video_ids)

    def per_server(weights: np.ndarray) -> np.ndarray:
        return np.bincount(server, weights, minlength=num_server_ids).reshape(
            num_layouts, num_servers
        )

    # a_i, validated once: every load the fixed point derives from it
    # stays finite and >= 0, so its Erlang-B calls skip the checks.
    offered = np.tile(
        _check_loads(workload.per_video_offered_erlangs), num_layouts
    )
    replicas = np.bincount(video, minlength=num_video_ids)  # r_i
    placed = replicas > 0
    safe_replicas = np.maximum(replicas, 1)

    if dispatcher in _STATIC_DISPATCHERS:
        # Degenerate fixed point: the w_i = p_i / r_i split fixes the
        # offered loads independent of blocking; one Erlang-B pass.
        per_server_offered = per_server((offered / safe_replicas)[video])
        per_server_blocking = erlang_b(per_server_offered, slots)
        per_video_blocking = (
            per_video(per_server_blocking.ravel()[server]) / safe_replicas
        )
        diagnostics = FixedPointDiagnostics(
            dispatcher=dispatcher,
            iterations=1,
            residual=0.0,
            converged=True,
            damping=spec.damping,
        )
    elif dispatcher in _OVERFLOW_DISPATCHERS:
        video_starts = _run_starts(video)
        single, multi_sizes, multi_starts = _split_by_replicas(
            video_starts, video.size
        )
        # Single-replica videos offer a constant load (see the block
        # comment above): their a_i, summed per server, is ``base``.
        base = np.bincount(
            server[single], offered[video[single]], minlength=num_server_ids
        ).astype(np.float64, copy=False)
        # Multi-replica holders, re-indexed by their video's segment.
        multi_server = server[~single]
        multi_segment = np.repeat(np.arange(multi_sizes.size), multi_sizes)
        multi_offered = offered[video[~single][multi_starts]]
        has_multi = multi_sizes.size > 0
        if dispatcher in _ORDERED_DISPATCHERS:
            holder_offered = multi_offered[multi_segment]
        erlang_b_of = _fixed_slots_erlang_b(slots)
        # A zero-slot server carries no stream: it is pinned at blocking 1
        # (Erlang-B's B(0, 0) = 0 would let an undamped iteration toggle
        # it between 0 and 1 through the ``free > 0`` guard).
        zero_slots = slots == 0
        per_server_blocking = np.zeros((num_layouts, num_servers))
        per_server_blocking[:, zero_slots] = 1.0
        iterations = 0
        residual = np.inf
        converged = False
        for iterations in range(1, spec.max_iterations + 1):
            blocking = per_server_blocking.ravel()
            # Clamp away from 0 so a holder on a never-blocking server
            # contributes log(1e-300) and its loss underflows to the
            # correct 0.
            log_blocking = np.log(np.maximum(blocking, 1e-300))
            if dispatcher in _ORDERED_DISPATCHERS:
                # Ordered hunt: video i offers a_i to its lowest-id
                # holder; server k only sees the overflow of i's earlier
                # holders, prod_{j in S_i, j < k} L_j (exclusive cumsum
                # of the log blockings along the video's segment).  A
                # single replica sees no overflow: it offers all of a_i.
                flat_offered = base
                if has_multi:
                    overflow = np.exp(
                        _segmented_exclusive_cumsum(
                            log_blocking[multi_server],
                            multi_starts,
                            multi_segment,
                        )
                    )
                    flat_offered = flat_offered + np.bincount(
                        multi_server,
                        holder_offered * overflow,
                        minlength=num_server_ids,
                    )
            else:
                # Proportional split: carried streams spread over holders
                # by free probability; the offered load a server sees is
                # carried / (1 - L_k), which cancels to this denominator
                # form.  A single-replica video's loss is its one
                # holder's L_k, so its demand is a_i times a per-server
                # factor.
                free = 1.0 - blocking
                factor = np.divide(
                    1.0 - np.exp(log_blocking),
                    free,
                    out=np.zeros_like(free),
                    where=free > 0,
                )
                flat_offered = base * factor
                if has_multi:
                    # Per-video loss: every holder full (independence
                    # approximation).
                    loss = np.exp(
                        np.bincount(
                            multi_segment,
                            log_blocking[multi_server],
                            minlength=multi_sizes.size,
                        )
                    )
                    multi_free = np.bincount(
                        multi_segment,
                        free[multi_server],
                        minlength=multi_sizes.size,
                    )
                    demand = np.divide(
                        multi_offered * (1.0 - loss),
                        multi_free,
                        out=np.zeros_like(multi_free),
                        where=multi_free > 0,
                    )
                    flat_offered = flat_offered + np.bincount(
                        multi_server,
                        demand[multi_segment],
                        minlength=num_server_ids,
                    )
            per_server_offered = flat_offered.reshape(num_layouts, num_servers)
            fresh = erlang_b_of(per_server_offered)
            fresh[:, zero_slots] = 1.0
            step = spec.damping * (fresh - per_server_blocking)
            per_server_blocking = per_server_blocking + step
            residual = float(np.abs(step).max()) if step.size else 0.0
            if not np.isfinite(residual):  # pragma: no cover - defensive
                break
            if residual < spec.tolerance:
                converged = True
                break
        log_blocking = np.log(np.maximum(per_server_blocking, 1e-300))
        per_video_blocking = np.exp(per_video(log_blocking.ravel()[server]))
        diagnostics = FixedPointDiagnostics(
            dispatcher=dispatcher,
            iterations=iterations,
            residual=residual,
            converged=converged,
            damping=spec.damping,
        )
    else:
        raise ValueError(
            f"unknown dispatcher {dispatcher!r}; surrogate supports "
            f"{sorted(_STATIC_DISPATCHERS | _OVERFLOW_DISPATCHERS)}"
        )

    per_video_blocking = np.where(placed, per_video_blocking, 1.0)

    if dispatcher in _OVERFLOW_DISPATCHERS:
        # Exact pooling override: complete components are genuinely one
        # M/G/C/C system under dynamic dispatch — replace the fixed-point
        # approximation with the exact pooled Erlang-B there.
        flat_blocking = per_server_blocking.ravel()
        flat_offered = per_server_offered.ravel()
        tiled_slots = np.tile(slots, num_layouts)
        for videos, servers in _complete_components(
            video, server, video_starts, num_server_ids
        ):
            pool_offered = float(offered[videos].sum())
            pool_slots = int(tiled_slots[servers].sum())
            pooled = erlang_b(pool_offered, pool_slots)
            per_video_blocking[videos] = pooled
            flat_blocking[servers] = pooled
            # A component without slots still sees its videos' load:
            # split it evenly over the component's servers.
            share = (
                tiled_slots[servers] / pool_slots
                if pool_slots > 0
                else np.full(servers.size, 1.0 / servers.size)
            )
            flat_offered[servers] = pool_offered * share

    per_video_blocking = per_video_blocking.reshape(num_layouts, num_videos)
    safe_slots = np.maximum(slots, 1)
    per_server_utilization = np.clip(
        per_server_offered * (1.0 - per_server_blocking) / safe_slots,
        0.0,
        1.0,
    )
    per_server_utilization = np.where(slots > 0, per_server_utilization, 0.0)
    rejection_rates = per_video_blocking @ workload.popularity
    return BatchSurrogateResult(
        rejection_rates=rejection_rates,
        per_video_blocking=per_video_blocking,
        per_server_offered_erlangs=per_server_offered,
        per_server_blocking=per_server_blocking,
        per_server_utilization=per_server_utilization,
        diagnostics=diagnostics,
    )


def evaluate_layout(
    layout: ReplicaLayout,
    workload: SurrogateWorkload,
    cluster: ClusterSpec,
    *,
    dispatcher: str = "static_rr",
    fixed_point: FixedPointSpec | None = None,
) -> SurrogateResult:
    """Predict one layout's steady-state rejection and utilizations."""
    batch = evaluate_layouts(
        [layout],
        workload,
        cluster,
        dispatcher=dispatcher,
        fixed_point=fixed_point,
    )
    return batch.result_for(0)


def evaluate_layouts(
    layouts: Sequence[ReplicaLayout],
    workload: SurrogateWorkload,
    cluster: ClusterSpec,
    *,
    dispatcher: str = "static_rr",
    fixed_point: FixedPointSpec | None = None,
) -> BatchSurrogateResult:
    """Score a whole batch of layouts in one vectorized evaluation.

    All layouts must share the ``(M, N)`` shape and the common bit rate;
    their replicas join one flat holder list that runs through a single
    fixed-point program, so screening an SA neighborhood or a parameter
    grid costs one numpy program, O(total replicas) per iteration, rather
    than ``B`` DES campaigns.
    """
    if not layouts:
        raise ValueError("evaluate_layouts needs at least one layout")
    spec = fixed_point if fixed_point is not None else FixedPointSpec()
    num_videos, num_servers = layouts[0].num_videos, layouts[0].num_servers
    if workload.num_videos != num_videos:
        raise ValueError(
            f"workload has {workload.num_videos} videos, "
            f"layouts have {num_videos}"
        )
    slots = None
    videos, servers = [], []
    shape = (num_videos, num_servers)
    for index, layout in enumerate(layouts):
        if (layout.num_videos, layout.num_servers) != shape:
            raise ValueError("all layouts must share one (videos, servers) shape")
        indptr, holders, rates = layout.holder_index
        layout_slots = _fixed_rate_slots(cluster, rates, num_servers)
        if slots is None:
            slots = layout_slots
        elif not np.array_equal(layout_slots, slots):
            raise ValueError("all layouts must share one common bit rate")
        videos.append(
            np.repeat(
                np.arange(index * num_videos, (index + 1) * num_videos),
                np.diff(indptr),
            )
        )
        servers.append(holders + index * num_servers)
    return _evaluate_holders(
        np.concatenate(videos),
        np.concatenate(servers),
        len(layouts),
        slots,
        workload,
        dispatcher,
        spec,
    )
