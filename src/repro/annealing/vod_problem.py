"""The scalable-bit-rate replication/placement problem for SA (Sec. 4.3).

State: an ``(M, N)`` matrix of per-replica encoding bit rates (0 = no
replica), i.e. exactly a :class:`~repro.model.layout.ReplicaLayout` matrix.
The scalable framework explicitly allows replicas of one video at different
rates (Sec. 6), so no per-video uniformity is imposed.

The three problem-specific decisions the paper lists:

1. **Cost function** — the negated, normalized Eq. (1) objective:
   ``-( mean_i(b_i)/b_max + alpha * mean_i(r_i)/N - beta * L )`` where
   ``b_i`` is the mean rate over video ``i``'s replicas, ``L`` the relative
   Eq. (2) imbalance of the expected server loads under static round-robin
   dispatch of ``lambda * T`` requests.
2. **Initial solution** — every video one replica at the lowest allowed
   rate, dealt round robin over the servers ("each video can have one
   replica at least in a low bit rate quality").
3. **Neighborhood** — pick a random server; either raise the rate of one
   replica on it or place a new video on it at the lowest rate; then, while
   the server violates its storage (Eq. 4) or expected-bandwidth (Eq. 5)
   constraint, decrease the rate of — or delete — lowest-rate replicas on
   that server.  A video's last replica is never deleted (Eq. 7), and a
   repair that cannot restore feasibility voids the proposal.

Incremental evaluation
----------------------
:meth:`ScalableBitRateProblem.make_incremental` opts the problem into the
engine's delta-cost protocol (see :mod:`repro.annealing.engine`).  Move
*selection* is one implementation, :meth:`~ScalableBitRateProblem._choose_move`
and :meth:`~ScalableBitRateProblem._choose_shed`, which read one server's
rate column, its ascending holder list (the videos with a replica there)
and its raisable list (the holders below the top rate) and return the
``(video, new rate)`` entry to write.  The incremental context keeps these
lists and a plain-float rate column per server exact through every write
and rollback; the full path rebuilds them from its matrix copy on every
proposal.  Both paths therefore consume identical rng sequences by
construction.  The context evaluates each move by updating
cached per-video replica counts/rate sums and per-server load/storage
vectors in O(touched entries) instead of copying and rescanning the
``(M, N)`` state, while the full path recomputes cost and feasibility from
the matrix.  Rolled-back moves restore the state bitwise; the accumulated
float caches (rate sums, quality terms, loads, storage) are rebuilt by the
engine's ``resync`` at level boundaries, so any accumulation drift stays
below the acceptance noise floor; the rebuild equals a fresh context's
bit for bit.  Columns, holder lists and replica counts are exact and
never need a rebuild.  The engine's ``T0`` walk runs on the same context
(``begin_walk``/``end_walk``): its states are costed exactly from the rows
its moves touched and the walk is undone.  The full-recompute path
remains the behavior oracle (``tests/test_annealing_incremental.py``
cross-checks deltas, rollbacks, holder lists, walk costs, rebuilt caches
and end-to-end trajectories).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from itertools import repeat
from operator import gt, sub

import numpy as np

from ..model.layout import ReplicaLayout
from ..model.problem import ReplicationProblem

__all__ = ["ScalableBitRateProblem"]

#: Constraint slack shared by the full and incremental feasibility checks.
_SLACK = 1e-9


class ScalableBitRateProblem:
    """Adapter exposing a :class:`ReplicationProblem` to the SA engine."""

    def __init__(self, problem: ReplicationProblem) -> None:
        if len(problem.allowed_bit_rates_mbps) < 2:
            raise ValueError(
                "the scalable-rate setting needs at least two allowed bit "
                f"rates, got {problem.allowed_bit_rates_mbps}"
            )
        self._problem = problem
        self._num_videos = problem.num_videos
        self._rates = np.asarray(problem.allowed_bit_rates_mbps, dtype=np.float64)
        self._rates_l = self._rates.tolist()
        self._min_rate = self._rates_l[0]
        self._max_rate = self._rates_l[-1]
        self._probs = problem.probabilities
        self._requests = problem.requests_per_peak
        self._storage_gb = problem.cluster.storage_gb
        self._bandwidth = problem.cluster.bandwidth_mbps
        # Per-video storage multiplier: GB per (Mb/s of encoding rate).
        self._gb_per_mbps = problem.videos.durations_min * 60.0 / 8000.0
        self._alpha = problem.objective_weights.alpha
        self._beta = problem.objective_weights.beta

    # ------------------------------------------------------------------
    @property
    def problem(self) -> ReplicationProblem:
        return self._problem

    @property
    def min_rate(self) -> float:
        return self._min_rate

    @property
    def max_rate(self) -> float:
        return self._max_rate

    # ------------------------------------------------------------------
    # AnnealingProblem protocol
    # ------------------------------------------------------------------
    def initial_state(self, rng: np.random.Generator) -> np.ndarray:
        """Lowest-rate, one-replica-per-video, round-robin placement."""
        del rng  # the paper's initial solution is deterministic
        num_videos = self._problem.num_videos
        num_servers = self._problem.num_servers
        state = np.zeros((num_videos, num_servers), dtype=np.float64)
        state[np.arange(num_videos), np.arange(num_videos) % num_servers] = (
            self.min_rate
        )
        bad = self._violating_servers(state)
        if bad.size:
            raise ValueError(
                "even the lowest-rate initial solution violates server "
                f"constraints (servers {bad.tolist()}); the instance is "
                "infeasible for the scalable-rate setting"
            )
        return state

    def cost(self, state: np.ndarray) -> float:
        """Negated normalized Eq. (1) objective (lower is better)."""
        counts = (state > 0).sum(axis=1)
        if np.any(counts < 1):
            raise ValueError("state lost a video's last replica (Eq. 7)")
        return float(
            self._costs_from(
                state.sum(axis=1) / counts,
                counts.mean(),
                self._server_loads(state, counts),
            )
        )

    def propose(
        self, state: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | None:
        """One neighborhood move with constraint repair (see module doc)."""
        server = int(rng.integers(self._problem.num_servers))
        new_state = state.copy()
        column = new_state[:, server]
        holders = _holders(column)
        move = self._choose_move(
            column, holders, self._raisable(column, holders), rng
        )
        if move is None:
            return None
        video, value = move
        new_state[video, server] = value
        if not self._repair_server(new_state, server, protect=video):
            return None
        # Repair deletions shrink r_i, shifting that video's weight onto its
        # replicas on *other* servers; void the proposal if any server ended
        # up violated (the paper's neighborhood is silent on this case, and
        # voiding keeps the feasible-state invariant exact).
        if self._violating_servers(new_state).size:
            return None
        return new_state

    def make_incremental(self, state: np.ndarray) -> "_IncrementalScalableState":
        """Delta-cost context for the engine's incremental protocol."""
        return _IncrementalScalableState(self, state)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_layout(self, state: np.ndarray) -> ReplicaLayout:
        """Wrap a state matrix as an immutable layout."""
        return ReplicaLayout(rate_matrix=state)

    def objective_of(self, state: np.ndarray) -> float:
        """The (positive) Eq. 1 objective of a state."""
        return -self.cost(state)

    def server_loads(self, state: np.ndarray) -> np.ndarray:
        """Expected per-server outgoing loads (Mb/s) of a state."""
        counts = (state > 0).sum(axis=1)
        if np.any(counts < 1):
            raise ValueError("state lost a video's last replica (Eq. 7)")
        return self._server_loads(state, counts)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _server_loads(self, state: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Expected end-of-peak outgoing load per server (Mb/s)."""
        weights = self._probs / counts
        return self._requests * (weights[..., None] * state).sum(axis=-2)

    def _costs_from(
        self, mean_rate: np.ndarray, mean_count: np.ndarray, loads: np.ndarray
    ) -> np.ndarray:
        """The cost from the per-video mean rates ``b_i``, the mean replica
        count and the per-server loads, of one state or, along leading
        axes, of many (:meth:`_IncrementalScalableState.end_walk`)."""
        mean_load = loads.mean(axis=-1)
        worst = np.abs(loads - mean_load[..., None]).max(axis=-1)
        imbalance = np.divide(
            worst, mean_load, out=np.zeros_like(worst), where=mean_load != 0
        )
        objective = (
            mean_rate.mean(axis=-1) / self.max_rate
            + self._alpha * mean_count / self._problem.num_servers
            - self._beta * imbalance
        )
        return -objective

    def _server_storage(self, state: np.ndarray, server: int) -> float:
        return float((state[:, server] * self._gb_per_mbps).sum())

    def _server_load_one(self, state: np.ndarray, server: int) -> float:
        counts = (state > 0).sum(axis=1)
        weights = np.where(counts > 0, self._probs / np.maximum(counts, 1), 0.0)
        return float(self._requests * (weights * state[:, server]).sum())

    def _violating_servers(self, state: np.ndarray) -> np.ndarray:
        counts = (state > 0).sum(axis=1)
        loads = self._server_loads(state, np.maximum(counts, 1))
        storage = (state * self._gb_per_mbps[:, None]).sum(axis=0)
        bad = (loads > self._bandwidth + _SLACK) | (
            storage > self._storage_gb + _SLACK
        )
        return np.flatnonzero(bad)

    # Move selection, shared by the full and incremental paths.  Both read
    # one server's rate column (indexed by video) and its ascending holder
    # and raisable lists and return the entry to write, so both consume
    # the rng alike.

    def _raisable(self, column: Sequence[float], holders: list[int]) -> list[int]:
        """Ascending ids of the holders below the top rate."""
        top = self._max_rate - 1e-12
        return [video for video in holders if column[video] < top]

    def _choose_move(
        self,
        column: Sequence[float],
        holders: list[int],
        raisable: list[int],
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        """The raise-rate or add-video move on one server, as
        ``(video, new rate)``; None when the server admits neither.
        *raisable* lists the holders below the top rate (:meth:`_raisable`)."""
        num_absent = self._num_videos - len(holders)
        # The move kinds on offer, raise before add; draw one of them.
        kinds = (1 if raisable else 0) + (1 if num_absent else 0)
        if not kinds:
            return None
        kind = int(rng.integers(kinds))

        rates = self._rates_l
        if raisable and kind == 0:
            video = raisable[int(rng.integers(len(raisable)))]
            next_idx = bisect_left(rates, column[video] + 1e-12)
            return video, rates[min(next_idx, len(rates) - 1)]
        # The k-th absent video: step past every holder at or below it.
        video = int(rng.integers(num_absent))
        for holder in holders:
            if holder > video:
                break
            video += 1
        return video, self._min_rate

    def _choose_shed(
        self,
        column: Sequence[float],
        holders: list[int],
        counts: Sequence[int],
        protect: int,
        lowest: float | None = None,
    ) -> tuple[int, float] | None:
        """Decrease or delete the lowest-rate shedable replica on a server,
        as ``(video, new rate)``; None when nothing can be shed.

        One pass over the ascending holders keeps the lowest
        ``(rate, video)`` replica that can shed: one above the lowest rate
        (decreased) or one that is not its video's last (deleted).  A last
        replica at the lowest rate is protected by Eq. 7.  *lowest*, when
        no holder's rate is below it, ends the pass at the first replica
        found at that rate: none after it can be lower."""
        floor = self._min_rate + 1e-12
        best = -1
        best_rate = 0.0
        for video in holders:
            if video == protect:
                continue
            rate = column[video]
            if best >= 0 and rate >= best_rate:
                continue
            if rate > floor or counts[video] > 1:
                best, best_rate = video, rate
                if rate == lowest:
                    break
        if best < 0:
            return None
        if best_rate > floor:
            rates = self._rates_l
            idx = bisect_left(rates, best_rate - 1e-12) - 1
            return best, rates[max(idx, 0)]
        return best, 0.0

    def _repair_server(
        self, state: np.ndarray, server: int, *, protect: int
    ) -> bool:
        """Shed storage/load on *server* until feasible; False if impossible.

        Full path: feasibility, holders and replica counts are recomputed
        from the matrix before every shed."""
        column = state[:, server]
        for _ in range(state.shape[0] * self._rates.size + 1):
            storage_ok = (
                self._server_storage(state, server)
                <= self._storage_gb[server] + _SLACK
            )
            load_ok = (
                self._server_load_one(state, server)
                <= self._bandwidth[server] + _SLACK
            )
            if storage_ok and load_ok:
                return True
            shed = self._choose_shed(
                column, _holders(column), (state > 0).sum(axis=1), protect
            )
            if shed is None:
                return False
            state[shed[0], server] = shed[1]
        return False  # pragma: no cover - bounded by construction


def _holders(column: np.ndarray) -> list[int]:
    """Ascending ids of the videos with a replica in a rate column."""
    return np.flatnonzero(column > 0).tolist()


def _sum_over_videos(terms: np.ndarray) -> np.ndarray:
    """Sum ``(M, K, N)`` per-video terms over videos into ``(K, N)``,
    bit for bit as ``sum(axis=-2)`` sums each ``(M, N)`` state.

    numpy adds the rows of an ``(M, N)`` matrix in video order, one
    server column per element of the inner loop, and an ``(M, K, N)``
    stack summed over its leading axis takes the same order with a
    ``K * N``-long inner loop.  A lone server column (``N == 1``) is
    instead summed pairwise as one contiguous vector, so it gets a
    contiguous copy per state.
    """
    if terms.shape[-1] > 1:
        return terms.sum(axis=0)
    return np.ascontiguousarray(terms[:, :, 0].T).sum(axis=-1)[:, None]


class _IncrementalScalableState:
    """Delta-cost trajectory state for :class:`ScalableBitRateProblem`.

    Caches, per video: replica count (exact int), the ascending servers
    holding it, rate row sum, mean-rate quality term and load weight
    ``p_i / r_i``; per server: expected load and storage (Mb/s, GB), the
    ascending holder and raisable (below the top rate) lists and the rate
    column as plain floats; plus the quality-sum and total-replica
    scalars and the current cost.  One ``_set`` updates them in
    O(holders) worst case (a replica-count change moves load on every
    server holding the video), so a Metropolis step costs O(touched
    entries) instead of the full O(M·N) rescan.

    Rollback restores the state matrix, the per-server columns and holder
    lists and the integer/row caches from the undo log (bitwise) and the
    small per-server vectors from snapshots taken at propose time; the
    cost of the pre-move state is kept, not recomputed.  Every committed
    move's undo log is kept in a journal until the next ``resync``, which
    recomputes the row caches of the videos the journal names and the
    per-server folds (and nothing when no move was committed: the caches
    are then exactly what the last rebuild left).  ``begin_walk`` /
    ``end_walk`` reuse the journal to cost the ``T0`` walk's states
    exactly and to undo the walk.
    """

    __slots__ = (
        "_p",
        "_state",
        "_M",
        "_N",
        "_probs_l",
        "_gb_l",
        "_bw_lim",
        "_cap_lim",
        "_top",
        "_lowest",
        "_R",
        "_max_sheds",
        "_cols",
        "_holders",
        "_raisable",
        "_sites",
        "_counts",
        "_row_sums",
        "_quality",
        "_weights",
        "_quality_sum",
        "_total_replicas",
        "_loads",
        "_storage",
        "_cost",
        "_pending_cost",
        "_log",
        "_journal",
        "_walk",
        "_loads_snap",
        "_storage_snap",
        "_qsum_snap",
        "_total_snap",
    )

    def __init__(self, problem: ScalableBitRateProblem, state: np.ndarray) -> None:
        self._p = problem
        self._state = np.array(state, dtype=np.float64, copy=True)
        self._M, self._N = self._state.shape
        # Static per-video/per-server tables as plain lists (no numpy
        # scalar boxing in the per-move updates).
        self._probs_l = problem._probs.tolist()
        self._gb_l = problem._gb_per_mbps.tolist()
        self._bw_lim = [
            bw + _SLACK
            for bw in np.asarray(problem._bandwidth, dtype=np.float64).tolist()
        ]
        self._cap_lim = [
            cap + _SLACK
            for cap in np.asarray(problem._storage_gb, dtype=np.float64).tolist()
        ]
        self._top = problem._max_rate - 1e-12
        self._R = float(problem._requests)
        self._max_sheds = self._M * problem._rates.size + 1
        self._log: list[tuple[int, int, float, int, float, float]] = []
        self._journal: list[list[tuple[int, int, float, int, float, float]]] = []
        # The exact caches: every write and rollback keeps them exact, so
        # they are built once here and never rebuilt.
        present = self._state > 0
        counts = present.sum(axis=1)
        if np.any(counts < 1):
            raise ValueError("state lost a video's last replica (Eq. 7)")
        # A shed scan may stop at the lowest allowed rate only when no
        # replica is below it; writes are 0 or allowed rates, so a start
        # without such a replica never gets one.
        below = present & (self._state < problem._min_rate)
        self._lowest = None if below.any() else problem._min_rate
        self._cols = self._state.T.tolist()
        self._holders = [column.nonzero()[0].tolist() for column in present.T]
        self._raisable = [
            problem._raisable(column, holders)
            for column, holders in zip(self._cols, self._holders)
        ]
        self._sites: list[list[int]] = [[] for _ in range(self._M)]
        for server, holders in enumerate(self._holders):
            for video in holders:
                self._sites[video].append(server)
        self._counts = counts.tolist()
        self._total_replicas = int(counts.sum())
        row_sums = self._state.sum(axis=1)
        self._row_sums = row_sums.tolist()
        self._quality = (row_sums / counts).tolist()
        self._weights = problem._probs / counts
        self._rebuild_folds()

    # -- IncrementalContext protocol ----------------------------------
    def cost(self) -> float:
        """Cost of the current state, kept across commits and rollbacks."""
        return self._cost

    def propose(self, rng: np.random.Generator) -> float | None:
        """Same neighborhood as the full path, evaluated from caches."""
        p = self._p
        server = int(rng.integers(self._N))
        column = self._cols[server]
        holders = self._holders[server]
        raisable = self._raisable[server]
        move = p._choose_move(column, holders, raisable, rng)
        if move is None:
            return None
        video, value = move
        if (
            any(map(gt, self._loads, self._bw_lim))
            or any(map(gt, self._storage, self._cap_lim))
        ) and self._doomed(server, video):
            return None
        self._log = []
        self._loads_snap = self._loads.copy()
        self._storage_snap = self._storage.copy()
        self._qsum_snap = self._quality_sum
        self._total_snap = self._total_replicas
        self._set(video, server, value)

        # Repair the server from its cached storage and load; O(1) checks.
        cap = self._cap_lim[server]
        bw = self._bw_lim[server]
        for _ in range(self._max_sheds):
            if self._storage[server] <= cap and self._loads[server] <= bw:
                break
            # A replica below the top rate that can shed beats every
            # top-rate one, so scan the raisable holders first.
            shed = p._choose_shed(
                column, raisable, self._counts, video, self._lowest
            ) or p._choose_shed(column, holders, self._counts, video, self._lowest)
            if shed is None:
                self.rollback()
                return None
            self._set(shed[0], server, shed[1])
        else:  # pragma: no cover - bounded by construction
            self.rollback()
            return None
        # Global feasibility re-check (repair shifts load to other
        # servers); O(N) against the cached vectors.
        if any(map(gt, self._loads, self._bw_lim)) or any(
            map(gt, self._storage, self._cap_lim)
        ):
            self.rollback()
            return None
        self._pending_cost = self._compute_cost()
        return self._pending_cost - self._cost

    def commit(self) -> None:
        self._journal.append(self._log)
        self._cost = self._pending_cost

    def rollback(self) -> None:
        self._undo(self._log)
        self._loads = self._loads_snap
        self._storage = self._storage_snap
        self._quality_sum = self._qsum_snap
        self._total_replicas = self._total_snap

    def resync(self) -> None:
        """Recompute the float caches from the state matrix (clears drift).

        Columns, holder lists and replica counts stay exact through every
        write and rollback.  A video's row caches change only through a
        committed move, so only the videos in the journal get their rate
        row sum, quality term and weight recomputed, through the same
        contiguous-row ``sum`` as a full rebuild; the per-server folds are
        rebuilt whole.  With an empty journal every cache already equals
        the last rebuild, and nothing is done."""
        if not self._journal:
            return
        dirty = list({entry[0] for log in self._journal for entry in log})
        self._journal = []
        counts = np.array([self._counts[video] for video in dirty])
        index = np.array(dirty)
        row_sums = self._state[index].sum(axis=1)
        quality = row_sums / counts
        self._weights[index] = self._p._probs[index] / counts
        cached_sums, cached_quality = self._row_sums, self._quality
        for video, row_sum, term in zip(dirty, row_sums.tolist(), quality.tolist()):
            cached_sums[video] = row_sum
            cached_quality[video] = term
        self._rebuild_folds()

    def export_state(self) -> np.ndarray:
        return self._state.copy()

    def begin_walk(self) -> None:
        """Start a walk: :meth:`end_walk` costs the states committed from
        here and undoes their moves."""
        self._walk = (
            len(self._journal),
            self._loads.copy(),
            self._storage.copy(),
            self._quality_sum,
            self._total_replicas,
            self._cost,
        )

    def end_walk(self) -> np.ndarray:
        """Exact costs of the walk's start and of each state it committed,
        in order, each bitwise equal to ``problem.cost`` of that state;
        the walk's moves are undone, so the context is bitwise what it was
        at :meth:`begin_walk`.

        A walk state differs from the start only in the rows its moves
        touched.  Each distinct row version (the start's ``M`` rows and
        every row a move left behind) is counted, summed and weighted
        once; an ``(K, M)`` index map assembles the ``K`` states' counts
        and row sums from them, and the load terms are folded over videos
        in an ``(M, K, N)`` layout (:func:`_sum_over_videos`) instead of
        ``K * M`` reductions only ``N`` long."""
        mark, loads, storage, quality_sum, total, cost = self._walk
        steps = self._journal[mark:]
        del self._journal[mark:]
        # Undo the walk from its last move, reading each move's touched
        # rows off the columns just before undoing it.
        cols = self._cols
        step_of: list[int] = []
        videos: list[int] = []
        rows: list[float] = []
        for step in range(len(steps), 0, -1):
            log = steps[step - 1]
            for video in {entry[0] for entry in log}:
                step_of.append(step)
                videos.append(video)
                rows += [column[video] for column in cols]
            self._undo(log)
        self._loads, self._storage = loads, storage
        self._quality_sum, self._total_replicas, self._cost = quality_sum, total, cost

        p = self._p
        M, N = self._M, self._N
        # The row versions, the start's M rows first, then the walk's in
        # step order; source[k, i] is the row holding video i in state k.
        step_of.reverse()
        videos.reverse()
        table = np.concatenate((self._state, np.reshape(rows, (-1, N))[::-1]))
        owner = np.arange(table.shape[0])
        owner[M:] = videos
        source = np.full((len(steps) + 1, M), -1, dtype=np.intp)
        source[0] = owner[:M]
        source[step_of, videos] = np.arange(M, table.shape[0])
        np.maximum.accumulate(source, axis=0, out=source)
        counts = (table > 0).sum(axis=-1)
        terms = (p._probs[owner] / counts)[:, None] * table
        loads = p._requests * _sum_over_videos(np.take(terms, source.T, axis=0))
        return p._costs_from(
            (table.sum(axis=-1) / counts)[source],
            counts[source].mean(axis=-1),
            loads,
        )

    # -- internals -----------------------------------------------------
    def _doomed(self, server: int, video: int) -> bool:
        """Whether a move on *server* that first writes *video* must fail
        the global feasibility check, from a state that breaks a bound.

        Another server's storage only changes with its own column, and
        its load only rises under the repair's deletions, unless the move
        adds a replica of a video it holds (the one way a move lowers
        another server's load).  Voiding such a move before it is applied
        draws nothing more and leaves the same state."""
        adds = self._cols[server][video] == 0.0
        for k, column in enumerate(self._cols):
            if k == server:
                continue
            if self._storage[k] > self._cap_lim[k]:
                return True
            if self._loads[k] > self._bw_lim[k] and not (adds and column[video]):
                return True
        return False

    def _undo(self, log: list[tuple[int, int, float, int, float, float]]) -> None:
        """Undo *log*'s writes, last first (bitwise)."""
        state = self._state
        cols = self._cols
        counts = self._counts
        row_sums = self._row_sums
        quality = self._quality
        top = self._top
        for video, server, old, c_old, rs_old, q_old in reversed(log):
            column = cols[server]
            value = column[video]
            if (value > 0.0) != (old > 0.0):
                if old > 0.0:
                    insort(self._holders[server], video)
                    insort(self._sites[video], server)
                else:
                    self._holders[server].remove(video)
                    self._sites[video].remove(server)
            raisable = 0.0 < old < top
            if raisable != (0.0 < value < top):
                if raisable:
                    insort(self._raisable[server], video)
                else:
                    self._raisable[server].remove(video)
            column[video] = old
            state[video, server] = old
            counts[video] = c_old
            row_sums[video] = rs_old
            quality[video] = q_old

    def _rebuild_folds(self) -> None:
        """Rebuild the quality sum, the per-server folds and the cost from
        the row caches and the state matrix."""
        p = self._p
        state = self._state
        self._quality_sum = float(sum(self._quality))
        self._loads = (
            p._requests * (self._weights[:, None] * state).sum(axis=0)
        ).tolist()
        self._storage = (state * p._gb_per_mbps[:, None]).sum(axis=0).tolist()
        self._cost = self._compute_cost()

    def _compute_cost(self) -> float:
        """Cost of the current state from the caches; O(N)."""
        loads = self._loads
        mean_load = sum(loads) / self._N
        if mean_load:
            worst = max(map(abs, map(sub, loads, repeat(mean_load))))
            imbalance = worst / mean_load
        else:
            imbalance = 0.0
        p = self._p
        objective = (
            (self._quality_sum / self._M) / p._max_rate
            + p._alpha * (self._total_replicas / self._M) / self._N
            - p._beta * imbalance
        )
        return -objective

    def _set(self, video: int, server: int, value: float) -> None:
        """Write one matrix entry and update every cache; O(N) worst case."""
        cols = self._cols
        column = cols[server]
        old = column[video]
        column[video] = value
        self._state[video, server] = value
        present = value > 0.0
        if present != (old > 0.0):
            if present:
                insort(self._holders[server], video)
                insort(self._sites[video], server)
            else:
                self._holders[server].remove(video)
                self._sites[video].remove(server)
        top = self._top
        raisable = 0.0 < value < top
        if raisable != (0.0 < old < top):
            if raisable:
                insort(self._raisable[server], video)
            else:
                self._raisable[server].remove(video)
        counts, row_sums, quality = self._counts, self._row_sums, self._quality
        c_old = counts[video]
        rs_old = row_sums[video]
        q_old = quality[video]
        self._log.append((video, server, old, c_old, rs_old, q_old))

        change = value - old
        c_new = c_old + (present - (old > 0.0))
        rs_new = rs_old + change
        q_new = rs_new / c_new
        counts[video] = c_new
        row_sums[video] = rs_new
        quality[video] = q_new
        self._quality_sum += q_new - q_old
        self._total_replicas += c_new - c_old
        self._storage[server] += self._gb_l[video] * change

        scaled = self._R * self._probs_l[video]
        loads = self._loads
        if c_new == c_old:
            loads[server] += scaled * change / c_old
        else:
            # Replica-count change redistributes the video's weight across
            # the servers holding it.
            inv_new = 1.0 / c_new
            inv_old = 1.0 / c_old
            loads[server] += scaled * (value * inv_new - old * inv_old)
            step = inv_new - inv_old
            for k in self._sites[video]:
                if k != server:
                    loads[k] += scaled * cols[k][video] * step
