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
   dispatch of ``lambda * T`` requests.  ``cost`` also takes a
   ``(K, M, N)`` stack of states and returns their ``K`` costs, each equal
   bit for bit to the cost of its matrix (the engine's ``T0`` walk costs
   all its states in one call).
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
rate column and its ascending holder list (the videos with a replica there)
and return the ``(video, new rate)`` entry to write.  The incremental context
keeps a holder list and a plain-float rate column per server exact through
every write and rollback; the full path rebuilds them from its matrix copy
on every proposal.  Both paths therefore consume identical
rng sequences by construction.  The context evaluates each move by updating
cached per-video replica counts/rate sums and per-server load/storage
vectors in O(touched entries) instead of copying and rescanning the
``(M, N)`` state, while the full path recomputes cost and feasibility from
the matrix.  Rolled-back moves restore the state bitwise; the accumulated
float caches (rate sums, quality terms, loads, storage) are rebuilt by the
engine's ``resync`` at level boundaries, so any accumulation drift stays
below the acceptance noise floor.  Columns, holder lists and replica counts
are exact and never need a rebuild.  The full-recompute path remains the
behavior oracle (``tests/test_annealing_incremental.py`` cross-checks
deltas, rollbacks, holder lists and end-to-end trajectories).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence

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

    def cost(self, state: np.ndarray) -> float | np.ndarray:
        """Negated normalized Eq. (1) objective (lower is better).

        *state* is one ``(M, N)`` matrix, or a ``(K, M, N)`` stack whose
        ``K`` costs come back as an array.  Every reduction runs along the
        same trailing axis either way, so each stacked cost equals the
        cost of its matrix bit for bit.
        """
        present = state > 0
        counts = present.sum(axis=-1)
        if np.any(counts < 1):
            raise ValueError("state lost a video's last replica (Eq. 7)")
        mean_rate = state.sum(axis=-1) / counts
        loads = self._server_loads(state, counts)
        mean_load = loads.mean(axis=-1)
        worst = np.abs(loads - mean_load[..., None]).max(axis=-1)
        imbalance = np.divide(
            worst, mean_load, out=np.zeros_like(worst), where=mean_load != 0
        )
        objective = (
            mean_rate.mean(axis=-1) / self.max_rate
            + self._alpha * counts.mean(axis=-1) / self._problem.num_servers
            - self._beta * imbalance
        )
        return float(-objective) if state.ndim == 2 else -objective

    def propose(
        self, state: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray | None:
        """One neighborhood move with constraint repair (see module doc)."""
        server = int(rng.integers(self._problem.num_servers))
        new_state = state.copy()
        column = new_state[:, server]
        move = self._choose_move(column, _holders(column), rng)
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
    # list and return the entry to write, so both consume the rng alike.

    def _choose_move(
        self,
        column: Sequence[float],
        holders: list[int],
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        """The raise-rate or add-video move on one server, as
        ``(video, new rate)``; None when the server admits neither."""
        top = self._max_rate - 1e-12
        raisable = [video for video in holders if column[video] < top]
        num_absent = self._num_videos - len(holders)
        moves = []
        if raisable:
            moves.append("raise")
        if num_absent:
            moves.append("add")
        if not moves:
            return None
        move = moves[int(rng.integers(len(moves)))]

        rates = self._rates_l
        if move == "raise":
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
    ) -> tuple[int, float] | None:
        """Decrease or delete the lowest-rate shedable replica on a server,
        as ``(video, new rate)``; None when nothing can be shed.

        One pass over the ascending holders keeps the lowest
        ``(rate, video)`` replica that can shed: one above the lowest rate
        (decreased) or one that is not its video's last (deleted).  A last
        replica at the lowest rate is protected by Eq. 7."""
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


class _IncrementalScalableState:
    """Delta-cost trajectory state for :class:`ScalableBitRateProblem`.

    Caches, per video: replica count (exact int), rate row sum, mean-rate
    quality term; per server: expected load and storage (Mb/s, GB), the
    ascending holder list and the rate column as plain floats; plus the
    quality-sum and total-replica scalars and the current cost.  One
    ``_set`` updates all of them in O(N + holders) worst case (a
    replica-count change touches the video's whole load row), so a
    Metropolis step costs O(touched entries) instead of the full O(M·N)
    rescan.

    Rollback restores the state matrix, the per-server columns and holder
    lists and the integer/row caches from the undo log (bitwise) and the
    small per-server vectors from snapshots taken at propose time; the
    cost of the pre-move state is kept, not recomputed.  The exact caches
    (columns, holder lists, counts, total replicas) are built once at
    construction; ``resync`` recomputes only the float caches from the
    matrix.
    """

    __slots__ = (
        "_p",
        "_state",
        "_M",
        "_N",
        "_probs_l",
        "_gb_l",
        "_bw_l",
        "_cap_l",
        "_R",
        "_max_sheds",
        "_cols",
        "_holders",
        "_counts",
        "_row_sums",
        "_quality",
        "_quality_sum",
        "_total_replicas",
        "_loads",
        "_storage",
        "_cost",
        "_pending_cost",
        "_log",
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
        self._bw_l = np.asarray(problem._bandwidth, dtype=np.float64).tolist()
        self._cap_l = np.asarray(problem._storage_gb, dtype=np.float64).tolist()
        self._R = float(problem._requests)
        self._max_sheds = self._M * problem._rates.size + 1
        self._log: list[tuple[int, int, float, int, float, float]] = []
        # The exact caches: every write and rollback keeps them exact, so
        # they are built once here and never rebuilt.
        present = self._state > 0
        counts = present.sum(axis=1)
        if np.any(counts < 1):
            raise ValueError("state lost a video's last replica (Eq. 7)")
        self._cols = self._state.T.tolist()
        self._holders = [column.nonzero()[0].tolist() for column in present.T]
        self._counts = counts.tolist()
        self._total_replicas = int(counts.sum())
        self.resync()

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
        move = p._choose_move(column, holders, rng)
        if move is None:
            return None
        self._log.clear()
        self._loads_snap = self._loads.copy()
        self._storage_snap = self._storage.copy()
        self._qsum_snap = self._quality_sum
        self._total_snap = self._total_replicas
        video, value = move
        self._set(video, server, value)

        # Repair the server from its cached storage and load; O(1) checks.
        cap = self._cap_l[server] + _SLACK
        bw = self._bw_l[server] + _SLACK
        for _ in range(self._max_sheds):
            if self._storage[server] <= cap and self._loads[server] <= bw:
                break
            shed = p._choose_shed(column, holders, self._counts, video)
            if shed is None:
                self.rollback()
                return None
            self._set(shed[0], server, shed[1])
        else:  # pragma: no cover - bounded by construction
            self.rollback()
            return None
        # Global feasibility re-check (repair shifts load to other
        # servers); O(N) against the cached vectors.
        bw_l, cap_l = self._bw_l, self._cap_l
        loads, storage = self._loads, self._storage
        for k in range(self._N):
            if loads[k] > bw_l[k] + _SLACK or storage[k] > cap_l[k] + _SLACK:
                self.rollback()
                return None
        self._pending_cost = self._compute_cost()
        return self._pending_cost - self._cost

    def commit(self) -> None:
        self._log.clear()
        self._cost = self._pending_cost

    def rollback(self) -> None:
        state = self._state
        cols = self._cols
        counts = self._counts
        row_sums = self._row_sums
        quality = self._quality
        for video, server, old, c_old, rs_old, q_old in reversed(self._log):
            column = cols[server]
            if (column[video] > 0.0) != (old > 0.0):
                if old > 0.0:
                    insort(self._holders[server], video)
                else:
                    self._holders[server].remove(video)
            column[video] = old
            state[video, server] = old
            counts[video] = c_old
            row_sums[video] = rs_old
            quality[video] = q_old
        self._log.clear()
        self._loads = self._loads_snap
        self._storage = self._storage_snap
        self._quality_sum = self._qsum_snap
        self._total_replicas = self._total_snap

    def resync(self) -> None:
        """Recompute the float caches from the state matrix (clears drift).

        Columns, holder lists and replica counts stay exact through every
        write and rollback, so only the accumulated floats are rebuilt."""
        state = self._state
        p = self._p
        counts = np.array(self._counts)
        row_sums = state.sum(axis=1)
        self._row_sums = row_sums.tolist()
        self._quality = (row_sums / counts).tolist()
        self._quality_sum = float(sum(self._quality))
        self._loads = p._server_loads(state, counts).tolist()
        self._storage = (state * p._gb_per_mbps[:, None]).sum(axis=0).tolist()
        self._log.clear()
        self._cost = self._compute_cost()

    def export_state(self, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return self._state.copy()
        out[...] = self._state
        return out

    # -- internals -----------------------------------------------------
    def _compute_cost(self) -> float:
        """Cost of the current state from the caches; O(N)."""
        loads = self._loads
        mean_load = sum(loads) / self._N
        if mean_load:
            worst = 0.0
            for load in loads:
                dev = load - mean_load
                if dev < 0.0:
                    dev = -dev
                if dev > worst:
                    worst = dev
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
        column = self._cols[server]
        old = column[video]
        column[video] = value
        self._state[video, server] = value
        if (old > 0.0) != (value > 0.0):
            if value > 0.0:
                insort(self._holders[server], video)
            else:
                self._holders[server].remove(video)
        c_old = self._counts[video]
        rs_old = self._row_sums[video]
        q_old = self._quality[video]
        self._log.append((video, server, old, c_old, rs_old, q_old))

        c_new = c_old + ((value > 0.0) - (old > 0.0))
        rs_new = rs_old + (value - old)
        q_new = rs_new / c_new
        self._counts[video] = c_new
        self._row_sums[video] = rs_new
        self._quality[video] = q_new
        self._quality_sum += q_new - q_old
        self._total_replicas += c_new - c_old
        self._storage[server] += self._gb_l[video] * (value - old)

        scaled = self._R * self._probs_l[video]
        loads = self._loads
        if c_new == c_old:
            loads[server] += scaled * (value - old) / c_old
        else:
            # Replica-count change redistributes the video's weight across
            # its whole row.
            inv_new = 1.0 / c_new
            inv_old = 1.0 / c_old
            cols = self._cols
            for k in range(self._N):
                if k == server:
                    loads[k] += scaled * (value * inv_new - old * inv_old)
                else:
                    rate_k = cols[k][video]
                    if rate_k:
                        loads[k] += scaled * rate_k * (inv_new - inv_old)
