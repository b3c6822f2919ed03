"""Vectorized event-batch DES engine (the ``vector`` lockstep loop).

:class:`VectorClusterSimulator` is the fourth lockstep engine of the
registry (after the optimized, reference and audited ones): it produces
bit-identical :class:`~repro.cluster_sim.metrics.SimulationResult` fields
on every workload, but replaces the per-event Python loop with numpy
batch operations over the shared :class:`~repro.cluster_sim.soa.RequestSoA`
columns.

Why the batching is exact
-------------------------
Under the paper's static round-robin policy (no chaos, no backbone) the
simulation *decomposes by server*: the dispatcher's per-video counters
advance once per serveable arrival regardless of server state, so every
request's candidate server is a pure function of its position in the
trace — computable up front, vectorized, for the whole run.  Departures
only ever touch the server that admitted the stream.  The global event
interleaving therefore never couples two servers, and each server's
timeline can be replayed independently as array operations:

1. **Assignment sweep** — a request's per-video occurrence rank picks
   its round-robin holder, gathered from the layout's cached
   ``holder_index``.  The ranks depend on the trace alone: they are a
   cached :attr:`~repro.workload.requests.RequestTrace.video_ranks`
   attribute, sorted once per trace however many layouts replay it.
   Dropping every request of a replica-less video leaves the other
   videos' ranks unchanged, and the ranks of the simulated prefix are the
   prefix of the ranks, so each run reads ``ranks[:n][serveable]``.
2. **Event grid** — one ``np.lexsort`` keyed by (server, time, phase,
   arrival index, arrival before departure) orders every arrival and
   in-horizon departure of the run, and the sorted events are scattered
   into a zero-padded ``(num_servers, longest row)`` grid, one row per
   server.  Every later step is a whole-grid operation along ``axis=1``;
   padding cells carry a zero delta and a "rejected" status, so they
   never touch a row's sums.  The grid holds ``num_servers`` times the
   busiest server's event count, which bounds the engine's extra
   memory.
3. **Admit-all exit, then the admission sandwich** — one row-wise
   ``cumsum`` folds every event's delta as if every request were
   admitted.  If no arrival exceeds its server's capacity (or stream
   limit) on that fold, every request *is* admitted, the fold is the
   exact replay of step 4, and the grid goes straight to the metrics;
   most runs below saturation end here.  Otherwise admission decisions
   are bracketed between two monotone occupancy bounds
   (all-undecided-admitted vs all-undecided-rejected, each one row-wise
   ``cumsum``); the admit-all fold is round 1's high bound, and round
   1's low bound is zero.  A request certainly fits under the high
   bound or certainly overflows under the low bound, and the earliest
   undecided request always resolves, so the iteration converges —
   typically in one round on unsaturated servers.  A row that makes no
   progress in a round, or is still open after ``_MAX_ROUNDS``
   productive rounds (sustained saturation), leaves the grid
   uncertified.
4. **Exact replay and verification** — with decisions fixed, each
   server's running occupancy is one row of ``np.cumsum(..., axis=1)``
   over the admitted ±rate deltas in event order.  ``cumsum`` is a
   sequential left fold per row, so every partial sum is bit-for-bit
   the scalar loop's ``used_mbps`` sequence; the load integral, peak
   and admission checks are re-derived from it with the same float
   operations (``x + 0.0`` terms for untouched cells and skipped
   zero-dt touches are IEEE identities, so unconditional adds stay
   exact).  The replay re-checks every decision against the exact
   occupancies (on the admit-all exit, the exit test itself is that
   check) and that no departure drives a server negative (the scalar
   loops clamp float residue there).  A grid that fails either check —
   e.g. a mixed-rate layout whose residues would clamp — is uncertified
   too.  An uncertified grid hands the whole run to the optimized loop
   (``delegated == "grid"``); the engine is exact-or-delegated, never
   approximately vectorized.

Configurations outside the decomposition (dynamic dispatchers couple
servers through load inspection, chaos mutates replica state, the
backbone scans every server) delegate to the optimized loop too, keeping
lockstep equivalence trivial there by construction; the result's
``delegated`` field names the reason, and is ``""`` exactly when the
batched path produced the result.  An observer does not delegate: it is
folded after the run from the certified grid's admitted streams
(:mod:`.observation`), the table the optimized loop's record decodes to.
``tests/test_vector_engine.py`` enforces equivalence over randomized
crossings and the full pinned fuzz corpus.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .._validation import check_positive
from ..workload.requests import narrow_sort_key
from .dispatch import StaticRoundRobinDispatcher
from .metrics import SimulationResult
from .observation import StreamTable, observe_run
from .simulator import VoDClusterSimulator
from .soa import RequestSoA

__all__ = ["VectorClusterSimulator"]

_EPS_MBPS = 1e-6

#: Admission-sandwich budget of productive rounds; a grid with a row
#: still undecided after it (sustained saturation) is uncertified and the
#: run takes the optimized loop instead.
_MAX_ROUNDS = 24


def _partial_sums(deltas: np.ndarray):
    """Each row's left fold of *deltas*: the sums before and after each cell.

    ``np.cumsum(..., axis=1)`` is a sequential left fold per row, so every
    partial sum is bit for bit the scalar loop's running value.
    """
    sums = np.zeros((deltas.shape[0], deltas.shape[1] + 1))
    np.cumsum(deltas, axis=1, out=sums[:, 1:])
    return sums[:, :-1], sums[:, 1:]


def _sandwich(na, g_aidx, g_isarr, g_signed, capeps, fits, g_streams, maxs):
    """Decide the grid's *na* arrivals; ``None`` if some row cannot be.

    Returns ``status``: 0 open, 1 admit, 2 reject per arrival, plus the
    padding cells' trailing sentinel ("rejected").  Undecided requests
    are bracketed between the all-undecided-admitted (high) and
    all-undecided-rejected (low) occupancy bounds; occupancy is monotone
    in the admitted set, so passing under high / overflowing under low is
    definitive.  The earliest undecided request sees coinciding bounds and
    always resolves.  A row that makes no progress, or is still open
    after ``_MAX_ROUNDS`` productive rounds (a saturated server), leaves
    the grid undecided.

    Round 1's high bound is the admit-all fold, whose admission checks
    are *fits*; with nothing admitted yet its low bound is zero.
    *g_streams* and *maxs* are ``None`` without stream limits.
    """
    status = np.zeros(na + 1, dtype=np.int8)
    status[na] = 2
    rows = np.arange(g_aidx.shape[0])
    for round_ in range(_MAX_ROUNDS):
        if not rows.size:
            break
        aidx = g_aidx[rows]
        if round_:
            signed = g_signed[rows]
            cap = capeps[rows]
            stat = status[aidx]
            open_ = g_isarr[rows] & (stat == 0)
            inc_high = stat != 2
            inc_low = stat == 1
            high, _ = _partial_sums(np.where(inc_high, signed, 0.0))
            low, _ = _partial_sums(np.where(inc_low, signed, 0.0))
            ok_high = high + signed <= cap
            bad_low = low + signed > cap
            if maxs is not None:
                streams = g_streams[rows]
                st_high = np.where(inc_high, streams, 0)
                st_low = np.where(inc_low, streams, 0)
                ok_high &= np.cumsum(st_high, axis=1) - st_high < maxs[rows]
                bad_low |= np.cumsum(st_low, axis=1) - st_low >= maxs[rows]
        else:
            open_ = g_isarr
            ok_high = fits
            bad_low = g_signed > capeps
            if maxs is not None:
                bad_low |= maxs <= 0
        newly_adm = open_ & ok_high
        newly_rej = open_ & bad_low & ~ok_high
        status[aidx[newly_adm]] = 1
        status[aidx[newly_rej]] = 2
        decided = newly_adm | newly_rej
        pending = (open_ & ~decided).any(axis=1)
        if (pending & ~decided.any(axis=1)).any():
            return None
        rows = rows[pending]
    return None if rows.size else status


class _GridOutcome(NamedTuple):
    """The grid replay: per-request admissions, per-server metrics and
    the departures processed."""

    admitted: np.ndarray
    peak: np.ndarray
    integral: np.ndarray
    deps_processed: int


class VectorClusterSimulator(VoDClusterSimulator):
    """Batch-vectorized simulator; same constructor, same results."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Per-layout dispatch tables, shared by every run: each video's
        # replica count, and whether its requests reach the dispatcher at
        # all (a replica-less video is rejected before dispatch, with no
        # counter tick).
        self._replica_counts = np.diff(self._layout.holder_index.indptr)
        self._serveable_videos = (self._best_rates > 0.0) & (
            self._replica_counts > 0
        )

    def run(
        self,
        trace,
        *,
        horizon_min=None,
        failures=None,
        failover_on_down=False,
        failover=None,
        rereplication=None,
        auditors=None,
        observer=None,
    ) -> SimulationResult:
        """Simulate one trace; batched when the config decomposes.

        The batched path engages for the paper's base model — static
        round robin, no failure schedule, no backbone — which is the
        throughput-critical configuration, observed or not: an observer
        is folded from the certified grid's stream table.  Everything
        else (dynamic dispatchers, chaos, redirection, auditing), and a
        base-model run whose grid cannot be certified exact, runs the
        optimized event loop, so results are lockstep-identical across
        the whole configuration space either way.  The result records
        which path ran: ``delegated`` is ``""`` on the batched path and
        names the reason otherwise (:meth:`_delegation_reason`, or
        ``"grid"``).
        """
        reason = self._delegation_reason(failures, auditors)
        if not reason:
            result = self._run_batched(trace, horizon_min, observer)
            if result is not None:
                return result
            reason = "grid"
        result, record = self._run(
            trace,
            horizon_min=horizon_min,
            failures=failures,
            failover_on_down=failover_on_down,
            failover=failover,
            rereplication=rereplication,
            delegated=reason,
        )
        return self._finish(result, record, auditors, observer)

    def _delegation_reason(self, failures, auditors) -> str:
        """Why a run must take the optimized loop; ``""`` when it batches.

        The first that applies of ``auditors``, ``failures``,
        ``backbone`` and ``dispatcher``.  A run that batches can still be
        delegated afterwards, as ``grid``, when its grid is uncertified
        (see :meth:`_solve_grid`).
        """
        if auditors:
            return "auditors"
        if failures is not None and len(failures) > 0:
            return "failures"
        if self._backbone_mbps > 0:
            return "backbone"
        if self._dispatcher_factory is not StaticRoundRobinDispatcher:
            return "dispatcher"
        return ""

    # ------------------------------------------------------------------
    def _run_batched(
        self, trace, horizon_min, observer
    ) -> "SimulationResult | None":
        """The batched path; ``None`` when the grid is uncertified."""
        start_wall = time.perf_counter()
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)
        horizon_min = float(horizon_min)

        num_servers = self._cluster.num_servers
        num_videos = self._videos.num_videos

        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        n = soa.num_simulated
        times = soa.times[:n].astype(np.float64, copy=False)
        videos = soa.videos[:n]
        holds = soa.holds[:n].astype(np.float64, copy=False)

        indptr, holders, replica_rates = self._layout.holder_index
        # Every serveable request consumes one round-robin tick and lands
        # on exactly one candidate server: its video's holder number
        # ``rank % replicas``, with the trace's own ranks (step 1).
        serveable = self._serveable_videos[videos]
        vs = videos[serveable]
        ts = times[serveable]
        if vs.size:
            occ = trace.video_ranks[:n][serveable]
            replica = indptr[vs] + occ % self._replica_counts[vs]
            sid = holders[replica]
            rates = replica_rates[replica]
            ends = ts + holds[serveable]
            grid = self._solve_grid(sid, ts, rates, ends, horizon_min)
            if grid is None:
                return None
            admitted_sub, server_peak, server_integral, deps_processed = grid
        else:
            sid = ends = rates = np.zeros(0, dtype=np.int64)
            admitted_sub = np.zeros(0, dtype=bool)
            server_peak = np.zeros(num_servers)
            server_integral = np.zeros(num_servers)
            deps_processed = 0

        per_video_requests = np.bincount(
            videos, minlength=num_videos
        ).astype(np.int64, copy=False)
        server_served = np.bincount(
            sid[admitted_sub], minlength=num_servers
        ).astype(np.int64, copy=False)

        rejected = np.ones(n, dtype=bool)
        serveable_idx = np.flatnonzero(serveable)
        rejected[serveable_idx[admitted_sub]] = False
        per_video_rejected = np.bincount(
            videos[rejected], minlength=num_videos
        ).astype(np.int64, copy=False)

        result = SimulationResult(
            num_requests=int(n),
            num_rejected=int(rejected.sum()),
            per_video_requests=per_video_requests,
            per_video_rejected=per_video_rejected,
            server_time_avg_load_mbps=server_integral / horizon_min,
            server_peak_load_mbps=server_peak,
            server_served=server_served,
            server_bandwidth_mbps=self._cluster.bandwidth_mbps,
            horizon_min=horizon_min,
            num_redirected=0,
            streams_dropped=0,
            num_truncated=soa.num_truncated,
            num_events=int(n) + deps_processed,
            wall_time_sec=time.perf_counter() - start_wall,
        )
        if observer is not None:
            # The grid's admitted streams, in arrival order: the table the
            # optimized loop's record would decode to.
            picked = (serveable_idx, ts, ends, sid, rates)
            none = np.zeros(np.count_nonzero(admitted_sub), dtype=bool)
            table = StreamTable(*(a[admitted_sub] for a in picked), *[none] * 3)
            bandwidth = self._cluster.bandwidth_mbps.tolist()
            observe_run(observer, result, table, soa, ~rejected, (), bandwidth)
        return result

    # ------------------------------------------------------------------
    def _solve_grid(self, sid, ts, rates, ends, horizon) -> "_GridOutcome | None":
        """Replay every server at once, one grid row per server.

        *sid*, *ts*, *rates* and *ends* describe the dispatched requests
        in arrival order: server, arrival time, replica rate (``> 0``,
        like every replica rate of a layout) and departure time.  Returns
        ``None`` when the replay cannot be certified exact: the sandwich
        leaves a row undecided, a decision disagrees with the exact
        occupancies, or an admitted departure drives a row negative.
        """
        num_servers = self._cluster.num_servers
        na = sid.size
        limits = self._stream_limits

        # Event order, matching the heap's rules.  Departures at time
        # ``d`` are processed before an arrival at ``t`` whenever
        # ``d <= t`` (phase 0) — except a zero-hold stream's own
        # departure, which is pushed only when its arrival is admitted
        # and so pops just after it (phase 1, like every arrival).
        # Equal-time departures pop in admission order.  Departures past
        # the horizon are never popped and carry their bandwidth to the
        # edge; they are left out entirely.  Under (server, time) the
        # ``tie`` key orders by phase, then arrival index, then arrival
        # before departure, folded into one integer.
        dep = np.flatnonzero(ends <= horizon)
        dep_t = ends[dep]
        n_ev = na + dep.size
        ev_server = np.concatenate((sid, sid[dep]))
        ev_time = np.concatenate((ts, dep_t, [0.0]))
        ev_aidx = np.concatenate((np.arange(na), dep, [na]))
        ev_signed = np.concatenate((rates, -rates[dep], [0.0]))
        tie = 2 * np.concatenate(
            (ev_aidx[:na] + na, dep + na * (dep_t == ts[dep]))
        )
        tie[na:] += 1
        order = np.lexsort(
            (tie, ev_time[:n_ev], narrow_sort_key(ev_server, num_servers))
        )

        # Scatter the sorted events into a zero-padded (server x longest
        # row) grid of indices into the event columns; padding cells
        # point at each column's trailing sentinel (arrival index ``na``,
        # whose status is "rejected", and a zero delta).
        counts = np.bincount(ev_server, minlength=num_servers)
        width = int(counts.max())
        row = ev_server[order]
        col = np.arange(n_ev) - (np.cumsum(counts) - counts)[row]
        src = np.full(num_servers * width, n_ev)
        src[row * width + col] = order
        src = src.reshape(num_servers, width)
        g_isarr = src < na
        g_real = src < n_ev
        g_aidx = ev_aidx[src]
        g_signed = ev_signed[src]
        capeps = (self._cluster.bandwidth_mbps + _EPS_MBPS)[:, None]
        g_streams = maxs = None
        if limits is not None:
            # +1 per arrival, -1 per departure, 0 on padding.
            g_streams = np.where(g_isarr, 1, -1) * g_real
            maxs = np.asarray(limits)[:, None]

        # Admit-all fold: every event's delta, as if every request were
        # admitted.  ``run`` is ``before + g_signed`` bit for bit (the
        # fold's own step), so ``fits`` is each arrival's admission check
        # on it.  With nothing decided yet this is the sandwich's first
        # high bound; when every arrival fits on it, admitting every
        # request *is* the exact replay and the sandwich is skipped.
        before, run = _partial_sums(g_signed)
        fits = run <= capeps
        if limits is not None:
            fits &= np.cumsum(g_streams, axis=1) - g_streams < maxs
        if (g_isarr & ~fits).any():
            status = _sandwich(
                na, g_aidx, g_isarr, g_signed, capeps, fits, g_streams, maxs
            )
            if status is None:
                return None
            # Exact replay over the decided set: admitted events carry
            # their deltas and everything else adds +0.0, an IEEE
            # identity.  Every arrival is re-checked against the exact
            # occupancy sequence (the sandwich used bounds, and float
            # non-associativity can flip an on-the-boundary call).
            adm = status[g_aidx] == 1
            before, run = _partial_sums(np.where(adm, g_signed, 0.0))
            fits = before + g_signed <= capeps
            if limits is not None:
                st_delta = np.where(adm, g_streams, 0)
                fits &= np.cumsum(st_delta, axis=1) - st_delta < maxs
            if (g_isarr & (fits != adm)).any():
                return None
            admitted = status[:na] == 1
            deps_processed = int(np.count_nonzero(adm & ~g_isarr))
        else:
            adm = g_real
            admitted = np.ones(na, dtype=bool)
            deps_processed = int(dep.size)
        # The scalar loops clamp float residue where a departure drives a
        # server negative.  A row's first negative cell is always such a
        # departure (every other cell adds a positive rate or +0.0).
        if (run < 0.0).any():
            return None

        # Metrics, with the scalar loops' exact arithmetic: the load
        # integral is the left fold of ``used * dt`` over touch times
        # (zero-dt and untouched terms add +0.0), closed out by the final
        # advance to the horizon; the peak is the max occupancy right
        # after an admission.
        g_time = ev_time[src]
        last = np.zeros((num_servers, width + 1))
        np.maximum.accumulate(
            np.where(adm, g_time, 0.0), axis=1, out=last[:, 1:]
        )
        terms = np.where(adm, before * (g_time - last[:, :-1]), 0.0)
        integral = (
            np.cumsum(terms, axis=1)[:, -1]
            + run[:, -1] * (horizon - last[:, -1])
        )
        peak = np.where(adm & g_isarr, run, 0.0).max(axis=1)
        return _GridOutcome(admitted, peak, integral, deps_processed)
