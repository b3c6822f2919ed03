"""Vectorized event-batch DES engine (the ``vector`` lockstep loop).

:class:`VectorClusterSimulator` is the third lockstep engine (after the
optimized and reference loops): it produces bit-identical
:class:`~repro.cluster_sim.metrics.SimulationResult` fields on every
workload, but replaces the per-event Python loop with numpy batch
operations over the shared :class:`~repro.cluster_sim.soa.RequestSoA`
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

1. **Assignment sweep** — per-video occurrence ranks over the arrival
   columns give each request its round-robin holder in one stable sort,
   gathered from the layout's cached ``holder_index``.
2. **Admission sandwich** — per server, admission decisions are bracketed
   between two monotone occupancy bounds (all-undecided-admitted vs
   all-undecided-rejected, both one ``cumsum`` over the merged
   arrival/departure event order); a request certainly fits under the
   high bound or certainly overflows under the low bound, and the
   earliest undecided request always resolves, so the iteration
   converges — typically in one round on unsaturated servers.
3. **Exact replay** — with decisions fixed, the server's running
   occupancy is one ``np.cumsum`` over the admitted ±rate deltas in
   event order.  ``cumsum`` is a sequential left fold, so every partial
   sum is bit-for-bit the scalar loop's ``used_mbps`` sequence; the load
   integral, peak and admission checks are re-derived from it with the
   same float operations (``x + 0.0`` terms for skipped zero-dt touches
   are IEEE identities, so unconditional adds stay exact).
4. **Verification** — the replay re-checks every decision against the
   exact occupancies and that no departure drives a server negative
   (the scalar loops clamp float residue there).  Any mismatch — e.g. a
   mixed-rate layout whose residues would clamp — falls back to a
   per-server scalar replay that mirrors the optimized loop's arithmetic
   operation for operation, so the engine is exact-or-fallback, never
   approximately vectorized.

Configurations outside the decomposition (dynamic dispatchers couple
servers through load inspection, chaos mutates replica state, the
backbone scans every server, observers sample mid-run) delegate to the
optimized loop, keeping lockstep equivalence trivial there by
construction; the result's ``delegated`` field names the reason, and
``batched_servers``/``fallback_servers`` count the two replay kinds on
the batched path.  ``tests/test_vector_engine.py`` enforces equivalence over
randomized crossings and the full pinned fuzz corpus.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

import numpy as np

from .._validation import check_positive
from .dispatch import StaticRoundRobinDispatcher
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator
from .soa import RequestSoA

__all__ = ["VectorClusterSimulator"]

_EPS_MBPS = 1e-6

#: Admission-sandwich round budget per server; servers that resolve
#: slower (sustained saturation) take the exact scalar fallback instead.
_MAX_ROUNDS = 24


def _occurrence_ranks(values: np.ndarray) -> np.ndarray:
    """Rank of each element among equal values, in array order.

    ``[7, 3, 7, 7, 3] -> [0, 0, 1, 2, 1]`` — the per-video round-robin
    counter value each arrival observes.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=is_start[1:])
    idx = np.arange(n)
    group_start = np.maximum.accumulate(np.where(is_start, idx, 0))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = idx - group_start
    return ranks


class _ServerOutcome:
    """Per-server replay result (admissions plus closed-out metrics)."""

    __slots__ = ("admitted", "served", "peak", "integral", "deps_processed")

    def __init__(self, admitted, served, peak, integral, deps_processed):
        self.admitted = admitted
        self.served = served
        self.peak = peak
        self.integral = integral
        self.deps_processed = deps_processed


class VectorClusterSimulator(VoDClusterSimulator):
    """Batch-vectorized simulator; same constructor, same results."""

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
        throughput-critical configuration.  Everything else (dynamic
        dispatchers, chaos, redirection, observation, auditing) runs the
        optimized event loop, so results are lockstep-identical across
        the whole configuration space either way.  The result records
        which path ran: ``batched_servers``/``fallback_servers`` on the
        batched path, the reason from :meth:`_delegation_reason` otherwise.
        """
        reason = self._delegation_reason(failures, auditors, observer)
        if not reason:
            return self._run_batched(trace, horizon_min)
        result, record = self._run(
            trace,
            horizon_min=horizon_min,
            failures=failures,
            failover_on_down=failover_on_down,
            failover=failover,
            rereplication=rereplication,
            observer=observer,
            delegated=reason,
        )
        return self._audit(result, record, auditors)

    def _delegation_reason(self, failures, auditors, observer) -> str:
        """Why a run must take the optimized loop; ``""`` when it batches.

        The first that applies of ``observer``, ``auditors``,
        ``failures``, ``backbone`` and ``dispatcher``.
        """
        if observer is not None:
            return "observer"
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
    def _run_batched(self, trace, horizon_min) -> SimulationResult:
        start_wall = time.perf_counter()
        if horizon_min is None:
            horizon_min = trace.duration_min if trace.num_requests else 1.0
        check_positive("horizon_min", horizon_min)
        horizon_min = float(horizon_min)

        num_servers = self._cluster.num_servers
        num_videos = self._videos.num_videos
        bandwidth = self._cluster.bandwidth_mbps
        limits = self._stream_limits

        soa = RequestSoA.from_trace(trace, self._durations, horizon_min)
        n = soa.num_simulated
        times = soa.times[:n].astype(np.float64, copy=False)
        videos = soa.videos[:n]
        holds = soa.holds[:n].astype(np.float64, copy=False)

        per_video_requests = np.bincount(
            videos, minlength=num_videos
        ).astype(np.int64, copy=False)

        indptr, holders, replica_rates = self._layout.holder_index
        hcounts = np.diff(indptr)
        # A request for a replica-less video is rejected before dispatch
        # (no counter tick); everything else consumes one round-robin
        # tick and lands on exactly one candidate server.
        serveable = (self._best_rates[videos] > 0.0) & (hcounts[videos] > 0)
        vs = videos[serveable]
        ts = times[serveable]
        ends = ts + holds[serveable]
        if vs.size:
            occ = _occurrence_ranks(vs)
            replica = indptr[vs] + occ % hcounts[vs]
            sid = holders[replica]
            rates = replica_rates[replica]
        else:
            sid = np.zeros(0, dtype=np.int64)
            rates = np.zeros(0)

        admitted_sub = np.zeros(vs.size, dtype=bool)
        server_peak = np.zeros(num_servers)
        server_integral = np.zeros(num_servers)
        server_served = np.zeros(num_servers, dtype=np.int64)
        deps_processed = 0
        fallback_servers = 0

        if vs.size:
            order_s = np.argsort(sid, kind="stable")
            counts = np.bincount(sid, minlength=num_servers)
            bounds = np.zeros(num_servers + 1, dtype=np.intp)
            np.cumsum(counts, out=bounds[1:])
            for k in range(num_servers):
                a, b = int(bounds[k]), int(bounds[k + 1])
                if a == b:
                    continue
                sel = order_s[a:b]
                cap = float(bandwidth[k])
                maxs = limits[k] if limits is not None else None
                outcome = self._solve_server(
                    ts[sel], rates[sel], ends[sel], cap, maxs, horizon_min
                )
                if outcome is None:
                    fallback_servers += 1
                    outcome = self._scalar_server(
                        ts[sel], rates[sel], ends[sel], cap, maxs,
                        horizon_min,
                    )
                admitted_sub[sel] = outcome.admitted
                server_served[k] = outcome.served
                server_peak[k] = outcome.peak
                server_integral[k] = outcome.integral
                deps_processed += outcome.deps_processed

        rejected = np.ones(n, dtype=bool)
        serveable_idx = np.flatnonzero(serveable)
        rejected[serveable_idx[admitted_sub]] = False
        per_video_rejected = np.bincount(
            videos[rejected], minlength=num_videos
        ).astype(np.int64, copy=False)

        return SimulationResult(
            num_requests=int(n),
            num_rejected=int(rejected.sum()),
            per_video_requests=per_video_requests,
            per_video_rejected=per_video_rejected,
            server_time_avg_load_mbps=server_integral / horizon_min,
            server_peak_load_mbps=server_peak,
            server_served=server_served,
            server_bandwidth_mbps=bandwidth,
            horizon_min=horizon_min,
            num_redirected=0,
            streams_dropped=0,
            num_truncated=soa.num_truncated,
            num_events=int(n) + int(deps_processed),
            wall_time_sec=time.perf_counter() - start_wall,
            batched_servers=num_servers - fallback_servers,
            fallback_servers=fallback_servers,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _merged_events(at, ar, ae, horizon):
        """One server's tentative event order, matching the heap's rules.

        Departures at time ``d`` are processed before an arrival at ``t``
        whenever ``d <= t`` — except a zero-hold stream's own departure,
        which is pushed only when its arrival is admitted and so pops
        just after it.  Equal-time departures pop in admission (seq)
        order.  Departures past the horizon are never popped and carry
        their bandwidth to the edge; they are left out entirely.
        """
        na = at.size
        dep = np.flatnonzero(ae <= horizon)
        ev_time = np.concatenate((at, ae[dep]))
        ev_aidx = np.concatenate((np.arange(na, dtype=np.intp), dep))
        ev_is_arr = np.zeros(ev_time.size, dtype=bool)
        ev_is_arr[:na] = True
        # phase 0: departures popped before same-time arrivals; phase 1:
        # arrivals interleaved with their own zero-hold departures.
        phase = np.ones(ev_time.size, dtype=np.int8)
        phase[na:] = (ae[dep] == at[dep]).astype(np.int8)
        sub = np.zeros(ev_time.size, dtype=np.int8)
        sub[na:] = 1
        order = np.lexsort((sub, ev_aidx, phase, ev_time))
        return (
            ev_time[order],
            ev_aidx[order],
            ev_is_arr[order],
            ar[ev_aidx[order]],
        )

    # ------------------------------------------------------------------
    def _solve_server(self, at, ar, ae, cap, maxs, horizon):
        """Vectorized replay of one server; ``None`` -> scalar fallback."""
        time_o, aidx_o, isarr_o, rate_o = self._merged_events(
            at, ar, ae, horizon
        )
        signed = np.where(isarr_o, rate_o, -rate_o)
        arr_pos = np.flatnonzero(isarr_o)
        na = at.size
        eps = _EPS_MBPS
        check_streams = maxs is not None
        if check_streams:
            signed_st = np.where(isarr_o, 1, -1)

        # Admission sandwich: bracket undecided requests between the
        # all-undecided-admitted (high) and all-undecided-rejected (low)
        # occupancy bounds; occupancy is monotone in the admitted set, so
        # passing under high / overflowing under low is definitive.  The
        # earliest undecided request sees coinciding bounds and always
        # resolves, so the loop terminates; the round budget bails to the
        # scalar fallback on slow (saturated) servers instead of looping.
        status = np.zeros(na, dtype=np.int8)  # 0 open, 1 admit, 2 reject
        status[~(ar > 0.0)] = 2
        for _ in range(_MAX_ROUNDS):
            open_mask = status == 0
            if not open_mask.any():
                break
            stat_ev = status[aidx_o]
            inc_high = stat_ev != 2
            inc_low = stat_ev == 1
            run_high = np.cumsum(np.where(inc_high, signed, 0.0))
            run_low = np.cumsum(np.where(inc_low, signed, 0.0))
            before_high = np.concatenate(([0.0], run_high))[arr_pos]
            before_low = np.concatenate(([0.0], run_low))[arr_pos]
            ok_high = before_high + ar <= cap + eps
            bad_low = before_low + ar > cap + eps
            if check_streams:
                st_high = np.cumsum(np.where(inc_high, signed_st, 0))
                st_low = np.cumsum(np.where(inc_low, signed_st, 0))
                ok_high &= np.concatenate(([0], st_high))[arr_pos] < maxs
                bad_low |= np.concatenate(([0], st_low))[arr_pos] >= maxs
            newly_adm = open_mask & ok_high
            newly_rej = open_mask & bad_low & ~ok_high
            if not (newly_adm.any() or newly_rej.any()):
                return None
            status[newly_adm] = 1
            status[newly_rej] = 2
        else:
            return None

        admitted = status == 1
        # Exact replay over the decided set: admitted events carry their
        # deltas, rejected-but-serveable arrivals ride along as zero-delta
        # probes so their rejection can be re-checked against the exact
        # state, and everything else drops out.
        adm_ev = admitted[aidx_o]
        probe_ev = isarr_o & ~adm_ev & (rate_o > 0.0)
        include = adm_ev | probe_ev
        time_f = time_o[include]
        aidx_f = aidx_o[include]
        isarr_f = isarr_o[include]
        touch_f = adm_ev[include]
        delta = np.where(touch_f, signed[include], 0.0)
        run = np.cumsum(delta)
        before = np.concatenate(([0.0], run))[:-1] if run.size else run

        dep_f = ~isarr_f
        if bool((run[dep_f] < 0.0).any()) if run.size else False:
            # The scalar loops clamp float residue at departures; the
            # pure cumsum diverges there, so replay exactly instead.
            return None

        # Re-verify every decision against the exact occupancy sequence;
        # the sandwich used bounds, and float non-associativity can flip
        # an on-the-boundary call.  A single mismatch invalidates the
        # whole server (later state depends on it): scalar fallback.
        f_arr = np.flatnonzero(isarr_f)
        fits = before[f_arr] + ar[aidx_f[f_arr]] <= cap + eps
        if check_streams:
            st_run = np.cumsum(np.where(touch_f, np.where(isarr_f, 1, -1), 0))
            st_before = np.concatenate(([0], st_run))[:-1]
            fits &= st_before[f_arr] < maxs
        if bool((fits != touch_f[f_arr]).any()):
            return None

        # Metrics, with the scalar loops' exact arithmetic: the load
        # integral is the left fold of ``used * dt`` over touch times
        # (zero-dt terms add +0.0, an IEEE identity), closed out by the
        # final advance to the horizon; the peak is the max occupancy
        # right after an admission.
        tt = time_f[touch_f]
        used_end = float(run[-1]) if run.size else 0.0
        last_t = float(tt[-1]) if tt.size else 0.0
        if tt.size:
            prev = np.concatenate(([0.0], tt[:-1]))
            terms = before[touch_f] * (tt - prev)
        else:
            terms = np.zeros(0)
        closing = used_end * (horizon - last_t)
        integral = float(
            np.cumsum(np.concatenate((terms, [closing])))[-1]
        )
        adm_arr = run[isarr_f & touch_f]
        peak = float(adm_arr.max()) if adm_arr.size else 0.0
        if peak < 0.0:
            peak = 0.0
        return _ServerOutcome(
            admitted,
            int(admitted.sum()),
            peak,
            integral,
            int(dep_f.sum()),
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _scalar_server(at, ar, ae, cap, maxs, horizon):
        """Exact per-server scalar replay (the optimized loop's ops)."""
        eps = _EPS_MBPS
        na = at.size
        at_l = at.tolist()
        ar_l = ar.tolist()
        ae_l = ae.tolist()
        admitted = np.zeros(na, dtype=bool)
        used = 0.0
        streams = 0
        served = 0
        peak = 0.0
        integral = 0.0
        last = 0.0
        deps = 0
        heap: list = []
        for i in range(na):
            t = at_l[i]
            while heap and heap[0][0] <= t:
                etime, _, rate = heappop(heap)
                deps += 1
                if etime > last:
                    integral += used * (etime - last)
                    last = etime
                used -= rate
                if used < 0.0:
                    if used < -eps:
                        raise RuntimeError(
                            "server bandwidth accounting went negative"
                        )
                    used = 0.0
                streams -= 1
            rate = ar_l[i]
            if rate > 0.0 and used + rate <= cap + eps and (
                maxs is None or streams < maxs
            ):
                if t > last:
                    integral += used * (t - last)
                    last = t
                used += rate
                streams += 1
                served += 1
                if used > peak:
                    peak = used
                admitted[i] = True
                end = ae_l[i]
                if end <= horizon:
                    heappush(heap, (end, i, rate))
        while heap and heap[0][0] <= horizon:
            etime, _, rate = heappop(heap)
            deps += 1
            if etime > last:
                integral += used * (etime - last)
                last = etime
            used -= rate
            if used < 0.0:
                if used < -eps:
                    raise RuntimeError(
                        "server bandwidth accounting went negative"
                    )
                used = 0.0
            streams -= 1
        if horizon > last:
            integral += used * (horizon - last)
        return _ServerOutcome(admitted, served, peak, integral, deps)
