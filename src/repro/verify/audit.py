"""Post-hoc invariant audit of one simulator run.

:func:`run_audited` runs the optimized kernel
(:meth:`VoDClusterSimulator._run`) — the very loop behind every plain
``run()``, so results are bit-identical by construction — and audits the
:class:`~repro.cluster_sim.simulator.RunRecord` it leaves behind.  From
the record's per-arrival decision codes and rare-path
crash/repair/delayed-start records, plus the request columns, every
shadow account is *reconstructed* vectorized: admission times, hold
times and rates (from the layout, not from the loop's bookkeeping), crash
drops replayed over the admission table, and every server's occupancy
peak from one grouped prefix-sum scan.  The reconstruction is independent of
``StreamingServer``'s bookkeeping, which is what lets the auditors catch
broken release/crash accounting.

Event-time monotonicity is checked where a past-dated event could be
*introduced*: out-of-order arrivals and negative holds (vectorized over
the request columns) and repairs dated before their crash (over the
crash/repair records), plus the clock watermark against the horizon.

The cost is the recording the kernel always does (one list store per
admission) plus the reconstruction; the overhead against a plain run is
not measured by the repository benchmark yet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster_sim.metrics import SimulationResult
from ..cluster_sim.redirection import BackboneLink
from ..cluster_sim.server import StreamingServer
from .auditors import InvariantAuditor, Violation, standard_auditors

__all__ = ["Trajectory", "AuditReport", "audit_record", "run_audited"]

_EPS_MBPS = 1e-6


class Trajectory:
    """Shadow account of one audited run (consumed by auditor ``finish``)."""

    __slots__ = (
        "horizon_min",
        "arrivals_total",
        "admitted",
        "rejected",
        "departed",
        "dropped",
        "active_end",
        "redirected",
        "events_audited",
        "last_event_time",
        "shadow_used",
        "shadow_streams",
        "load_integral",
        "shadow_backbone",
        "backbone_capacity_mbps",
        "backbone_used_mbps",
        "rate_matrix",
        "crash_records",
        "repair_records",
        "admission_times",
        "admission_servers",
    )

    def __init__(self, num_servers: int, horizon_min: float) -> None:
        self.horizon_min = horizon_min
        self.arrivals_total = 0
        self.admitted = 0
        self.rejected = 0
        self.departed = 0
        self.dropped = 0
        self.active_end = 0
        self.redirected = 0
        self.events_audited = 0
        self.last_event_time = 0.0
        self.shadow_used = [0.0] * num_servers
        self.shadow_streams = [0] * num_servers
        self.load_integral = [0.0] * num_servers
        self.shadow_backbone = 0.0
        self.backbone_capacity_mbps = 0.0
        self.backbone_used_mbps = 0.0
        self.rate_matrix: np.ndarray | None = None
        #: (time, server, occupied Mb/s) per crash / (time, server) per
        #: repair, plus the merged admission (time, server) arrays — the
        #: raw material of the failure/availability auditors.
        self.crash_records: list = []
        self.repair_records: list = []
        self.admission_times: np.ndarray | None = None
        self.admission_servers: np.ndarray | None = None


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audited run: violations plus audit statistics."""

    violations: tuple[Violation, ...]
    events_audited: int
    checks: tuple[str, ...]
    auditor_names: tuple[str, ...]
    admitted: int
    rejected: int
    departed: int
    dropped: int
    active_end: int

    @property
    def ok(self) -> bool:
        """True when every enabled invariant held on every event."""
        return not self.violations

    @property
    def num_violations(self) -> int:
        return len(self.violations)

    def raise_if_failed(self) -> None:
        """Raise :class:`InvariantViolation` when any check failed."""
        if self.violations:
            from .auditors import InvariantViolation

            raise InvariantViolation(list(self.violations))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"AuditReport({status}, events={self.events_audited}, "
            f"checks={'/'.join(self.checks)})"
        )


def _peak_time(
    starts: np.ndarray, ends: np.ndarray, deltas: np.ndarray
) -> tuple[float, float]:
    """Slow-path detailed sweep for one server: (peak, time of peak)."""
    times = np.concatenate((starts, ends))
    signed = np.concatenate((deltas, -deltas))
    order = np.lexsort((signed, times))
    running = np.cumsum(signed[order])
    at = int(np.argmax(running))
    return float(running[at]), float(times[order][at])


def _reconstruct(
    audit: Trajectory,
    violations: list[Violation],
    t0: np.ndarray,
    te: np.ndarray,
    sid: np.ndarray,
    rate: np.ndarray,
    red: np.ndarray,
    vid: np.ndarray,
    crash_records: list,
    servers: list[StreamingServer],
    backbones: "list[BackboneLink] | None",
    servers_per_pod: int,
    enabled: frozenset,
) -> None:
    """Rebuild every shadow account from the admission/crash tables."""
    num_servers = len(servers)
    H = audit.horizon_min

    # Crash effects: a stream admitted before a crash of its server whose
    # natural end lies past the crash was dropped at the crash instant.
    # Processing crashes in time order with an accumulating mask handles
    # repeated fail/recover cycles without tracking epochs explicitly.
    if crash_records:
        eff = te.copy()
        dropped = np.zeros(len(t0), dtype=bool)
        for time_min, server_id, used_at_crash in sorted(crash_records):
            hit = (
                (sid == server_id) & (t0 <= time_min) & (te > time_min)
                & ~dropped
            )
            if "accounting" in enabled:
                carried = float(rate[hit].sum())
                if abs(carried - used_at_crash) > _EPS_MBPS + 1e-9 * carried:
                    violations.append(
                        Violation(
                            "accounting",
                            time_min,
                            f"server {server_id} carried {used_at_crash:.9f} "
                            f"Mb/s at crash but its admitted streams sum to "
                            f"{carried:.9f}",
                        )
                    )
            eff[hit] = time_min
            dropped |= hit
        alive_end = ~dropped & (te > H)
        audit.departed = int((~dropped & (te <= H)).sum())
        audit.dropped = int(dropped.sum())
    else:
        eff = te
        alive_end = te > H
    audit.admitted = len(t0)
    audit.active_end = int(alive_end.sum())
    if not crash_records:
        audit.departed = audit.admitted - audit.active_end
    audit.redirected = int(red.sum())
    audit.shadow_used = np.bincount(
        sid, weights=rate * alive_end, minlength=num_servers
    ).tolist()
    audit.shadow_streams = (
        np.bincount(sid[alive_end], minlength=num_servers).astype(int).tolist()
    )
    audit.load_integral = np.bincount(
        sid,
        weights=rate * (np.minimum(eff, H) - t0),
        minlength=num_servers,
    ).tolist()
    # Backbone shadow accounts stay cluster-global (summed over pods);
    # the peak check below is the only per-pod reconstruction.
    audit.shadow_backbone = (
        float(rate[red & alive_end].sum()) if backbones is not None else 0.0
    )
    audit.backbone_used_mbps = (
        sum(b.used_mbps for b in backbones) if backbones is not None else 0.0
    )

    if "placement" in enabled and len(t0) and audit.rate_matrix is not None:
        # Every direct admission must land on a replica holder: its
        # reconstructed rate (gathered from the layout's rate matrix, not
        # from the loop's bookkeeping) must be positive.  All-positive
        # rates (the overwhelmingly common case) short-circuits in one
        # reduction.
        if not float(rate.min()) > 0.0:
            misplaced = ~red & ~(rate > 0.0)
            for index in np.flatnonzero(misplaced):
                violations.append(
                    Violation(
                        "placement",
                        float(t0[index]),
                        f"video {int(vid[index])} admitted on server "
                        f"{int(sid[index])} which holds no replica",
                    )
                )

    check_bw = "bandwidth" in enabled
    # Stream-count peaks are only worth reconstructing when some server
    # actually has a cap to compare against.
    check_cap = "stream_cap" in enabled and any(
        s.max_streams is not None for s in servers
    )
    check_acct = "accounting" in enabled
    if (check_bw or check_cap or check_acct) and len(t0):
        # Reconstruct each server's peak occupancy without a full event
        # sort.  Occupancy only increases at admissions, so the peak is
        # attained right after some admission i:
        #
        #   occ(i) = sum(rate_j : start_j <= start_i) - sum(rate_j : end_j <= start_i)
        #
        # over the streams of i's server (``<=`` on the ends encodes the
        # simulator's departures-before-arrivals tie rule).  Starts are
        # already time-sorted (admission order), so grouping by server is
        # one O(n) stable integer sort; ends are sorted too unless watch
        # times or crashes perturb them (then one extra argsort).  The
        # prefix-sum buffers carry a leading zero so group bases are plain
        # gathers, with no conditional ``np.where`` edge handling.
        order_s = np.argsort(sid, kind="stable")  # radix: sid is <= 16-bit
        g_start = t0[order_s]
        counts = np.bincount(sid, minlength=num_servers)
        offsets = np.zeros(num_servers + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        n_adm = len(t0)
        cs0 = np.empty(n_adm + 1)
        cs0[0] = 0.0
        np.cumsum(rate[order_s], out=cs0[1:])
        if crash_records or bool((eff[1:] < eff[:-1]).any()):
            order_e = order_s[np.argsort(eff[order_s], kind="stable")]
            order_e = order_e[np.argsort(sid[order_e], kind="stable")]
            g_end = eff[order_e]
            ce0 = np.empty(n_adm + 1)
            ce0[0] = 0.0
            np.cumsum(rate[order_e], out=ce0[1:])
        else:
            # Ends share the starts' time order, so the grouped end array
            # and its prefix sums coincide with the start-side ones.
            g_end = te[order_s]
            ce0 = cs0
        # Absolute "streams ended at or before this admission" indices per
        # group; only the binary search itself is segment-local.
        idx = np.empty(n_adm, dtype=np.intp)
        searchsorted = np.searchsorted
        bounds = offsets.tolist()
        for k in range(num_servers):
            a = bounds[k]
            b = bounds[k + 1]
            if a < b:
                idx[a:b] = searchsorted(
                    g_end[a:b], g_start[a:b], side="right"
                )
        group_a = np.repeat(offsets[:-1], counts)
        idx += group_a
        # occ(i) = (cs0[i+1] - cs0[group start]) - (ce0[idx] - ce0[group start])
        if ce0 is cs0:
            occ = cs0[1:] - ce0[idx]
        else:
            occ = cs0[1:] - cs0[group_a] - ce0[idx] + ce0[group_a]
        peaks = np.zeros(num_servers)
        nonempty = np.flatnonzero(counts)
        peaks[nonempty] = np.maximum.reduceat(occ, offsets[nonempty])
        peaks_list = peaks.tolist()
        if check_cap:
            speaks = np.zeros(num_servers, dtype=np.int64)
            speaks[nonempty] = np.maximum.reduceat(
                np.arange(1, n_adm + 1) - idx, offsets[nonempty]
            )
            speaks_list = speaks.tolist()
        # Per-server verdicts in plain Python (cheaper than numpy verdict
        # arrays at these server counts); the detailed slow-path sweep only
        # runs when something actually tripped.  The reconstruction
        # accumulates in a different order than the loop, so allow
        # accumulation noise on top of the admission epsilon.
        for server in servers:
            k = server.server_id
            peak = peaks_list[k]
            if check_bw and peak > server.bandwidth_mbps * (1 + 1e-9) + _EPS_MBPS:
                mine = sid == k
                _, when = _peak_time(t0[mine], eff[mine], rate[mine])
                violations.append(
                    Violation(
                        "bandwidth",
                        when,
                        f"server {k} occupancy reconstructed at "
                        f"{peak:.9f} Mb/s exceeds its "
                        f"{server.bandwidth_mbps:.9f} Mb/s link",
                    )
                )
            if (
                check_acct
                and abs(peak - server.peak_load_mbps)
                > _EPS_MBPS + 1e-9 * peak
            ):
                violations.append(
                    Violation(
                        "accounting",
                        H,
                        f"server {k} reports peak "
                        f"{server.peak_load_mbps:.9f} Mb/s but "
                        f"reconstruction finds {peak:.9f}",
                    )
                )
            if (
                check_cap
                and server.max_streams is not None
                and speaks_list[k] > server.max_streams
            ):
                violations.append(
                    Violation(
                        "stream_cap",
                        H,
                        f"server {k} reached {int(speaks_list[k])} concurrent "
                        f"streams over its cap of {server.max_streams}",
                    )
                )
    if check_bw and backbones is not None and bool(red.any()):
        # Each pod's backbone is an independent link with the full
        # per-pod capacity, so the peak is reconstructed per pod (the
        # delegate's server block identifies the pod).
        capacity = backbones[0].capacity_mbps
        r_idx = np.flatnonzero(red)
        pod_of = sid[r_idx] // servers_per_pod
        for p in np.unique(pod_of):
            sel = r_idx[pod_of == p]
            peak, when = _peak_time(t0[sel], eff[sel], rate[sel])
            if peak > capacity * (1 + 1e-9) + _EPS_MBPS:
                label = (
                    "backbone"
                    if len(backbones) == 1
                    else f"pod {int(p)} backbone"
                )
                violations.append(
                    Violation(
                        "bandwidth",
                        when,
                        f"{label} occupancy reconstructed at {peak:.9f} "
                        f"Mb/s exceeds its {capacity:.9f} Mb/s capacity",
                    )
                )


def run_audited(
    simulator,
    trace,
    *,
    auditors: "list[InvariantAuditor] | None" = None,
    horizon_min: float | None = None,
    failures=None,
    failover_on_down: bool = False,
    failover=None,
    rereplication=None,
) -> tuple[SimulationResult, AuditReport]:
    """Run *simulator* on *trace* with in-situ invariant auditing.

    Returns the (bit-identical to ``simulator.run``) result plus the
    :class:`AuditReport`.  Violations are collected, not raised — call
    :meth:`AuditReport.raise_if_failed` (as ``run(auditors=...)`` does) to
    escalate.
    """
    if auditors is None:
        auditors = standard_auditors()
    result, record = simulator._run(
        trace,
        horizon_min=horizon_min,
        failures=failures,
        failover_on_down=failover_on_down,
        failover=failover,
        rereplication=rereplication,
    )
    return result, audit_record(simulator, result, record, auditors)


def audit_record(
    simulator, result: SimulationResult, record, auditors
) -> AuditReport:
    """Audit one kernel run's :class:`RunRecord` against its result."""
    enabled = (
        frozenset().union(*(a.checks for a in auditors))
        if auditors
        else frozenset()
    )
    violations: list[Violation] = []
    soa = record.soa
    holds = soa.holds
    servers = record.servers
    backbones = record.backbones
    num_servers = len(servers)
    horizon_min = result.horizon_min

    if "monotonic" in enabled:
        _probe_monotonic(violations, record)

    # Admission table: the arrival-time admissions, then the delayed
    # ones (failover retries and wait-queue starts).
    adm, sid, red = record.admissions()
    t0 = soa.times.take(adm)
    te = t0 + holds.take(adm)
    vid = soa.videos.take(adm)
    if record.delayed_admissions:
        # Delayed starts interleave the arrivals; a stable merge sort
        # restores the start-time order the peak reconstruction needs.
        index, r_t0, r_sid = map(np.array, zip(*record.delayed_admissions))
        t0 = np.concatenate((t0, r_t0))
        te = np.concatenate((te, r_t0 + holds.take(index)))
        sid = np.concatenate((sid, r_sid.astype(sid.dtype)))
        red = np.concatenate((red, np.zeros(len(index), dtype=bool)))
        vid = np.concatenate((vid, soa.videos.take(index)))
        order = np.argsort(t0, kind="stable")
        t0, te, sid, red, vid = (a[order] for a in (t0, te, sid, red, vid))
    # Delivered rates come from the layout: the replica's rate on a
    # direct admission, the video's best copy on a redirected one.
    rate = np.where(
        red, simulator._best_rates[vid], simulator._rate_matrix[vid, sid]
    )

    audit = Trajectory(num_servers, horizon_min)
    audit.arrivals_total = soa.num_requests
    # Every simulated arrival is either admitted (a decision code or a
    # retry record) or rejected, so rejections are the complement.
    audit.rejected = soa.num_simulated - len(t0)
    audit.rate_matrix = simulator._rate_matrix
    audit.crash_records = record.crash_records
    audit.repair_records = record.repair_records
    audit.admission_times = t0
    audit.admission_servers = sid
    audit.backbone_capacity_mbps = simulator._backbone_mbps
    audit.last_event_time = record.last_event_time
    audit.events_audited = result.num_events
    _reconstruct(
        audit,
        violations,
        t0,
        te,
        sid,
        rate,
        red,
        vid,
        record.crash_records,
        servers,
        backbones,
        num_servers // len(backbones) if backbones else num_servers,
        enabled,
    )

    for auditor in auditors:
        violations.extend(auditor.finish(audit, servers, result))

    return AuditReport(
        violations=tuple(violations),
        events_audited=result.num_events,
        checks=tuple(sorted(enabled)),
        auditor_names=tuple(a.name for a in auditors),
        admitted=audit.admitted,
        rejected=audit.rejected,
        departed=audit.departed,
        dropped=audit.dropped,
        active_end=audit.active_end,
    )


def _probe_monotonic(violations: list[Violation], record) -> None:
    """Flag the inputs that would date an event before its cause.

    The loop schedules a departure at ``t + hold`` and a recovery at its
    failure's repair time, so a past-dated event needs an out-of-order
    arrival, a negative hold or a repair before its crash.
    """
    times = record.soa.times
    holds = record.soa.holds
    if times.size:
        if bool((times[1:] < times[:-1]).any()):
            where = int(np.argmax(times[1:] < times[:-1]))
            violations.append(
                Violation(
                    "monotonic",
                    float(times[where + 1]),
                    f"arrival {where + 1} at t={float(times[where + 1]):.9f} "
                    f"precedes arrival {where} at t={float(times[where]):.9f}",
                )
            )
        if float(holds.min()) < 0.0:
            where = int(np.argmin(holds))
            violations.append(
                Violation(
                    "monotonic",
                    float(times[where]),
                    f"arrival {where} has negative hold "
                    f"{float(holds[where]):.9f} min — its departure would "
                    f"precede its arrival",
                )
            )
    # A server's crashes and repairs alternate (the schedule rejects
    # overlapping outages), so its j-th repair closes its j-th crash.
    crashes: dict[int, list[float]] = {}
    for crash_t, server_id, _ in record.crash_records:
        crashes.setdefault(server_id, []).append(crash_t)
    for repair_t, server_id in record.repair_records:
        crash_t = crashes[server_id].pop(0)
        if repair_t < crash_t:
            violations.append(
                Violation(
                    "monotonic",
                    repair_t,
                    f"server {server_id} recovery at t={repair_t:.9f} "
                    f"precedes its failure at t={crash_t:.9f}",
                )
            )
