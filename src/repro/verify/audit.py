"""Post-hoc invariant audit of one simulator run.

:func:`run_audited` runs the optimized kernel
(:meth:`VoDClusterSimulator._run`) — the very loop behind every plain
``run()``, so results are bit-identical by construction — and audits the
:class:`~repro.cluster_sim.simulator.RunRecord` it leaves behind.  The
record's admitted-stream table (:meth:`RunRecord.streams`, the table the
observation fold reads too) carries admission times, hold times and
rates (from the layout, not from the loop's bookkeeping) with crash
drops replayed over it; from it every shadow account is *reconstructed*
vectorized, down to every server's occupancy peak from a left fold over
its streams in the loop's processing order.  The reconstruction is
independent of ``StreamingServer``'s bookkeeping, which is what lets the
auditors catch broken release/crash accounting.

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
from ..cluster_sim.observation import processing_order
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


def _reconstruct(
    audit: Trajectory, violations: list[Violation], table, record, enabled
) -> None:
    """Rebuild every shadow account from the admitted-stream table."""
    servers, backbones = record.servers, record.backbones
    num_servers = len(servers)
    servers_per_pod = num_servers // len(backbones) if backbones else 0
    H = audit.horizon_min
    t0, eff, sid, rate, red, dropped = (
        table.start, table.end, table.server, table.rate, table.redirected,
        table.dropped,
    )

    # Crash effects: the table already cuts every dropped stream's end to
    # its crash instant; what the server carried then must match.
    if "accounting" in enabled:
        for time_min, server_id, used_at_crash in sorted(record.crash_records):
            hit = dropped & (sid == server_id) & (eff == time_min)
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
    alive_end = ~dropped & (eff > H)
    audit.admitted = len(t0)
    audit.active_end = int(alive_end.sum())
    audit.departed = int((~dropped & (eff <= H)).sum())
    audit.dropped = int(dropped.sum())
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
                        f"video {int(record.soa.videos[table.arrival[index]])} "
                        f"admitted on server "
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
    if not ((check_bw or check_cap or check_acct) and len(t0)):
        return
    # Replay every server's occupancy as a left fold of its streams'
    # +rate/-rate steps in the loop's processing order (the fold an
    # observer's timelines read too): its peak is the largest running
    # value, attained right after some admission.
    order, _ = processing_order(table)
    on = np.tile(sid, 2)[order]
    delta = np.concatenate((rate, -rate))[order]
    step = np.where(order < len(t0), 1, -1)
    times = np.concatenate((t0, eff))[order]

    def peak_of(mine: np.ndarray, values: np.ndarray = delta):
        """Largest running sum over the events *mine*, and its time."""
        running = np.cumsum(values[mine])
        at = int(np.argmax(running))
        return running[at], float(times[mine[at]])

    # The replay accumulates in a different order than the loop around a
    # crash, so allow accumulation noise on top of the admission epsilon.
    for server in servers:
        k = server.server_id
        mine = np.flatnonzero(on == k)
        peak, when = peak_of(mine) if mine.size else (0.0, H)
        if check_bw and peak > server.bandwidth_mbps * (1 + 1e-9) + _EPS_MBPS:
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
            and abs(peak - server.peak_load_mbps) > _EPS_MBPS + 1e-9 * peak
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
        if check_cap and server.max_streams is not None and mine.size:
            streams, _ = peak_of(mine, step)
            if streams > server.max_streams:
                violations.append(
                    Violation(
                        "stream_cap",
                        H,
                        f"server {k} reached {int(streams)} concurrent "
                        f"streams over its cap of {server.max_streams}",
                    )
                )
    if check_bw and backbones is not None and bool(red.any()):
        # Each pod's backbone is an independent link with the full
        # per-pod capacity, so the peak is replayed per pod (the
        # delegate's server block identifies the pod).
        capacity = backbones[0].capacity_mbps
        redirected = np.tile(red, 2)[order]
        for p in np.unique(sid[red] // servers_per_pod):
            peak, when = peak_of(
                np.flatnonzero(redirected & (on // servers_per_pod == p))
            )
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
    if "monotonic" in enabled:
        _probe_monotonic(violations, record)

    table = record.streams(simulator._rate_matrix, simulator._best_rates)
    audit = Trajectory(len(record.servers), result.horizon_min)
    audit.arrivals_total = soa.num_requests
    # Every simulated arrival is either admitted (a decision code or a
    # retry record) or rejected, so rejections are the complement.
    audit.rejected = soa.num_simulated - len(table.start)
    audit.rate_matrix = simulator._rate_matrix
    audit.crash_records = record.crash_records
    audit.repair_records = record.repair_records
    audit.admission_times = table.start
    audit.admission_servers = table.server
    audit.backbone_capacity_mbps = simulator._backbone_mbps
    audit.last_event_time = record.last_event_time
    audit.events_audited = result.num_events
    _reconstruct(audit, violations, table, record, enabled)

    for auditor in auditors:
        violations.extend(auditor.finish(audit, record.servers, result))

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
