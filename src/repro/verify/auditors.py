"""Pluggable invariant auditors for the cluster simulator.

Every simulated trajectory must satisfy a set of structural invariants that
follow from the system model (and from the analytical VoD literature's
conservation arguments) regardless of workload, layout, or feature flags:

* **bandwidth/stream caps** — a server's occupied outgoing bandwidth never
  exceeds its link (within the admission epsilon) and its stream count
  never exceeds the optional disk-subsystem cap;
* **stream conservation** — every admitted stream is accounted for exactly
  once: it departed, was dropped by a crash, or is still active at the
  horizon; and admissions + rejections equal the simulated arrivals;
* **replica distinctness / placement respect** — layouts keep one replica
  per (video, server) pair by construction, and every non-redirected
  stream is served by a server that actually holds a replica;
* **event-time monotonicity** — the event loop processes events in
  non-decreasing time order and never runs time backwards;
* **objective accounting** — the per-server load integrals (the ``l_k``
  feeding the Eq. 2/3 imbalance objective) equal an independently
  accumulated per-stream tally, and the server/backbone bandwidth
  bookkeeping matches an independent shadow account.

Auditors are *declarative*: each one names the reconstruction checks it
enables (see :mod:`repro.verify.audit` — one post-run pass over the
simulator's run record does all the reconstruction, and the auditor list
selects which violations are reported) and implements a ``finish`` hook
over the rebuilt :class:`~repro.verify.audit.Trajectory`.  Custom
auditors may subclass :class:`InvariantAuditor` and add their own
``finish`` logic; per-event granularity comes for free through the
trajectory's shadow counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

__all__ = [
    "Violation",
    "InvariantViolation",
    "InvariantAuditor",
    "BandwidthCapAuditor",
    "StreamConservationAuditor",
    "ReplicaDistinctnessAuditor",
    "EventMonotonicityAuditor",
    "ObjectiveAccountingAuditor",
    "FailureAvailabilityAuditor",
    "standard_auditors",
    "failure_auditors",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster_sim.metrics import SimulationResult
    from ..cluster_sim.server import StreamingServer
    from .audit import Trajectory

#: Admission slack shared with the simulator (Mb/s).
_EPS_MBPS = 1e-6

#: Relative tolerance for cross-checking independently accumulated floats
#: (integrals and shadow bandwidth accounts sum the same quantities in a
#: different order, so they agree to accumulation error, not bitwise).
_REL_TOL = 1e-7
_ABS_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _ABS_TOL + _REL_TOL * max(abs(a), abs(b))


@dataclass(frozen=True)
class Violation:
    """One invariant violation, localized to a check and a simulated time."""

    check: str
    time_min: float
    message: str

    def __str__(self) -> str:
        return f"[{self.check} @ t={self.time_min:.4f}] {self.message}"


class InvariantViolation(RuntimeError):
    """Raised when an audited run violated at least one invariant."""

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations[:20])
        extra = (
            f"\n  ... and {len(self.violations) - 20} more"
            if len(self.violations) > 20
            else ""
        )
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n  {lines}{extra}"
        )


class InvariantAuditor:
    """Base auditor: a named set of checks plus a finish hook.

    ``checks`` names the reconstruction checks this auditor enables in the
    audit (see :mod:`repro.verify.audit`); ``finish`` runs once at the end
    of the run over the rebuilt trajectory and returns any end-of-run
    violations.
    """

    #: Stable identifier (used in violation records and reports).
    name: str = "auditor"
    #: Check names this auditor turns on.
    checks: frozenset[str] = frozenset()

    def finish(
        self,
        trajectory: "Trajectory",
        servers: "list[StreamingServer]",
        result: "SimulationResult",
    ) -> list[Violation]:
        """End-of-run checks; return violations (empty when clean)."""
        del trajectory, servers, result
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BandwidthCapAuditor(InvariantAuditor):
    """Per-server outgoing bandwidth and stream caps are never exceeded."""

    name = "bandwidth_cap"
    checks = frozenset({"bandwidth", "stream_cap"})

    def finish(self, trajectory, servers, result):
        violations = []
        for server in servers:
            if server.peak_load_mbps > server.bandwidth_mbps + _EPS_MBPS:
                violations.append(
                    Violation(
                        self.name,
                        trajectory.horizon_min,
                        f"server {server.server_id} peak load "
                        f"{server.peak_load_mbps:.6f} Mb/s exceeds its "
                        f"{server.bandwidth_mbps:.6f} Mb/s link",
                    )
                )
            if (
                server.max_streams is not None
                and server.active_streams > server.max_streams
            ):
                violations.append(
                    Violation(
                        self.name,
                        trajectory.horizon_min,
                        f"server {server.server_id} ended with "
                        f"{server.active_streams} active streams over its "
                        f"cap of {server.max_streams}",
                    )
                )
        return violations


class StreamConservationAuditor(InvariantAuditor):
    """Admissions = departures + drops + still-active; admits + rejects = arrivals."""

    name = "stream_conservation"
    checks = frozenset({"conservation"})

    def finish(self, trajectory, servers, result):
        t = trajectory
        violations = []
        accounted = t.departed + t.dropped + t.active_end
        if t.admitted != accounted:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"{t.admitted} admissions but {t.departed} departures + "
                    f"{t.dropped} drops + {t.active_end} active = {accounted}",
                )
            )
        if t.admitted + t.rejected != result.num_requests:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"admitted {t.admitted} + rejected {t.rejected} != "
                    f"{result.num_requests} simulated arrivals",
                )
            )
        if result.num_requests + result.num_truncated != t.arrivals_total:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"simulated {result.num_requests} + truncated "
                    f"{result.num_truncated} != trace length {t.arrivals_total}",
                )
            )
        if result.streams_dropped != t.dropped:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"result reports {result.streams_dropped} dropped streams, "
                    f"audit counted {t.dropped}",
                )
            )
        if result.num_redirected != t.redirected:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"result reports {result.num_redirected} redirected "
                    f"streams, audit counted {t.redirected}",
                )
            )
        served = int(result.server_served.sum())
        if served != t.admitted:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"servers report {served} served streams, audit "
                    f"admitted {t.admitted}",
                )
            )
        return violations


class ReplicaDistinctnessAuditor(InvariantAuditor):
    """Layout structure is sound and dispatch respects replica placement.

    The matrix layout representation makes Eq. (6) distinctness structural
    (one cell per (video, server) pair), so the run-time content of this
    auditor is *placement respect*: every non-redirected admission lands on
    a server whose rate-matrix entry for the video is positive.  ``finish``
    re-checks the layout's structural sanity (finite, non-negative rates).
    """

    name = "replica_distinctness"
    checks = frozenset({"placement"})

    def finish(self, trajectory, servers, result):
        violations = []
        matrix = trajectory.rate_matrix
        if matrix is not None:
            import numpy as np

            if not bool(np.all(np.isfinite(matrix))) or bool(
                np.any(matrix < 0.0)
            ):
                violations.append(
                    Violation(
                        self.name,
                        0.0,
                        "layout rate matrix contains negative or non-finite "
                        "entries",
                    )
                )
        return violations


class EventMonotonicityAuditor(InvariantAuditor):
    """The event loop never processes events out of time order."""

    name = "event_monotonicity"
    checks = frozenset({"monotonic"})

    def finish(self, trajectory, servers, result):
        if trajectory.last_event_time > trajectory.horizon_min + _ABS_TOL:
            return [
                Violation(
                    self.name,
                    trajectory.last_event_time,
                    f"an event at t={trajectory.last_event_time:.6f} was "
                    f"processed past the horizon {trajectory.horizon_min:.6f}",
                )
            ]
        return []


class ObjectiveAccountingAuditor(InvariantAuditor):
    """Load integrals and bandwidth bookkeeping match a shadow account.

    The audit reconstructs, independently of ``StreamingServer``'s own
    bookkeeping, (a) each server's occupied bandwidth and (b) the exact
    per-stream contribution to the load integral
    (``rate * overlap([start, end], [0, horizon])``).  At the end of the
    run both must agree with the server's internal state — the integrals to
    accumulation tolerance, the occupancy to the admission epsilon.  This
    is the auditor that catches broken release/failure accounting, the
    class of bug that silently skews every Figure 6 imbalance number.
    """

    name = "objective_accounting"
    checks = frozenset({"accounting"})

    def finish(self, trajectory, servers, result):
        t = trajectory
        violations = []
        for server in servers:
            k = server.server_id
            if not _close(t.shadow_used[k], server.used_mbps):
                violations.append(
                    Violation(
                        self.name,
                        t.horizon_min,
                        f"server {k} final occupancy {server.used_mbps:.9f} "
                        f"Mb/s != shadow account {t.shadow_used[k]:.9f}",
                    )
                )
            expected = t.load_integral[k]
            measured = (
                float(result.server_time_avg_load_mbps[k]) * t.horizon_min
            )
            if not _close(expected, measured):
                violations.append(
                    Violation(
                        self.name,
                        t.horizon_min,
                        f"server {k} load integral {measured:.6f} Mb/s*min "
                        f"!= per-stream tally {expected:.6f}",
                    )
                )
            if server.active_streams != t.shadow_streams[k]:
                violations.append(
                    Violation(
                        self.name,
                        t.horizon_min,
                        f"server {k} reports {server.active_streams} active "
                        f"streams, shadow account has {t.shadow_streams[k]}",
                    )
                )
        if t.backbone_capacity_mbps > 0.0 and not _close(
            t.shadow_backbone, t.backbone_used_mbps
        ):
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"backbone occupancy {t.backbone_used_mbps:.9f} Mb/s != "
                    f"shadow account {t.shadow_backbone:.9f}",
                )
            )
        return violations


class FailureAvailabilityAuditor(InvariantAuditor):
    """Chaos-specific invariants: down servers never serve, counters agree.

    The availability extension introduces its own conservation laws on top
    of the stream-level ones:

    * **no zombie admissions** — no stream starts on server ``k`` inside a
      down interval ``[crash_t, repair_t)`` (an unrepaired crash extends to
      the horizon);
    * **failure-counter consistency** — ``num_failures``/``num_recoveries``
      equal the crash/repair records the simulator logged, every
      successful failover consumed at least one scheduled retry, and
      requests lost to failures are a subset of all rejections;
    * **downtime bounds** — no server is down longer than the horizon, and
      total reported downtime is positive only when failures occurred.
    """

    name = "failure_availability"
    checks = frozenset({"conservation"})

    def finish(self, trajectory, servers, result):
        t = trajectory
        violations = []
        if result.num_failures != len(t.crash_records):
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"result reports {result.num_failures} failures, audit "
                    f"observed {len(t.crash_records)} crash events",
                )
            )
        if result.num_recoveries != len(t.repair_records):
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"result reports {result.num_recoveries} recoveries, "
                    f"audit observed {len(t.repair_records)} repair events",
                )
            )
        if result.num_failovers > result.num_retries:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"{result.num_failovers} failover admissions exceed the "
                    f"{result.num_retries} retries ever scheduled",
                )
            )
        if result.num_lost_to_failure > result.num_rejected:
            violations.append(
                Violation(
                    self.name,
                    t.horizon_min,
                    f"{result.num_lost_to_failure} requests lost to failure "
                    f"exceed {result.num_rejected} total rejections",
                )
            )
        downtime = result.server_downtime_min
        if downtime is not None:
            for k, minutes in enumerate(downtime):
                if minutes < -_ABS_TOL or minutes > t.horizon_min + _ABS_TOL:
                    violations.append(
                        Violation(
                            self.name,
                            t.horizon_min,
                            f"server {k} downtime {float(minutes):.6f} min "
                            f"outside [0, horizon={t.horizon_min:.6f}]",
                        )
                    )
            if result.num_failures == 0 and float(max(downtime, default=0.0)) > 0.0:
                violations.append(
                    Violation(
                        self.name,
                        t.horizon_min,
                        "downtime reported without any failure event",
                    )
                )
        violations.extend(self._check_zombie_admissions(t))
        return violations

    def _check_zombie_admissions(self, t: "Trajectory") -> list[Violation]:
        """No admission may start inside a server's down interval."""
        if not t.crash_records or t.admission_times is None:
            return []
        # Build per-server down intervals [crash, repair) from the crash
        # and repair records; an unrepaired crash extends to the horizon.
        repairs: dict[int, list[float]] = {}
        for time_min, server_id in t.repair_records:
            repairs.setdefault(int(server_id), []).append(float(time_min))
        for times in repairs.values():
            times.sort()
        intervals: list[tuple[int, float, float]] = []
        for crash in sorted(t.crash_records):
            crash_t = float(crash[0])
            server_id = int(crash[1])
            later = [r for r in repairs.get(server_id, ()) if r > crash_t]
            repair_t = later[0] if later else t.horizon_min
            intervals.append((server_id, crash_t, repair_t))
        violations = []
        for server_id, crash_t, repair_t in intervals:
            mask = (t.admission_servers == server_id) & (
                t.admission_times >= crash_t
            ) & (t.admission_times < repair_t)
            count = int(mask.sum())
            if count:
                violations.append(
                    Violation(
                        self.name,
                        crash_t,
                        f"{count} stream(s) admitted on server {server_id} "
                        f"while it was down in [{crash_t:.4f}, "
                        f"{repair_t:.4f})",
                    )
                )
        return violations


def standard_auditors() -> list[InvariantAuditor]:
    """The full default checker list (every invariant enabled)."""
    return [
        BandwidthCapAuditor(),
        StreamConservationAuditor(),
        ReplicaDistinctnessAuditor(),
        EventMonotonicityAuditor(),
        ObjectiveAccountingAuditor(),
    ]


def failure_auditors() -> list[InvariantAuditor]:
    """Chaos-run checker list: every standard invariant plus availability.

    Use this registry when the run injects failures; on failure-free runs
    the extra auditor is a no-op, so it is always safe to include.
    """
    return standard_auditors() + [FailureAvailabilityAuditor()]
