"""Wait-queue admission — requests queue briefly instead of rejecting.

The paper's admission control rejects instantly when the dispatched server
is saturated.  A common softer policy lets the request *wait* for a slot up
to a patience bound: if a stream ends in time, the viewer starts late; if
not, the viewer defects (which is what the rejection rate then counts).
With the paper's 90-minute videos a single departure wave can absorb a
burst, so even one or two minutes of patience shaves the variance-driven
rejections of Sec. 5.3.

Policy details:

* An arrival is admitted immediately if any dispatched candidate has room
  (same policies as the unicast simulator).
* Otherwise it joins a FIFO wait queue and defects after ``patience_min``
  (a departure exactly at the deadline still saves it); ``patience_min =
  0`` is the paper's instant rejection.
* Every departure triggers a queue scan, oldest first: each waiter whose
  video has a holder with room starts on the least-utilized one (waiting
  defeats static dispatch on purpose — a waiting viewer takes any
  replica).  Viewers still waiting at the horizon count as rejected.

Kernel configuration: the wait queue is the one policy hook of
:class:`VoDClusterSimulator`'s event loop (the private ``patience_min``
argument of ``_run``).  Queue starts are recorded as delayed admissions,
so the extra metrics — defection counts and the mean/max start delay of
queued-then-served viewers — fold out of the run record, and
:mod:`repro.verify.audit` rebuilds a queueing run like any other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_non_negative
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..model.video import VideoCollection
from ..workload.requests import RequestTrace
from .dispatch import StaticRoundRobinDispatcher
from .metrics import SimulationResult
from .simulator import VoDClusterSimulator

__all__ = ["QueueingResult", "QueueingClusterSimulator"]


@dataclass(frozen=True)
class QueueingResult:
    """A :class:`SimulationResult` plus wait-queue metrics.

    ``base.num_rejected`` counts defections (patience expiries).
    """

    base: SimulationResult
    num_queued: int
    num_queued_served: int
    mean_wait_min: float
    max_wait_min: float

    @property
    def rejection_rate(self) -> float:
        return self.base.rejection_rate

    @property
    def num_defected(self) -> int:
        return self.base.num_rejected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueueingResult(rejection={self.rejection_rate:.3f}, "
            f"queued={self.num_queued}, wait={self.mean_wait_min:.2f}min)"
        )


class QueueingClusterSimulator:
    """Cluster simulator with a bounded-patience wait queue."""

    def __init__(
        self,
        cluster: ClusterSpec,
        videos: VideoCollection,
        layout: ReplicaLayout,
        *,
        patience_min: float = 2.0,
        dispatcher_factory=StaticRoundRobinDispatcher,
        validate_layout: bool = True,
    ) -> None:
        check_non_negative("patience_min", patience_min)
        self._kernel = VoDClusterSimulator(
            cluster,
            videos,
            layout,
            dispatcher_factory=dispatcher_factory,
            validate_layout=validate_layout,
        )
        self._patience = float(patience_min)
        self._replicated = layout.video_bit_rates > 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        trace: RequestTrace,
        *,
        horizon_min: float | None = None,
    ) -> QueueingResult:
        """Simulate one trace with the wait-queue admission policy."""
        if trace.watch_min is not None:
            raise ValueError(
                "the wait-queue simulator models full-duration sessions; "
                "strip the trace's watch times first"
            )
        base, record = self._kernel._run(
            trace, horizon_min=horizon_min, patience_min=self._patience
        )
        soa = record.soa
        times = soa.times_list
        waits = [start - times[i] for i, start, _ in record.delayed_admissions]
        # Every arrival of a replicated video that was not admitted on
        # arrival joined the queue (unless patience is 0).
        num_queued = 0
        if self._patience:
            not_admitted = np.asarray(record.decisions) == 0
            videos = soa.videos[: soa.num_simulated]
            num_queued = int((not_admitted & self._replicated[videos]).sum())
        return QueueingResult(
            base=base,
            num_queued=num_queued,
            num_queued_served=len(waits),
            mean_wait_min=float(np.mean(waits)) if waits else 0.0,
            max_wait_min=float(np.max(waits)) if waits else 0.0,
        )
