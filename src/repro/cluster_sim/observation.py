"""Observation as a fold over a finished run.

An observer's load/stream timelines and sampled arrival/departure events
are rebuilt after the run from its admitted-stream table, which the
optimized loop decodes from its run record and the vector engine builds
from its certified grid, so observing never changes how a run executes.
A sample at ``s`` reflects every arrival before ``s`` plus every
departure, crash, failover retry or wait-queue start at or before ``s``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["StreamTable", "observe_run", "processing_order"]


class StreamTable(NamedTuple):
    """Every admitted stream of one run, in the kernel's processing order.

    ``end`` is effective: a crash that dropped the stream (``dropped``)
    cuts it to the crash instant.  ``delayed`` marks a late start (a
    failover retry or a wait-queue start), applied with its instant's heap
    events rather than after them like an arrival-time admission.
    """

    arrival: np.ndarray
    start: np.ndarray
    end: np.ndarray
    server: np.ndarray
    rate: np.ndarray
    redirected: np.ndarray
    delayed: np.ndarray
    dropped: np.ndarray


def processing_order(table: StreamTable) -> tuple[np.ndarray, np.ndarray]:
    """The loop's order of every stream's start (event ``i``) and end
    (event ``len(table.start) + i``), plus each event's phase: 0 for an
    instant's heap events (departures, crash drops, delayed starts), 1
    for an arrival-time start and the zero-hold departure it pushes.
    Events sort by time, phase, then table order.
    """
    start_phase = ~table.delayed
    phase = np.concatenate((start_phase, start_phase & (table.end == table.start)))
    ties = np.arange(len(table.start)) * 2
    times = np.concatenate((table.start, table.end))
    return np.lexsort((np.concatenate((ties, ties + 1)), phase, times)), phase


def sample_instants(config, horizon_min: float) -> np.ndarray:
    """The instants at which *config* samples one run of *horizon_min*
    minutes: multiples of its ``sample_interval_min`` by repeated
    addition, like a running clock, up to the horizon (none when the
    interval is 0).  More than ``max_trace_events`` of them raise
    ``ValueError``, so a command can refuse the interval before it runs.
    """
    interval, cap = config.sample_interval_min, config.max_trace_events
    if not interval > 0.0:
        return np.zeros(0)
    instants = np.cumsum(
        np.full(int(min(horizon_min / interval, cap)) + 2, float(interval))
    )
    instants = instants[instants <= horizon_min]
    if instants.size > cap:
        raise ValueError(
            f"sample_interval_min={interval!r} over a {horizon_min!r}-minute "
            f"horizon would record more than max_trace_events={cap} "
            "samples in one run"
        )
    return instants


def observe_run(
    observer, result, table, soa, admitted, late_rejections, bandwidth_mbps
) -> None:
    """Fold one finished run into ``observer.record_simulation``.

    *admitted* flags the simulated arrivals admitted on arrival;
    *late_rejections* lists ``(arrival index, time)`` per rejection that
    lands after its arrival.  One run may record at most the config's
    ``max_trace_events`` samples; a finer interval raises ``ValueError``.
    """
    config = observer.config
    horizon = result.horizon_min
    times = soa.times[: soa.num_simulated]
    instants = sample_instants(config, horizon)
    count = len(table.start)
    order, phase = processing_order(table)

    samples: list = []
    if instants.size:
        # Events applied by each instant: all before it, plus its own
        # phase-0 events (which sort first among its ties).
        sorted_time = np.concatenate((table.start, table.end))[order]
        phase0 = np.zeros(2 * count + 1, dtype=np.intp)
        np.cumsum(~phase[order], out=phase0[1:])
        lo = np.searchsorted(sorted_time, instants, side="left")
        hi = np.searchsorted(sorted_time, instants, side="right")
        applied = lo + phase0[hi] - phase0[lo]
        delta = np.concatenate((table.rate, -table.rate))[order]
        step = np.repeat([1, -1], count)[order]

        def fold(mine, values):
            """Left fold of *values* over the events *mine* (positions in
            processing order), read at every instant."""
            sums = np.zeros(mine.size + 1, dtype=values.dtype)
            np.cumsum(values[mine], out=sums[1:])
            return sums[np.searchsorted(mine, applied)]

        servers = np.tile(table.server, 2)[order]
        groups = [np.flatnonzero(servers == k) for k in range(len(bandwidth_mbps))]
        # The loop clamps a departure's float residue at zero.
        used = np.maximum([fold(mine, delta) for mine in groups], 0.0).T
        streams = np.array([fold(mine, step) for mine in groups]).T
        backbone = fold(np.flatnonzero(np.tile(table.redirected, 2)[order]), delta)
        # Rejected so far: arrival-time rejections before the instant,
        # late ones (exhausted retries, queue defections) at or before it.
        late = np.array(late_rejections).reshape(-1, 2)
        settled = admitted.copy()
        settled[table.arrival[table.delayed]] = True
        settled[late[:, 0].astype(np.intp)] = True
        rejected = np.searchsorted(times[~settled], instants) + np.searchsorted(
            np.sort(late[:, 1]), instants, side="right"
        )
        samples = list(
            zip(
                instants.tolist(),
                used.tolist(),
                streams.tolist(),
                np.searchsorted(times, instants).tolist(),
                rejected.tolist(),
                np.searchsorted(table.start[table.redirected], instants).tolist(),
                np.maximum(backbone, 0.0).tolist(),
            )
        )

    traced: list = []
    every = config.trace_event_every if config.trace_events else 0
    if every:
        # Every N-th arrival and every N-th applied departure, merged in
        # processing order: arrivals and phase-1 departures by arrival.
        arrivals = np.arange(every - 1, times.size, every)
        ends = order[order >= count] - count
        ends = ends[~table.dropped[ends] & (table.end[ends] <= horizon)]
        ends = ends[every - 1 :: every]
        events = [
            ("arrival", t, video, flag)
            for t, video, flag in zip(
                times[arrivals].tolist(),
                soa.videos[arrivals].tolist(),
                admitted[arrivals].tolist(),
            )
        ] + [
            ("departure", t, server)
            for t, server in zip(
                table.end[ends].tolist(), table.server[ends].tolist()
            )
        ]
        end_phase = phase[count + ends]
        merged = np.lexsort(
            (
                np.repeat([0, 1], (arrivals.size, ends.size)),
                np.concatenate(
                    (arrivals, np.where(end_phase, table.arrival[ends], ends))
                ),
                np.concatenate((np.ones(arrivals.size, bool), end_phase)),
                np.concatenate((times[arrivals], table.end[ends])),
            )
        )
        traced = [events[i] for i in merged.tolist()]
    observer.record_simulation(
        samples=samples,
        traced_events=traced,
        result=result,
        server_bandwidth_mbps=bandwidth_mbps,
    )
