"""The observability facade the instrumented subsystems talk to.

One :class:`Observer` bundles a :class:`MetricsRegistry`, a
:class:`Tracer` and a phase profiler behind the typed hooks each subsystem
calls through its optional ``observer=`` parameter:

* ``VoDClusterSimulator.run(..., observer=obs)`` — per-server load/stream
  timelines sampled every ``sample_interval_min`` simulated minutes,
  sampled arrival/departure trace events, counter/gauge rollups, all
  folded from the finished run (:mod:`repro.cluster_sim.observation`);
* ``SimulatedAnnealer.run(..., observer=obs)`` — per-temperature-level
  acceptance traces and step counters;
* ``ServingControlPlane(..., observer=obs)`` — per-epoch serving
  events and re-plan/copy/elasticity counters;
* ``ParallelRunner(..., observer=obs)`` — batch counters plus per-phase
  wall time (also folded into the :class:`repro.runtime.RunReport`).

The instrumented modules never import this package — the observer is
duck-typed — so :mod:`repro.cluster_sim`, :mod:`repro.annealing` and
:mod:`repro.serving` stay import-independent of the observability layer,
and the ``observer=None`` default keeps their hot paths untouched.

Simulation folds are *deferred*: :meth:`Observer.record_simulation` only
parks the run's raw sample buffers, and the numpy aggregation into
histograms/time series runs once on first read (any access to
:attr:`Observer.registry` or :attr:`Observer.tracer` flushes).  Recording
stays off the simulator's critical path; the fold cost lands on the
first reader instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .._validation import check_finite_non_negative
from .registry import MetricsRegistry
from .tracer import Tracer

__all__ = ["Observer", "ObserverConfig"]

#: Default utilization histogram edges: deciles plus a saturation bucket.
_UTILIZATION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)

#: JSONL schema version written by :meth:`Observer.export_jsonl`.
_TRACE_SCHEMA = 1


@dataclass(frozen=True)
class ObserverConfig:
    """Tuning knobs for what (and how densely) an observer records.

    Attributes
    ----------
    sample_interval_min:
        Simulated minutes between utilization-timeline samples (finite);
        ``0`` disables periodic sampling.
    trace_events:
        Record sampled simulator arrival/departure events in the tracer.
    trace_event_every:
        Keep every N-th arrival and departure when ``trace_events`` is on
        (1 = every event; raise for long traces).
    trace_sa_levels:
        Emit per-level annealing events.
    max_trace_events:
        Tracer hard cap; events beyond it are counted as dropped.  It
        also bounds the samples of one simulated run: an interval that
        would record more raises ``ValueError`` rather than drop them.
    """

    sample_interval_min: float = 1.0
    trace_events: bool = False
    trace_event_every: int = 100
    trace_sa_levels: bool = True
    max_trace_events: int = 1_000_000

    def __post_init__(self) -> None:
        check_finite_non_negative(
            "sample_interval_min", self.sample_interval_min
        )
        if self.trace_event_every < 1:
            raise ValueError("trace_event_every must be >= 1")


class Observer:
    """Bundle of metrics + tracing + profiling with subsystem hooks."""

    def __init__(
        self,
        config: ObserverConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config if config is not None else ObserverConfig()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._tracer = (
            tracer
            if tracer is not None
            else Tracer(max_events=self.config.max_trace_events)
        )
        self.phase_seconds: dict[str, float] = {}
        self._sim_runs = 0
        self._pending_sims: list[tuple] = []

    # ------------------------------------------------------------------
    # Deferred-fold plumbing: any read flushes parked simulation runs.
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The metric store (flushes pending simulation folds first)."""
        if self._pending_sims:
            self._flush_pending()
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The event tracer (flushes pending simulation folds first)."""
        if self._pending_sims:
            self._flush_pending()
        return self._tracer

    def _flush_pending(self) -> None:
        pending, self._pending_sims = self._pending_sims, []
        for payload in pending:
            self._fold_simulation(*payload)

    # ------------------------------------------------------------------
    # Simulator hook
    # ------------------------------------------------------------------
    def record_simulation(
        self,
        *,
        samples: list,
        traced_events: list,
        result,
        server_bandwidth_mbps,
    ) -> None:
        """Park one finished simulator run for deferred folding.

        ``samples`` rows are ``(t, used_mbps_list, active_streams_list,
        num_requests, num_rejected, num_redirected, backbone_mbps)`` at
        each sample instant; ``traced_events`` are the sampled
        ``("arrival", t, video, admitted)`` / ``("departure", t, server)``
        tuples, in processing order.  All inputs are per-run data nothing
        touches again, so nothing is copied here — the numpy fold
        (:meth:`_fold_simulation`) runs on first read of
        :attr:`registry`/:attr:`tracer`.
        """
        self._pending_sims.append(
            (self._sim_runs, samples, traced_events, result, server_bandwidth_mbps)
        )
        self._sim_runs += 1

    def _fold_simulation(
        self, run: int, samples: list, traced_events: list, result,
        server_bandwidth_mbps,
    ) -> None:
        """Fold one parked simulator run into the registry and tracer."""
        registry = self._registry

        registry.counter("sim.runs").inc()
        registry.counter("sim.requests").inc(result.num_requests)
        registry.counter("sim.rejected").inc(result.num_rejected)
        registry.counter("sim.redirected").inc(result.num_redirected)
        registry.counter("sim.truncated").inc(result.num_truncated)
        registry.counter("sim.events").inc(result.num_events)
        registry.counter("sim.streams_dropped").inc(result.streams_dropped)
        if result.num_failures or result.streams_dropped:
            # Chaos availability counters (absent on failure-free runs so
            # snapshots stay byte-identical with chaos machinery attached).
            registry.counter("sim.failures").inc(result.num_failures)
            registry.counter("sim.recoveries").inc(result.num_recoveries)
            registry.counter("sim.retries").inc(result.num_retries)
            registry.counter("sim.failovers").inc(result.num_failovers)
            registry.counter("sim.lost_to_failure").inc(
                result.num_lost_to_failure
            )
            registry.counter("sim.rereplicated").inc(result.num_rereplicated)
            registry.gauge("sim.last_mttr_min").set(
                result.mean_time_to_recovery_min
            )
        registry.gauge("sim.last_horizon_min").set(result.horizon_min)
        registry.gauge("sim.last_rejection_rate").set(result.rejection_rate)
        registry.gauge("sim.last_imbalance_pct").set(
            result.load_imbalance_percent()
        )

        bandwidth = [float(b) for b in server_bandwidth_mbps]
        num_servers = len(bandwidth)
        utilization = registry.histogram(
            "sim.server_utilization", _UTILIZATION_BUCKETS
        )
        load_series = registry.timeseries(
            "sim.server_load_mbps",
            ("run", "t") + tuple(f"s{k}" for k in range(num_servers)),
        )
        stream_series = registry.timeseries(
            "sim.server_streams",
            ("run", "t") + tuple(f"s{k}" for k in range(num_servers)),
        )
        rate_series = registry.timeseries(
            "sim.rates",
            (
                "run",
                "t",
                "rejection_rate",
                "redirection_rate",
                "imbalance_pct",
                "backbone_mbps",
            ),
        )
        # Vectorized fold: the whole run's samples in a handful of numpy
        # passes plus C-speed row construction (zip over column lists).
        # Runs at flush time, not on the simulator's critical path.
        if samples and num_servers:
            num_samples = len(samples)
            t_col = [s[0] for s in samples]
            used = np.asarray([s[1] for s in samples], dtype=np.float64)
            streams = [s[2] for s in samples]
            run_col = [run] * num_samples

            load_series.extend(zip(run_col, t_col, *used.T.tolist()))
            stream_series.extend(zip(run_col, t_col, *zip(*streams)))

            ratios = used / np.asarray(bandwidth, dtype=np.float64)
            flat = ratios.ravel()
            # bisect_left semantics, matching Histogram.observe.
            bucket_counts = np.bincount(
                np.searchsorted(utilization.bounds, flat, side="left"),
                minlength=len(utilization.counts),
            )
            utilization.merge_bucket_counts(
                bucket_counts.tolist(),
                flat.size,
                float(flat.sum()),
                float(flat.min()),
                float(flat.max()),
            )

            mean_bandwidth = sum(bandwidth) / num_servers
            mean_load = used.mean(axis=1)
            imbalance = (
                np.abs(used - mean_load[:, None]).max(axis=1)
                / mean_bandwidth
                * 100.0
            )
            requests = np.asarray([s[3] for s in samples], dtype=np.float64)
            safe_requests = np.where(requests > 0, requests, 1.0)
            rejected = np.asarray([s[4] for s in samples], dtype=np.float64)
            redirected = np.asarray([s[5] for s in samples], dtype=np.float64)
            backbone_col = [s[6] for s in samples]
            rate_series.extend(
                zip(
                    run_col,
                    t_col,
                    (rejected / safe_requests).tolist(),
                    (redirected / safe_requests).tolist(),
                    imbalance.tolist(),
                    backbone_col,
                )
            )

        tracer = self._tracer
        for event in traced_events:
            if event[0] == "arrival":
                tracer.emit(
                    "arrival",
                    t=event[1],
                    run=run,
                    video=event[2],
                    admitted=event[3],
                )
            else:
                tracer.emit("departure", t=event[1], run=run, server=event[2])
        tracer.emit(
            "sim.run",
            t=result.horizon_min,
            run=run,
            requests=result.num_requests,
            rejected=result.num_rejected,
            redirected=result.num_redirected,
            events=result.num_events,
            rejection_rate=result.rejection_rate,
            wall_sec=result.wall_time_sec,
            delegated=result.delegated,
        )

    # ------------------------------------------------------------------
    # Annealing hooks
    # ------------------------------------------------------------------
    def sa_level(
        self,
        *,
        level: int,
        temperature: float,
        cost: float,
        best_cost: float,
        steps: int,
        accepted: int,
    ) -> None:
        """Record one temperature level of a Metropolis run."""
        self.registry.counter("sa.steps").inc(steps)
        self.registry.counter("sa.accepted").inc(accepted)
        self.registry.timeseries(
            "sa.levels",
            ("level", "temperature", "cost", "best_cost", "acceptance_rate"),
        ).append(
            level,
            temperature,
            cost,
            best_cost,
            accepted / steps if steps else 0.0,
        )
        if self.config.trace_sa_levels:
            self.tracer.emit(
                "sa.level",
                level=level,
                temperature=temperature,
                cost=cost,
                best_cost=best_cost,
                acceptance_rate=accepted / steps if steps else 0.0,
            )

    def sa_run_finished(self, result) -> None:
        """Fold one finished annealing run (an ``AnnealingResult``)."""
        self.registry.counter("sa.runs").inc()
        self.registry.gauge("sa.last_best_cost").set(result.best_cost)
        self.tracer.emit(
            "sa.run",
            levels=result.levels,
            steps=result.steps,
            accepted=result.accepted,
            best_cost=result.best_cost,
            final_cost=result.final_cost,
            wall_sec=result.wall_time_sec,
        )

    # ------------------------------------------------------------------
    # Serving-control-plane hook
    # ------------------------------------------------------------------
    def serving_epoch(self, *, epoch: int, snapshot) -> None:
        """Record one control-plane epoch (an ``EpochSnapshot``)."""
        registry = self.registry
        registry.counter("serving.epochs").inc()
        registry.counter("serving.requests").inc(snapshot.num_requests)
        registry.counter("serving.rejected").inc(snapshot.num_rejected)
        if snapshot.migration_executed:
            registry.counter("serving.replans").inc()
            registry.counter("serving.replicas_copied").inc(
                snapshot.replicas_copied
            )
        if snapshot.elasticity_action > 0:
            registry.counter("serving.servers_added").inc()
        elif snapshot.elasticity_action < 0:
            registry.counter("serving.servers_drained").inc()
        if snapshot.slo_breached:
            registry.counter("serving.slo_breaches").inc()
        registry.gauge("serving.num_servers").set(snapshot.num_servers)
        registry.gauge("serving.rejection_rate").set(snapshot.rejection_rate)
        self.tracer.emit(
            "serving.epoch",
            epoch=epoch,
            num_servers=snapshot.num_servers,
            requests=snapshot.num_requests,
            rejection_rate=snapshot.rejection_rate,
            drift_score=snapshot.drift_score,
            replanned=snapshot.replanned,
            migration_executed=snapshot.migration_executed,
            replicas_copied=snapshot.replicas_copied,
            elasticity_action=snapshot.elasticity_action,
            slo_breached=snapshot.slo_breached,
        )

    # ------------------------------------------------------------------
    # Runner hook
    # ------------------------------------------------------------------
    def runner_batch(
        self, *, num_trials: int, num_cache_hits: int, wall_sec: float
    ) -> None:
        """Record one engine batch (cache hits + simulations)."""
        self.registry.counter("runner.batches").inc()
        self.registry.counter("runner.trials").inc(num_trials)
        self.registry.counter("runner.cache_hits").inc(num_cache_hits)
        self.tracer.emit(
            "runner.batch",
            trials=num_trials,
            cache_hits=num_cache_hits,
            wall_sec=wall_sec,
        )

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def record_phase(self, phase: str, seconds: float) -> None:
        """Accumulate wall time for a named phase (the ``timed()`` sink)."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def timed(self, phase: str):
        """``with observer.timed("placement"): ...`` — see :func:`timed`."""
        from .profile import timed

        return timed(self, phase)

    def fold_into_report(self, report) -> None:
        """Copy accumulated phase times into a ``RunReport``."""
        for phase, seconds in self.phase_seconds.items():
            report.record_phase(phase, seconds)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data view: metrics + phases + trace summary."""
        return {
            "metrics": self.registry.snapshot(),
            "phase_seconds": dict(self.phase_seconds),
            "trace": {
                "events": len(self.tracer.events),
                "dropped": self.tracer.num_dropped,
            },
        }

    def export_jsonl(self, path: "str | Path") -> int:
        """Write the full observation as one JSONL file; returns line count.

        Layout: a ``meta`` header, every trace event, one ``series`` line
        per time series (columns + rows), and a final ``metrics`` line with
        the counter/gauge/histogram snapshot.  ``observe-report`` (the
        ``python -m repro`` subcommand) renders this file.
        """
        import json

        path = Path(path)
        snapshot = self.registry.snapshot()
        lines = 0
        with path.open("w", encoding="utf-8") as handle:
            def write(obj) -> None:
                nonlocal lines
                handle.write(json.dumps(obj, separators=(",", ":")))
                handle.write("\n")
                lines += 1

            write(
                {
                    "kind": "meta",
                    "schema": _TRACE_SCHEMA,
                    "events": len(self.tracer.events),
                    "dropped_events": self.tracer.num_dropped,
                }
            )
            for event in self.tracer.events:
                write(event)
            for name, series in sorted(snapshot["series"].items()):
                write({"kind": "series", "name": name, **series})
            write(
                {
                    "kind": "metrics",
                    "counters": snapshot["counters"],
                    "gauges": snapshot["gauges"],
                    "histograms": snapshot["histograms"],
                    "phase_seconds": dict(self.phase_seconds),
                }
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Observer(runs={self._sim_runs}, "
            f"pending={len(self._pending_sims)}, {self._registry!r}, "
            f"{self._tracer!r})"
        )
