"""The parallel cached experiment engine.

:class:`ParallelRunner` is the single gateway through which experiments
run simulations.  It fans independent trials out over a
``ProcessPoolExecutor`` (``jobs`` workers, default ``os.cpu_count()``),
answers already-simulated trials from the on-disk :class:`ResultCache`,
and accounts every trial in a :class:`RunReport`.

Determinism contract: results depend only on the trial specs — never on
``jobs``, the cache state, or scheduling.  Each trial regenerates its trace
from an independent ``SeedSequence`` child (see :mod:`repro.runtime.trial`),
and the runner returns results in spec order, so serial and parallel sweeps
are bit-identical.

Experiment modules reach the engine through the *active runner*
(:func:`get_runner`): library calls default to a serial, uncached runner —
identical behavior to the historical inline loops — while the CLI installs
a configured engine for the whole run via :func:`use_runner`.
"""

from __future__ import annotations

import os
import time
import weakref
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from ..cluster_sim.metrics import SimulationResult
from ..observe.profile import timed
from ..workload.requests import RequestTrace
from .cache import ResultCache
from .report import RunReport
from .trial import TrialSpec, observe_trial, run_trial, trial_cache_key

__all__ = [
    "ParallelRunner",
    "get_runner",
    "set_runner",
    "simulate_many",
    "use_runner",
]


def _run_simulation(payload) -> object:
    """Worker entry for :meth:`ParallelRunner.map_simulations`."""
    simulator, trace, kwargs = payload
    return simulator.run(trace, **kwargs)


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Finalizer target: must not capture the runner (that would keep it
    alive forever and defeat the finalizer entirely)."""
    executor.shutdown(wait=True)


class ParallelRunner:
    """Runs experiment trials over a process pool with result caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``.  ``jobs=1``
        runs everything inline (no pool, no pickling).
    cache:
        Optional :class:`ResultCache`; ``None`` disables caching.
    report:
        Optional :class:`RunReport` to accumulate into; a fresh one is
        created otherwise and exposed as :attr:`report`.
    observer:
        Optional :class:`repro.observe.Observer`; when set, every batch is
        also recorded in its registry/tracer (counters, batch events).
        Phase wall times (cache probe vs simulate) are always folded into
        the report's ``phase_seconds``, observer or not.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        cache: ResultCache | None = None,
        report: RunReport | None = None,
        observer=None,
    ) -> None:
        resolved = jobs if jobs is not None else (os.cpu_count() or 1)
        if resolved < 1:
            raise ValueError(f"jobs must be >= 1, got {resolved}")
        self.jobs = int(resolved)
        self.cache = cache
        self.report = report if report is not None else RunReport(jobs=self.jobs)
        self.report.jobs = self.jobs
        self.observer = observer
        self._executor: ProcessPoolExecutor | None = None
        self._finalizer: "weakref.finalize | None" = None

    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
            self._executor = executor
            # A runner dropped without close() must not leak its worker
            # processes: the finalizer shuts the pool down when the runner
            # is garbage-collected or, at the latest, at interpreter exit
            # (weakref.finalize is atexit-backed).
            self._finalizer = weakref.finalize(
                self, _shutdown_executor, executor
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _execute(self, worker, tasks: list) -> list:
        """Run *tasks* through the pool (or inline), preserving order."""
        if self.jobs == 1 or len(tasks) <= 1:
            return [worker(task) for task in tasks]
        chunksize = max(1, len(tasks) // (self.jobs * 4))
        return list(self._pool().map(worker, tasks, chunksize=chunksize))

    # ------------------------------------------------------------------
    def run_trials(
        self,
        specs: "Sequence[TrialSpec] | Iterable[TrialSpec]",
        *,
        observer=None,
    ) -> list[SimulationResult]:
        """Simulate (or recall) every trial, returning results in order.

        With an *observer* every trial is simulated, bypassing the cache:
        each worker folds its own run (:func:`~repro.runtime.trial.
        observe_trial`), recorded in *observer* in spec order with the
        simulate phase.  The runner's own ``observer`` gets the batch.
        """
        specs = list(specs)
        start = time.perf_counter()
        results: list[SimulationResult | None] = [None] * len(specs)

        misses: list[int] = []
        keys: dict[int, str] = {}
        if self.cache is not None and observer is None:
            with timed(self.report, "cache_probe"):
                for index, spec in enumerate(specs):
                    key = trial_cache_key(spec)
                    keys[index] = key
                    cached = self.cache.get(key)
                    if cached is not None:
                        results[index] = cached
                        self.report.record_hit(cached)
                    else:
                        misses.append(index)
        else:
            misses = list(range(len(specs)))

        if misses:
            tasks = [specs[i] for i in misses]
            if observer is None:
                with timed(self.report, "simulate"):
                    fresh = self._execute(run_trial, tasks)
            else:
                config = observer.config
                with timed(observer, "simulate"):
                    fresh = self._execute(
                        observe_trial, [(spec, config) for spec in tasks]
                    )
                for result, payload in fresh:
                    observer.record_simulation(result=result, **payload)
                fresh = [result for result, _ in fresh]
            for index, result in zip(misses, fresh):
                results[index] = result
                self.report.record_simulated(result)
                if keys:
                    self.cache.put(keys[index], result)

        wall_sec = time.perf_counter() - start
        self.report.record_batch(wall_sec)
        if self.observer is not None:
            self.observer.runner_batch(
                num_trials=len(specs),
                num_cache_hits=len(specs) - len(misses),
                wall_sec=wall_sec,
            )
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def map_simulations(
        self,
        simulator,
        traces: "Iterable[RequestTrace]",
        *,
        per_trace_kwargs: "Sequence[dict | None] | None" = None,
        **run_kwargs,
    ) -> list:
        """Run ``simulator.run(trace, **run_kwargs)`` for every trace.

        The generic escape hatch for extension simulators (queueing,
        batching, striping, …) whose results are not plain
        :class:`SimulationResult` objects — and the fan-out path of
        sharded runs (:func:`repro.cluster_sim.sharding.run_sharded`):
        parallel, deterministic, but uncached.  ``per_trace_kwargs``,
        when given, supplies one extra kwargs dict per trace (``None``
        entries allowed) merged over ``run_kwargs`` — sharded chaos runs
        use it to hand each shard its own failure schedule.  The
        simulator is pickled once per task; simulators are stateless
        across runs by contract, so sharing one instance across workers
        is safe.
        """
        traces = list(traces)
        if per_trace_kwargs is None:
            tasks = [(simulator, trace, run_kwargs) for trace in traces]
        else:
            extras = list(per_trace_kwargs)
            if len(extras) != len(traces):
                raise ValueError(
                    f"{len(extras)} per-trace kwargs for "
                    f"{len(traces)} traces"
                )
            tasks = [
                (simulator, trace, {**run_kwargs, **(extra or {})})
                for trace, extra in zip(traces, extras)
            ]
        start = time.perf_counter()
        with timed(self.report, "simulate"):
            results = self._execute(_run_simulation, tasks)
        for result in results:
            if isinstance(result, SimulationResult):
                self.report.record_simulated(result)
            else:
                self.report.num_trials += 1
                self.report.num_simulated += 1
        wall_sec = time.perf_counter() - start
        self.report.record_batch(wall_sec)
        if self.observer is not None:
            self.observer.runner_batch(
                num_trials=len(tasks), num_cache_hits=0, wall_sec=wall_sec
            )
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = "cached" if self.cache is not None else "uncached"
        return f"ParallelRunner(jobs={self.jobs}, {cached})"


#: Serial, uncached fallback — the historical inline-loop behavior.
_DEFAULT_RUNNER = ParallelRunner(jobs=1)
_ACTIVE_RUNNER: ParallelRunner | None = None


def get_runner() -> ParallelRunner:
    """The runner experiment modules route simulations through."""
    return _ACTIVE_RUNNER if _ACTIVE_RUNNER is not None else _DEFAULT_RUNNER


def set_runner(runner: "ParallelRunner | None") -> "ParallelRunner | None":
    """Install (or clear, with ``None``) the active runner; returns the old."""
    global _ACTIVE_RUNNER
    previous = _ACTIVE_RUNNER
    _ACTIVE_RUNNER = runner
    return previous


@contextmanager
def use_runner(runner: ParallelRunner):
    """Scope *runner* as the active engine for a ``with`` block."""
    previous = set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)


def simulate_many(simulator, traces, **run_kwargs) -> list:
    """Route a generic simulator×traces batch through the active runner."""
    return get_runner().map_simulations(simulator, traces, **run_kwargs)
