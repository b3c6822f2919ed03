"""The unit of parallel work: one simulated peak period at one design point.

A :class:`TrialSpec` carries everything a worker process needs to rebuild
the trial from scratch: the experiment setup, the (already computed)
replica layout, the design point, and the *root* workload seed plus the
trial's run index.  The trace is regenerated inside the worker from
``SeedSequence(seed, spawn_key=(run_index,))`` — exactly the child that
``SeedSequence(seed).spawn(num_runs)[run_index]`` produces — so a sweep
partitioned over any number of processes is bit-identical to the serial
run, and any single trial can be re-simulated in isolation.

Design points share traces: the workload seed depends on the setup, rate
and theta only, never on the layout (common random numbers), so every
replication/placement combo and degree at one ``(theta, rate)`` replays
the same peak periods.  Each process therefore memoizes

* the trace by exactly what it is drawn from (setup, theta, rate, seed,
  run, shard, horizon), bounded by the bytes the memo holds, and
* the simulator by exactly what it is built from (setup, layout
  contents, degree, dispatcher, backbone, engine — :attr:`TrialSpec.
  simulator_key`), so one simulator serves every rate and seed of a
  layout.

Both memos return what a fresh build would, so outcomes are bit-identical
with the memos warm, cleared, or split over pool workers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import check_finite_non_negative, check_int_in_range
from ..cluster_sim import (
    DEFAULT_ENGINE,
    ENGINES,
    VoDClusterSimulator,
    engine_run_kwargs,
    make_dispatcher_factory,
    make_simulator,
)
from ..cluster_sim.failures import (
    FailoverPolicy,
    FailureSpec,
    RereplicationPolicy,
)
from ..cluster_sim.metrics import SimulationResult
from ..cluster_sim.sharding import shard_spawn_key
from ..model.layout import ReplicaLayout
from ..workload import WorkloadGenerator
from ..workload.requests import RequestTrace
from .cache import canonical, canonical_key, code_version

__all__ = [
    "TrialSpec",
    "make_trials",
    "observe_trial",
    "run_trial",
    "trial_cache_key",
    "trial_run_kwargs",
]


@dataclass(frozen=True)
class TrialSpec:
    """One independent simulation run of one experiment design point.

    ``setup`` is duck-typed (anything exposing ``cluster(degree)``,
    ``videos()``, ``popularity(theta)`` and ``peak_minutes`` works); the
    stock implementation is :class:`repro.experiments.PaperSetup`.
    """

    setup: object
    layout: ReplicaLayout = field(repr=False)
    theta: float
    degree: float
    arrival_rate_per_min: float
    seed: int
    run_index: int
    dispatcher: str = "static_rr"
    #: Lockstep engine executing the trial (see
    #: :data:`repro.cluster_sim.ENGINES`); all engines are
    #: ``same_outcome``-identical, so the engine only affects speed (and,
    #: for ``audited``, in-situ invariant checking).
    engine: str = DEFAULT_ENGINE
    backbone_mbps: float = 0.0
    horizon_min: float | None = None
    #: Chaos extension: per-run failure schedule recipe (built inside the
    #: worker with ``SeedSequence(seed, spawn_key=(0xFA11, run_index))``,
    #: so chaos randomness never perturbs the workload stream).
    failures: FailureSpec | None = None
    failover: FailoverPolicy | None = None
    rereplication: RereplicationPolicy | None = None
    failover_on_down: bool = False
    #: Scale-out extension: the run's shard count and this trial's shard.
    #: Shard 0 regenerates the plain run's trace (workload spawn key
    #: ``(run_index,)``); shard ``k >= 1`` draws from ``(run_index, k)``
    #: and chaos from ``(0xFA11, run_index, k)`` — see
    #: :mod:`repro.cluster_sim.sharding`.
    num_shards: int = 1
    shard_index: int = 0
    #: Content hash shared by all trials of one design point: the result
    #: cache key (with the run and shard, see :func:`trial_cache_key`).
    #: Computed by :func:`make_trials`.
    config_key: str = ""
    #: Content hash of the simulator's own inputs (setup, layout contents,
    #: degree, dispatcher, backbone, engine), shared by every rate and
    #: seed of one layout: the worker-side simulator memo key.  A content
    #: hash rather than an identity, so it survives pickling into pool
    #: workers.  Computed by :func:`make_trials`; empty bypasses the memo.
    simulator_key: str = ""

    def resolved_horizon_min(self) -> float:
        return float(
            self.horizon_min
            if self.horizon_min is not None
            else self.setup.peak_minutes
        )


def make_trials(
    setup,
    layout: ReplicaLayout,
    *,
    theta: float,
    degree: float,
    arrival_rate_per_min: float,
    seed: int,
    num_runs: int,
    dispatcher: str = "static_rr",
    backbone_mbps: float = 0.0,
    horizon_min: float | None = None,
    failures: FailureSpec | None = None,
    failover: FailoverPolicy | None = None,
    rereplication: RereplicationPolicy | None = None,
    failover_on_down: bool = False,
    num_shards: int = 1,
    engine: str = DEFAULT_ENGINE,
) -> list[TrialSpec]:
    """Build the trial specs of one design point.

    ``num_runs * num_shards`` specs, run-major (run 0's shards first) so
    consecutive groups of ``num_shards`` results merge into one run via
    :func:`repro.cluster_sim.sharding.merge_results`.

    The configuration hash binds the full setup, the layout contents, the
    design point, the dispatcher/backbone options, the shard count, and
    the code version — the result cache's invalidation key.  The shard
    count is part of the hash (and the shard index part of
    :func:`trial_cache_key`), so a sharded run and an unsharded run of the
    same design point can never collide in the cache.

    A bad design point fails here with a ``ValueError`` naming the
    parameter: ``num_runs`` and ``num_shards`` must be ints >= 1,
    ``arrival_rate_per_min`` finite and >= 0, and ``degree`` finite and
    >= 1.
    """
    num_runs = check_int_in_range("num_runs", num_runs, 1)
    num_shards = check_int_in_range("num_shards", num_shards, 1)
    check_finite_non_negative("arrival_rate_per_min", arrival_rate_per_min)
    if not (math.isfinite(degree) and degree >= 1):
        raise ValueError(f"degree must be finite and >= 1, got {degree!r}")
    base = TrialSpec(
        setup=setup,
        layout=layout,
        theta=float(theta),
        degree=float(degree),
        arrival_rate_per_min=float(arrival_rate_per_min),
        seed=int(seed),
        run_index=0,
        dispatcher=dispatcher,
        engine=engine,
        backbone_mbps=float(backbone_mbps),
        horizon_min=horizon_min,
        failures=failures,
        failover=failover,
        rereplication=rereplication,
        failover_on_down=bool(failover_on_down),
        num_shards=num_shards,
    )
    # Both keys hash canonical forms directly: the setup is walked once,
    # and the layout enters as its cached holder digest.
    simulator_key = canonical_key(
        {
            "setup": canonical(base.setup),
            "layout": layout.holder_digest,
            "degree": base.degree,
            "dispatcher": base.dispatcher,
            "backbone_mbps": base.backbone_mbps,
            "engine": base.engine,
            "simulator": ENGINES[base.engine].__qualname__,
        }
    )
    config_key = canonical_key(
        {
            "simulator_key": simulator_key,
            "theta": base.theta,
            "arrival_rate_per_min": base.arrival_rate_per_min,
            "seed": base.seed,
            "horizon_min": canonical(base.horizon_min),
            "failures": canonical(base.failures),
            "failover": canonical(base.failover),
            "rereplication": canonical(base.rereplication),
            "failover_on_down": base.failover_on_down,
            "num_shards": base.num_shards,
            "code_version": code_version(),
        }
    )
    return [
        replace(
            base,
            run_index=r,
            shard_index=k,
            config_key=config_key,
            simulator_key=simulator_key,
        )
        for r in range(num_runs)
        for k in range(num_shards)
    ]


def trial_cache_key(spec: TrialSpec) -> str:
    """Cache key of one trial: design-point hash + run index + shard."""
    return hashlib.sha256(
        f"{spec.config_key}:{spec.run_index}:{spec.shard_index}".encode()
    ).hexdigest()


class _TraceMemo:
    """Worker-local trace memo bounded by the bytes its traces hold.

    Oldest entry evicted first.  A count bound would not do: a sweep
    revisits its ``rates x runs x shards`` traces cyclically, once per
    layout, and FIFO under a bound below that working set never hits.
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: dict[tuple, tuple[RequestTrace, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> RequestTrace | None:
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: tuple, trace: RequestTrace) -> None:
        # Reserve room for the round-robin ranks (one narrowest-unsigned
        # cell per request, RequestTrace.video_ranks) without building
        # them: only the vector engine's batched path reads them.
        n = trace.num_requests
        size = (
            trace.arrival_min.nbytes
            + trace.videos.nbytes
            + n * np.min_scalar_type(n).itemsize
        )
        if trace.watch_min is not None:
            size += trace.watch_min.nbytes
        if size > self.max_bytes:
            return
        while self.nbytes + size > self.max_bytes:
            _, evicted = self._entries.pop(next(iter(self._entries)))
            self.nbytes -= evicted
        self._entries[key] = (trace, size)
        self.nbytes += size

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


#: Byte bound of the trace memo: a paper-scale fig4 sweep's working set
#: (160 traces per theta) is about 6 MB.
_TRACE_MEMO_BYTES = 32 << 20
_TRACE_MEMO = _TraceMemo(_TRACE_MEMO_BYTES)


def trial_trace(spec: TrialSpec) -> RequestTrace:
    """Regenerate the trial's request trace (bit-identical to serial).

    Shard 0 draws the plain run's stream; shard ``k >= 1`` its own
    sub-stream (see :func:`repro.cluster_sim.sharding.shard_spawn_key`).
    Traces are memoized per process (their arrays are read-only, so
    sharing is safe); a setup that is not hashable bypasses the memo.
    """
    horizon_min = spec.resolved_horizon_min()
    key = (
        spec.setup,
        spec.theta,
        spec.arrival_rate_per_min,
        spec.seed,
        spec.run_index,
        spec.shard_index,
        horizon_min,
    )
    try:
        trace = _TRACE_MEMO.get(key)
    except TypeError:  # an unhashable duck-typed setup
        key = None
        trace = None
    if trace is None:
        generator = WorkloadGenerator.poisson_zipf(
            spec.setup.popularity(spec.theta), spec.arrival_rate_per_min
        )
        child = np.random.SeedSequence(
            entropy=spec.seed,
            spawn_key=shard_spawn_key(spec.run_index, spec.shard_index),
        )
        trace = generator.generate(horizon_min, np.random.default_rng(child))
        if key is not None:
            _TRACE_MEMO.put(key, trace)
    return trace


#: Worker-local simulator memo, keyed by ``simulator_key`` (bounded FIFO).
_SIM_MEMO: dict[str, VoDClusterSimulator] = {}
_SIM_MEMO_MAX = 32


def _simulator_for(spec: TrialSpec) -> VoDClusterSimulator:
    key = spec.simulator_key
    simulator = _SIM_MEMO.get(key) if key else None
    if simulator is None:
        simulator = make_simulator(
            spec.engine,
            spec.setup.cluster(spec.degree),
            spec.setup.videos(),
            spec.layout,
            dispatcher_factory=make_dispatcher_factory(spec.dispatcher),
            backbone_mbps=spec.backbone_mbps,
        )
        if key:
            if len(_SIM_MEMO) >= _SIM_MEMO_MAX:
                _SIM_MEMO.pop(next(iter(_SIM_MEMO)))
            _SIM_MEMO[key] = simulator
    return simulator


def trial_run_kwargs(spec: TrialSpec) -> dict:
    """Chaos keyword arguments for ``run()``, built from the spec's recipe.

    The failure schedule is derived per run from
    ``SeedSequence(seed, spawn_key=(0xFA11, run_index[, shard]))`` — a
    stream disjoint from the workload's ``spawn_key=(run_index[, shard])``
    — so enabling chaos never perturbs the arrival process.
    """
    if spec.failures is None:
        return {}
    cluster = spec.setup.cluster(spec.degree)
    return {
        "failures": spec.failures.build(
            cluster.num_servers,
            spec.resolved_horizon_min(),
            seed=spec.seed,
            run_index=spec.run_index,
            shard=spec.shard_index,
        ),
        "failover_on_down": spec.failover_on_down,
        "failover": spec.failover,
        "rereplication": spec.rereplication,
    }


def run_trial(spec: TrialSpec, observer=None) -> SimulationResult:
    """Simulate one trial (the function a pool worker executes)."""
    kwargs = {**trial_run_kwargs(spec), **engine_run_kwargs(spec.engine)}
    if observer is not None:
        kwargs["observer"] = observer
    return _simulator_for(spec).run(
        trial_trace(spec), horizon_min=spec.resolved_horizon_min(), **kwargs
    )


class _Capture:
    """A worker-side observer: keeps one run's observation to ship back."""

    def __init__(self, config) -> None:
        self.config = config

    def record_simulation(self, *, result, **payload) -> None:
        self.payload = payload


def observe_trial(task: "tuple[TrialSpec, object]") -> tuple:
    """Simulate one ``(spec, ObserverConfig)`` trial observed; returns
    ``(result, payload)``, the payload being the rest of the
    ``Observer.record_simulation`` keywords, folded in the worker."""
    capture = _Capture(task[1])
    return run_trial(task[0], observer=capture), capture.payload
