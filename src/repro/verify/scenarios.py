"""Deterministic scenario generation for the differential fuzzer.

A :class:`FuzzCase` is a *self-contained* JSON-serializable description of
one differential check: its kind (``"des"`` for simulator equivalence,
``"sa"`` for annealing delta cross-checks, ``"serving"`` for serving
control-plane invariants) plus a flat parameter dict that
includes every seed the builders consume.  Replaying a case therefore
needs nothing but the JSON — no global seed, no generation order — which
is what makes the shrunk repro files under ``tests/corpus/`` stable
regression tests.

Cases are drawn from :class:`numpy.random.SeedSequence` spawn keys (one
child sequence per case index), so the fuzzer's case stream is
bit-reproducible for a given ``--seed`` and embarrassingly parallel in
principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cluster_sim import DISPATCHERS

__all__ = [
    "FuzzCase",
    "draw_case",
    "draw_serving_case",
    "draw_adversarial_params",
    "build_des",
    "build_sa",
    "build_serving",
    "DISPATCHER_NAMES",
]

DISPATCHER_NAMES = tuple(DISPATCHERS)

#: Largest seed stored in params (fits comfortably in JSON ints).
_SEED_MAX = 2**31 - 1


@dataclass(frozen=True)
class FuzzCase:
    """One self-contained fuzz scenario."""

    kind: str  # "des" | "sa" | "serving"
    name: str
    params: dict = field(hash=False)

    def to_json(self) -> dict:
        return {"format": 1, "kind": self.kind, "name": self.name,
                "params": dict(self.params)}

    @classmethod
    def from_json(cls, payload: dict) -> "FuzzCase":
        if payload.get("format") != 1:
            raise ValueError(
                f"unsupported fuzz-case format {payload.get('format')!r}"
            )
        if payload["kind"] not in ("des", "sa", "serving"):
            raise ValueError(f"unknown fuzz-case kind {payload['kind']!r}")
        return cls(
            kind=payload["kind"],
            name=str(payload["name"]),
            params=dict(payload["params"]),
        )


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, _SEED_MAX))


def draw_case(seed_seq: np.random.SeedSequence, index: int) -> FuzzCase:
    """Draw one case from a spawned :class:`SeedSequence` child."""
    rng = np.random.default_rng(seed_seq)
    # Roughly one annealing case per three simulator cases: DES runs are
    # the cheaper check and the larger attack surface.
    if rng.random() < 0.25:
        return _draw_sa(rng, index)
    return _draw_des(rng, index)


def _draw_des(rng: np.random.Generator, index: int) -> FuzzCase:
    num_videos = int(rng.integers(8, 61))
    num_servers = int(rng.integers(2, 10))
    duration_min = float(rng.uniform(20.0, 120.0))
    params = {
        "num_videos": num_videos,
        "num_servers": num_servers,
        "theta": float(rng.uniform(0.2, 1.2)),
        "bandwidth_mbps": float(rng.uniform(150.0, 900.0)),
        "rate_per_min": float(rng.uniform(2.0, 35.0)),
        "duration_min": duration_min,
        "video_duration_min": float(rng.uniform(8.0, 45.0)),
        "capacity": int(rng.integers(num_videos // 2 + 2, num_videos + 4)),
        "dispatcher": DISPATCHER_NAMES[int(rng.integers(len(DISPATCHER_NAMES)))],
        # Feature flags; each edge case gets forced occasionally so the
        # corpus keeps hitting the rare paths.
        "failures": bool(rng.random() < 0.5),
        "failure_at_t0": bool(rng.random() < 0.15),
        "failure_at_horizon": bool(rng.random() < 0.1),
        "correlated_failures": bool(rng.random() < 0.25),
        "mtbf_frac": float(rng.uniform(0.25, 1.0)),
        "mttr_frac": float(rng.uniform(0.05, 0.35)),
        "redirection": bool(rng.random() < 0.5),
        "backbone_frac": float(rng.uniform(0.15, 0.8)),
        "stream_limits": bool(rng.random() < 0.4),
        "watch_time": bool(rng.random() < 0.4),
        "watch_mean": float(rng.uniform(0.3, 0.9)),
        "failover_on_down": bool(rng.random() < 0.5),
        # Chaos & recovery machinery (failover retry with backoff and
        # repair-driven re-replication); consumed via .get() in build_des
        # so pre-chaos corpus entries keep replaying unchanged.
        "failover_retry": bool(rng.random() < 0.4),
        "max_retries": int(rng.integers(1, 6)),
        "backoff_frac": float(rng.uniform(0.005, 0.05)),
        "retry_saturated": bool(rng.random() < 0.2),
        "rereplication": bool(rng.random() < 0.4),
        "migration_frac": float(rng.uniform(0.5, 4.0)),
        # < 1 exercises horizon truncation of the arrival tail.
        "horizon_frac": float(rng.uniform(0.6, 1.0))
        if rng.random() < 0.3
        else 1.0,
        "trace_seed": _seed(rng),
        "build_seed": _seed(rng),
        "failure_seed": _seed(rng),
        "limits_seed": _seed(rng),
    }
    if params["failure_at_t0"] or params["failure_at_horizon"]:
        params["failures"] = True
    return FuzzCase(kind="des", name=f"des_{index:05d}", params=params)


def draw_adversarial_params(params: dict) -> dict:
    """Adversarial-workload knobs for a drawn DES case (``--adversarial``).

    Derived from a *child* rng keyed off the case's own ``trace_seed``, so
    the base case stream (and therefore the historical campaign digests
    without the flag) is untouched — the same post-draw injection pattern
    as ``--chaos``.  The knobs mirror
    :class:`repro.workload.AdversarialSpec.to_params`.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((int(params["trace_seed"]), 0xAD))
    )
    kind = ("inversion", "hotset_flip", "theta_ramp")[int(rng.integers(3))]
    return {
        "adversarial_kind": kind,
        "adversarial_flip_at_frac": float(rng.uniform(0.2, 0.8)),
        "adversarial_hotset_size": int(rng.integers(2, 12)),
        "adversarial_theta_start": float(rng.uniform(0.0, 0.4)),
        "adversarial_theta_end": float(rng.uniform(0.6, 1.2)),
        "adversarial_ramp_segments": int(rng.integers(2, 9)),
    }


def _draw_sa(rng: np.random.Generator, index: int) -> FuzzCase:
    num_videos = int(rng.integers(25, 56))
    num_servers = int(rng.integers(3, 7))
    arrival_rate = float(rng.uniform(10.0, 30.0))
    peak_minutes = float(rng.uniform(60.0, 120.0))
    theta = float(rng.uniform(0.4, 1.1))
    # Keep the instance feasible at the paper's initial solution (lowest
    # rate, one replica per video, round-robin): the round-robin stripe
    # concentrates Zipf mass on low-id servers, so size the link off the
    # *heaviest* server's expected demand, with head room.
    from .. import ZipfPopularity

    probs = ZipfPopularity(num_videos, theta).probabilities
    mass = np.zeros(num_servers)
    np.add.at(mass, np.arange(num_videos) % num_servers, probs)
    heaviest = arrival_rate * peak_minutes * 1.5 * float(mass.max())
    params = {
        "num_videos": num_videos,
        "num_servers": num_servers,
        "theta": theta,
        "bandwidth_mbps": float(heaviest * rng.uniform(1.2, 2.2)),
        "storage_gb": float(num_videos * rng.uniform(0.7, 1.3)),
        "arrival_rate_per_min": arrival_rate,
        "peak_minutes": peak_minutes,
        "crosscheck_moves": int(rng.integers(120, 301)),
        "steps_per_level": int(rng.integers(20, 50)),
        "max_levels": int(rng.integers(4, 10)),
        "compare_engines": bool(rng.random() < 0.3),
        "init_seed": _seed(rng),
        "walk_seed": _seed(rng),
        "engine_seed": _seed(rng),
    }
    return FuzzCase(kind="sa", name=f"sa_{index:05d}", params=params)


def draw_serving_case(
    seed_seq: np.random.SeedSequence, index: int
) -> FuzzCase:
    """Draw one serving control-plane case (the ``--serving`` stream).

    Kept out of :func:`draw_case`'s default mix so the historical
    ``des``/``sa`` campaign digests stay stable.
    """
    rng = np.random.default_rng(seed_seq)
    return _draw_serving(rng, index)


def _draw_serving(rng: np.random.Generator, index: int) -> FuzzCase:
    num_videos = int(rng.integers(12, 41))
    num_servers = int(rng.integers(2, 7))
    epochs = int(rng.integers(3, 8))
    epoch_minutes = float(rng.uniform(12.0, 30.0))
    video_duration_min = float(rng.uniform(10.0, 30.0))
    bandwidth = float(rng.uniform(80.0, 400.0))
    # Saturation rate of the drawn cluster; the peak rate straddles it so
    # a slice of cases exercises the rejection/elasticity regime.
    streams = num_servers * int(bandwidth / 4.0)
    saturation = streams / video_duration_min
    peak_rate = float(saturation * rng.uniform(0.3, 1.3))
    drift_kind = ("rankswap", "release", "lognormal")[int(rng.integers(3))]
    drift_value = {
        "rankswap": str(int(rng.integers(1, 7))),
        "release": str(int(rng.integers(1, 5))),
        "lognormal": f"{rng.uniform(0.1, 0.8):.3f}",
    }[drift_kind]
    params = {
        "num_videos": num_videos,
        "num_servers": num_servers,
        "theta": float(rng.uniform(0.3, 1.1)),
        "degree": float(rng.uniform(1.05, min(1.8, float(num_servers)))),
        "bandwidth_mbps": bandwidth,
        "video_duration_min": video_duration_min,
        "epochs": epochs,
        "epoch_minutes": epoch_minutes,
        "day_epochs": int(rng.integers(2, 5)),
        "base_rate_per_min": float(peak_rate * rng.uniform(0.3, 0.8)),
        "peak_rate_per_min": peak_rate,
        "flash": bool(rng.random() < 0.35),
        "flash_epoch": int(rng.integers(epochs)),
        "flash_multiplier": float(rng.uniform(1.5, 2.5)),
        "drift_enabled": bool(rng.random() < 0.7),
        "drift_spec": f"{drift_kind}:{drift_value}",
        "replan": "always" if rng.random() < 0.4 else "drift",
        "drift_threshold": float(rng.uniform(0.05, 0.25)),
        "tracker_alpha": float(rng.uniform(0.3, 0.8)),
        "move_budget": (
            int(rng.integers(2, 21)) if rng.random() < 0.5 else None
        ),
        "screen": bool(rng.random() < 0.15),
        "elastic": bool(rng.random() < 0.35),
        "slo_rejection_rate": float(rng.uniform(0.02, 0.15)),
        "breach_epochs": int(rng.integers(1, 3)),
        "relax_epochs": int(rng.integers(2, 4)),
        "cooldown_epochs": int(rng.integers(1, 3)),
        "extra_servers": int(rng.integers(1, 4)),
        "dispatcher": DISPATCHER_NAMES[int(rng.integers(len(DISPATCHER_NAMES)))],
        "failures": bool(rng.random() < 0.35),
        "mtbf_frac": float(rng.uniform(0.5, 2.0)),
        "mttr_frac": float(rng.uniform(0.05, 0.3)),
        "failover_on_down": bool(rng.random() < 0.5),
        "seed": _seed(rng),
    }
    return FuzzCase(kind="serving", name=f"serving_{index:05d}", params=params)


# ----------------------------------------------------------------------
# Builders: params dict -> runnable objects.  All randomness comes from
# seeds stored in the params, so a case replays identically from JSON.
# ----------------------------------------------------------------------
def build_des(params: dict):
    """Build ``(optimized, reference, trace, run_kwargs)`` for a DES case."""
    from .. import ClusterSpec, VideoCollection, ZipfPopularity
    from ..cluster_sim import ReferenceClusterSimulator, VoDClusterSimulator
    from ..cluster_sim.dispatch import make_dispatcher_factory
    from ..cluster_sim.failures import (
        FailoverPolicy,
        FailureEvent,
        FailureSchedule,
        RereplicationPolicy,
    )
    from ..placement import smallest_load_first_placement
    from ..replication import zipf_interval_replication
    from ..workload import ExponentialWatch, WorkloadGenerator

    num_videos = int(params["num_videos"])
    num_servers = int(params["num_servers"])
    duration_min = float(params["duration_min"])
    # Keep the layout feasible under shrinking: every video needs at
    # least one replica, so per-server capacity must cover M/N.
    capacity = max(
        int(params["capacity"]), math.ceil(num_videos / num_servers) + 1
    )

    popularity = ZipfPopularity(num_videos, float(params["theta"]))
    videos = VideoCollection.homogeneous(
        num_videos, duration_min=float(params["video_duration_min"])
    )
    cluster = ClusterSpec.homogeneous(
        num_servers,
        storage_gb=1.0e6,  # bandwidth-constrained regime, like the paper
        bandwidth_mbps=float(params["bandwidth_mbps"]),
    )
    replication = zipf_interval_replication(
        popularity.probabilities,
        num_servers,
        min(num_videos + num_servers * 2, capacity * num_servers),
    )
    layout = smallest_load_first_placement(replication, capacity)

    watch_model = ExponentialWatch(float(params["watch_mean"])) if params[
        "watch_time"
    ] else None
    # Adversarial popularity shifts (read with .get() so pre-adversarial
    # corpus entries keep replaying).  The shifted trace replaces the
    # stationary one for *all* lockstep engines, so the differential
    # checks exercise mid-horizon distribution breaks; watch-time draws
    # are layered on top from the same rng stream.
    from ..workload.adversarial import AdversarialSpec, generate_adversarial_trace

    spec = AdversarialSpec.from_params(params)
    trace_rng = np.random.default_rng(int(params["trace_seed"]))
    if spec is not None:
        trace = generate_adversarial_trace(
            popularity.probabilities,
            float(params["rate_per_min"]),
            duration_min,
            spec,
            trace_rng,
        )
        if watch_model is not None:
            watch = watch_model.sample(
                videos.durations_min[trace.videos], trace_rng
            )
            from ..workload import RequestTrace

            trace = RequestTrace(trace.arrival_min, trace.videos, watch)
    else:
        generator = WorkloadGenerator(
            popularity,
            WorkloadGenerator.poisson_zipf(
                popularity, float(params["rate_per_min"])
            ).arrivals,
            watch_time_model=watch_model,
            video_durations_min=videos.durations_min if watch_model else None,
        )
        trace = generator.generate(duration_min, trace_rng)

    stream_limits = None
    if params["stream_limits"]:
        stream_limits = (
            np.random.default_rng(int(params["limits_seed"]))
            .integers(3, 40, size=num_servers)
            .tolist()
        )

    horizon_min = duration_min * float(params["horizon_frac"])
    failures = None
    if params["failures"]:
        frng = np.random.default_rng(int(params["failure_seed"]))
        mttr = duration_min * float(params["mttr_frac"])
        if params["failure_at_t0"]:
            # Forced edge case: a server is already down when the first
            # request arrives (and may repair mid-run).
            events = [
                FailureEvent(
                    0.0, int(frng.integers(num_servers)), float(mttr)
                )
            ]
            if num_servers > 1 and frng.random() < 0.7:
                others = [
                    s for s in range(num_servers) if s != events[0].server
                ]
                events.append(
                    FailureEvent(
                        float(frng.uniform(0.0, duration_min)),
                        int(frng.choice(others)),
                        float(frng.exponential(mttr)),
                    )
                )
            failures = FailureSchedule(events)
        elif params.get("correlated_failures", False) and num_servers >= 2:
            # Rack-correlated outage model: whole groups crash together.
            num_groups = 2 if num_servers < 6 else 3
            groups = [
                tuple(int(s) for s in g)
                for g in np.array_split(np.arange(num_servers), num_groups)
            ]
            failures = FailureSchedule.correlated(
                groups,
                duration_min,
                frng,
                mtbf_min=duration_min * float(params["mtbf_frac"]) * num_groups,
                mttr_min=mttr,
            )
        else:
            failures = FailureSchedule.random(
                num_servers,
                duration_min,
                frng,
                mtbf_min=duration_min * float(params["mtbf_frac"]),
                mttr_min=mttr,
            )
        if params.get("failure_at_horizon", False):
            # Horizon-edge pin: a crash at exactly t == horizon must be a
            # no-op in every loop (the strict-< rule).  Clear the chosen
            # server's other events so the schedule stays overlap-free.
            server = int(frng.integers(num_servers))
            events = [e for e in failures if e.server != server]
            events.append(FailureEvent(horizon_min, server, mttr))
            failures = FailureSchedule(events)

    sim_kwargs = dict(
        dispatcher_factory=make_dispatcher_factory(str(params["dispatcher"])),
        backbone_mbps=(
            float(params["bandwidth_mbps"]) * float(params["backbone_frac"])
            if params["redirection"]
            else 0.0
        ),
        stream_limits=stream_limits,
    )
    optimized = VoDClusterSimulator(cluster, videos, layout, **sim_kwargs)
    reference = ReferenceClusterSimulator(cluster, videos, layout, **sim_kwargs)
    # Chaos & recovery knobs are read with .get() defaults so pre-chaos
    # corpus entries (format 1 without these keys) keep replaying.
    failover = None
    if params.get("failover_retry", False):
        failover = FailoverPolicy(
            max_retries=int(params.get("max_retries", 3)),
            backoff_base_min=duration_min
            * float(params.get("backoff_frac", 0.01)),
            backoff_cap_min=duration_min * 0.25,
            retry_saturated=bool(params.get("retry_saturated", False)),
        )
    rereplication = None
    if params.get("rereplication", False):
        rereplication = RereplicationPolicy(
            migration_mbps=float(params["bandwidth_mbps"])
            * float(params.get("migration_frac", 1.0))
        )
    run_kwargs = dict(
        horizon_min=horizon_min,
        failures=failures,
        failover_on_down=bool(params["failover_on_down"]),
        failover=failover,
        rereplication=rereplication,
    )
    return optimized, reference, trace, run_kwargs


def build_sa(params: dict):
    """Build ``(problem, annealer)`` for an annealing case."""
    from .. import ClusterSpec, VideoCollection, ZipfPopularity
    from ..annealing import (
        GeometricCooling,
        ScalableBitRateProblem,
        SimulatedAnnealer,
    )
    from ..model.problem import ReplicationProblem

    num_videos = int(params["num_videos"])
    popularity = ZipfPopularity(num_videos, float(params["theta"]))
    cluster = ClusterSpec.homogeneous(
        int(params["num_servers"]),
        storage_gb=float(params["storage_gb"]),
        bandwidth_mbps=float(params["bandwidth_mbps"]),
    )
    videos = VideoCollection.homogeneous(num_videos)
    problem = ReplicationProblem(
        cluster,
        videos,
        popularity,
        arrival_rate_per_min=float(params["arrival_rate_per_min"]),
        peak_minutes=float(params["peak_minutes"]),
        allowed_bit_rates_mbps=(1.5, 3.0, 4.0, 6.0),
    )
    annealer = SimulatedAnnealer(
        GeometricCooling(0.05),
        steps_per_level=int(params["steps_per_level"]),
        max_levels=int(params["max_levels"]),
        patience_levels=0,
    )
    return ScalableBitRateProblem(problem), annealer


def build_serving(params: dict):
    """Build a :class:`repro.serving.ServingConfig` for a serving case."""
    from ..experiments.config import PaperSetup
    from ..serving import ServingConfig

    epoch_minutes = float(params["epoch_minutes"])
    setup = PaperSetup(
        num_servers=int(params["num_servers"]),
        server_bandwidth_mbps=float(params["bandwidth_mbps"]),
        num_videos=int(params["num_videos"]),
        duration_min=float(params["video_duration_min"]),
        peak_minutes=epoch_minutes,
        num_runs=1,
        seed=int(params["seed"]),
    )
    failures = None
    if params.get("failures", False):
        mtbf = epoch_minutes * float(params.get("mtbf_frac", 1.0))
        mttr = epoch_minutes * float(params.get("mttr_frac", 0.15))
        kind = str(params.get("failure_kind", "random"))
        if kind == "correlated":
            groups = int(params.get("failure_groups", 2))
            failures = (
                f"correlated:groups={groups},mtbf={mtbf:.3f},mttr={mttr:.3f}"
            )
        else:
            failures = f"random:mtbf={mtbf:.3f},mttr={mttr:.3f}"
    move_budget = params.get("move_budget")
    return ServingConfig(
        epochs=int(params["epochs"]),
        epoch_minutes=epoch_minutes,
        theta=float(params["theta"]),
        replication_degree=float(params["degree"]),
        base_rate_per_min=float(params["base_rate_per_min"]),
        peak_rate_per_min=float(params["peak_rate_per_min"]),
        day_epochs=int(params["day_epochs"]),
        flash_epochs=(
            (int(params["flash_epoch"]),) if params.get("flash") else ()
        ),
        flash_multiplier=float(params["flash_multiplier"]),
        drift=(
            str(params["drift_spec"])
            if params.get("drift_enabled")
            else None
        ),
        replan=str(params["replan"]),
        drift_threshold=float(params["drift_threshold"]),
        tracker_alpha=float(params["tracker_alpha"]),
        move_budget=None if move_budget is None else int(move_budget),
        anneal_polish=bool(params.get("anneal_polish", False)),
        screen=bool(params.get("screen", False)),
        elastic=bool(params.get("elastic", False)),
        slo_rejection_rate=float(params["slo_rejection_rate"]),
        breach_epochs=int(params["breach_epochs"]),
        relax_epochs=int(params["relax_epochs"]),
        cooldown_epochs=int(params["cooldown_epochs"]),
        max_servers=int(params["num_servers"]) + int(params["extra_servers"]),
        dispatcher=str(params["dispatcher"]),
        failures=failures,
        failover_on_down=bool(params.get("failover_on_down", False)),
        setup=setup,
    )
