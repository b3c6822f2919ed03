"""Cross-validation auditor for the analytical Erlang surrogate.

The surrogate (:mod:`repro.analysis.surrogate`) predicts a layout's
steady-state rejection rate from a fixed point of per-server Erlang-B
blockings.  This module is its correctness contract: sample concrete
configurations, run the *real* DES on each, and assert

1. **accuracy** — the surrogate's absolute rejection-rate error against
   the DES mean stays inside a stated tolerance band (default 0.03; the
   surrogate is conservatively biased high for ``static_rr`` because the
   round-robin split is sub-Poisson, see DESIGN.md §10);
2. **bracketing** — every prediction lies between the pooled
   :func:`~repro.analysis.erlang.cluster_blocking_bound` (below) and the
   fully-partitioned :func:`~repro.analysis.erlang.partitioned_blocking`
   under the static ``w_i = p_i / r_i`` split (above);
3. **convergence** — the fixed point actually converged.

The audit deliberately uses *steady-state* scenarios (short videos, long
horizon) — the paper's 90-minute transient peak rejects less than any
steady-state formula predicts, so it cannot validate one.

CLI::

    python -m repro.verify.surrogate_audit --configs 6 --seed 20020818

The default seed pins the CI sample (``--configs 3 --runs 2``).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.erlang import cluster_blocking_bound, partitioned_blocking
from ..analysis.surrogate import (
    SurrogateWorkload,
    evaluate_layout,
    server_stream_slots,
)
from ..cluster_sim import DISPATCHERS

__all__ = [
    "SurrogateAuditCase",
    "SurrogateAuditResult",
    "SurrogateAuditReport",
    "sample_audit_cases",
    "bracket_bounds",
    "audit_case",
    "audit_surrogate",
    "main",
]

#: Absolute rejection-rate tolerance of the audit contract (DESIGN.md §10).
DEFAULT_TOLERANCE = 0.03

#: The CI-pinned sample: ``sample_audit_cases(N, seed=PINNED_SEED)``.
PINNED_SEED = 20020818

#: Slack for the bracketing inequalities — the bounds are computed through
#: different floating-point paths than the surrogate, and for ``static_rr``
#: the partitioned bound *is* the surrogate up to round-off.
_BRACKET_EPS = 1e-9


@dataclass(frozen=True)
class SurrogateAuditCase:
    """One sampled configuration: a concrete cluster, layout and workload."""

    name: str
    num_videos: int
    num_servers: int
    theta: float
    bandwidth_mbps: float
    replication_degree: float
    load_factor: float
    dispatcher: str
    video_duration_min: float
    horizon_min: float
    num_runs: int
    trace_seed: int
    #: Strategy names resolved through the registries in
    #: :data:`repro.pipeline.REPLICATORS` / ``PLACERS``; the defaults keep
    #: the CI-pinned sample identical to the historical hardcoded pair.
    replicator: str = "zipf"
    placer: str = "slf"

    @property
    def slots_per_server(self) -> int:
        return int(self.bandwidth_mbps / 4.0)

    @property
    def arrival_rate_per_min(self) -> float:
        total_slots = self.num_servers * self.slots_per_server
        return self.load_factor * total_slots / self.video_duration_min

    def build(self):
        """``(cluster, videos, layout, popularity)`` for this case."""
        from .. import ClusterSpec, VideoCollection, ZipfPopularity
        from ..pipeline import PLACERS, REPLICATORS

        popularity = ZipfPopularity(self.num_videos, self.theta)
        videos = VideoCollection.homogeneous(
            self.num_videos, duration_min=self.video_duration_min
        )
        cluster = ClusterSpec.homogeneous(
            self.num_servers,
            storage_gb=1.0e6,  # bandwidth-constrained, like the paper
            bandwidth_mbps=self.bandwidth_mbps,
        )
        budget = min(
            int(round(self.replication_degree * self.num_videos)),
            self.num_videos * self.num_servers,
        )
        capacity = math.ceil(budget / self.num_servers) + 1
        replication = REPLICATORS[self.replicator]().replicate(
            popularity.probabilities, self.num_servers, budget
        )
        layout = PLACERS[self.placer]().place(replication, capacity)
        return cluster, videos, layout, popularity


@dataclass(frozen=True)
class SurrogateAuditResult:
    """Surrogate vs DES vs bounds for one audited case."""

    case: SurrogateAuditCase
    surrogate_rejection: float
    des_rejection: float
    pooled_bound: float
    partitioned_bound: float
    converged: bool

    @property
    def error(self) -> float:
        """Signed surrogate error (positive = surrogate over-predicts)."""
        return self.surrogate_rejection - self.des_rejection

    @property
    def bracketed(self) -> bool:
        return (
            self.pooled_bound - _BRACKET_EPS
            <= self.surrogate_rejection
            <= self.partitioned_bound + _BRACKET_EPS
        )

    def within(self, tolerance: float) -> bool:
        return abs(self.error) <= tolerance

    def format(self) -> str:
        return (
            f"{self.case.name:<10} {self.case.dispatcher:<12} "
            f"surrogate {self.surrogate_rejection:.4f}  "
            f"des {self.des_rejection:.4f}  err {self.error:+.4f}  "
            f"bounds [{self.pooled_bound:.4f}, {self.partitioned_bound:.4f}]"
            f"{'' if self.bracketed else '  BRACKET VIOLATION'}"
            f"{'' if self.converged else '  DIVERGED'}"
        )


@dataclass(frozen=True)
class SurrogateAuditReport:
    """Outcome of one :func:`audit_surrogate` pass."""

    tolerance: float
    results: tuple = field(default=())

    @property
    def max_abs_error(self) -> float:
        return max((abs(r.error) for r in self.results), default=0.0)

    @property
    def all_bracketed(self) -> bool:
        return all(r.bracketed for r in self.results)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.results)

    @property
    def ok(self) -> bool:
        return (
            self.all_bracketed
            and self.all_converged
            and all(r.within(self.tolerance) for r in self.results)
        )

    def format(self) -> str:
        lines = [r.format() for r in self.results]
        lines.append(
            f"{len(self.results)} configs: max |error| "
            f"{self.max_abs_error:.4f} (tolerance {self.tolerance:g}), "
            f"bracketed {'yes' if self.all_bracketed else 'NO'}, "
            f"converged {'yes' if self.all_converged else 'NO'} -> "
            f"{'OK' if self.ok else 'FAIL'}"
        )
        return "\n".join(lines)


def sample_audit_cases(
    num_cases: int, seed: int = PINNED_SEED, *, num_runs: int = 3
) -> list[SurrogateAuditCase]:
    """Draw a deterministic sample of audit configurations.

    The ranges keep every case in the surrogate's stated domain: moderate
    clusters, tens of stream slots per server, offered load around the
    knee (0.8x-1.15x capacity) where rejection is neither zero nor
    saturated, and steady-state horizons (>= 25 holding times).
    """
    rng = np.random.default_rng(seed)
    dispatchers = tuple(DISPATCHERS)
    cases = []
    for index in range(num_cases):
        dispatcher = dispatchers[index % len(dispatchers)]
        duration = float(rng.uniform(8.0, 15.0))
        cases.append(
            SurrogateAuditCase(
                name=f"audit_{index:03d}",
                num_videos=int(rng.integers(20, 61)),
                num_servers=int(rng.integers(3, 7)),
                theta=float(rng.uniform(0.3, 1.0)),
                bandwidth_mbps=float(rng.uniform(100.0, 300.0)),
                replication_degree=float(rng.uniform(1.1, 1.6)),
                load_factor=float(rng.uniform(0.8, 1.15)),
                dispatcher=dispatcher,
                video_duration_min=duration,
                horizon_min=max(400.0, 30.0 * duration),
                num_runs=num_runs,
                trace_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return cases


def bracket_bounds(
    case: SurrogateAuditCase, cluster, layout, popularity
) -> "tuple[float, float]":
    """``(pooled, partitioned)`` Erlang bracket for one audited case.

    Pooled below: no dispatch can beat one ``M/G/C/C`` link with all
    slots.  Partitioned above: the same routing with overflow disabled.
    For static_rr / least_loaded that is the even ``w_i = p_i / r_i``
    split; for first_fit the whole video rides its first holder (the
    hunt's primary) — an even split is *not* an upper bound there,
    because first-fit genuinely concentrates load on low-id servers.
    """
    slots = server_stream_slots(cluster, layout)
    pooled = cluster_blocking_bound(
        case.arrival_rate_per_min,
        case.video_duration_min,
        int(slots.sum()),
    )
    presence = layout.rate_matrix > 0.0
    probs = popularity.probabilities
    if case.dispatcher == "first_fit":
        first_holder = presence.argmax(axis=1)
        shares = np.zeros(presence.shape[1])
        np.add.at(shares, first_holder[presence.any(axis=1)],
                  probs[presence.any(axis=1)])
    else:
        replicas = np.maximum(presence.sum(axis=1), 1)
        shares = presence.T @ (probs / replicas)
    partitioned = partitioned_blocking(
        case.arrival_rate_per_min,
        case.video_duration_min,
        int(slots[0]),
        shares,
    )
    return pooled, partitioned


def audit_case(case: SurrogateAuditCase) -> SurrogateAuditResult:
    """Surrogate prediction, DES measurement and Erlang bounds for a case."""
    from ..cluster_sim import VoDClusterSimulator
    from ..cluster_sim.dispatch import make_dispatcher_factory
    from ..workload import WorkloadGenerator

    cluster, videos, layout, popularity = case.build()
    workload = SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=case.arrival_rate_per_min,
        holding_time_min=case.video_duration_min,
    )
    prediction = evaluate_layout(
        layout, workload, cluster, dispatcher=case.dispatcher
    )
    pooled, partitioned = bracket_bounds(case, cluster, layout, popularity)

    simulator = VoDClusterSimulator(
        cluster,
        videos,
        layout,
        dispatcher_factory=make_dispatcher_factory(case.dispatcher),
    )
    generator = WorkloadGenerator.poisson_zipf(
        popularity, case.arrival_rate_per_min
    )
    seeds = np.random.SeedSequence(case.trace_seed).spawn(case.num_runs)
    rates = []
    for child in seeds:
        trace = generator.generate(
            case.horizon_min, np.random.default_rng(child)
        )
        result = simulator.run(trace, horizon_min=case.horizon_min)
        rates.append(result.rejection_rate)

    return SurrogateAuditResult(
        case=case,
        surrogate_rejection=prediction.rejection_rate,
        des_rejection=float(np.mean(rates)),
        pooled_bound=pooled,
        partitioned_bound=partitioned,
        converged=prediction.diagnostics.converged,
    )


def audit_surrogate(
    cases: "list[SurrogateAuditCase] | None" = None,
    *,
    num_cases: int = 6,
    seed: int = PINNED_SEED,
    tolerance: float = DEFAULT_TOLERANCE,
    num_runs: int = 3,
) -> SurrogateAuditReport:
    """Run the full audit; ``cases=None`` draws the seeded sample."""
    if cases is None:
        cases = sample_audit_cases(num_cases, seed, num_runs=num_runs)
    return SurrogateAuditReport(
        tolerance=tolerance,
        results=tuple(audit_case(case) for case in cases),
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.surrogate_audit",
        description="cross-validate the Erlang surrogate against the DES",
    )
    parser.add_argument(
        "--configs", type=int, default=6, help="sampled configurations"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=PINNED_SEED,
        help="sample seed (default: the CI-pinned sample)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="absolute rejection-rate tolerance",
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="DES runs averaged per config"
    )
    args = parser.parse_args(argv)
    report = audit_surrogate(
        num_cases=args.configs,
        seed=args.seed,
        tolerance=args.tolerance,
        num_runs=args.runs,
    )
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
