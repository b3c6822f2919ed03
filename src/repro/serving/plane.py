"""The serving control plane: a long-lived epoch loop on persistent state.

Each epoch the plane

1. evolves the *true* popularity by the configured drift process,
2. generates the epoch's NHPP trace (diurnal trapezoid + flash crowds),
3. runs the DES on the persistent cluster state (current layout, current
   server count, per-epoch chaos schedule),
4. folds the observed per-video counts into the EWMA tracker, scores the
   drift of the estimate against the last-planned popularity, and — when
   the re-planning policy fires — re-solves replication and migrates the
   layout under the move budget (optionally surrogate-screened and/or
   warm-start-SA polished),
5. lets the elasticity policy add or drain a server on sustained SLO
   breach/calm, re-homing replicas as needed,

and records an :class:`EpochSnapshot`.  With ``replan="never"`` and
``elastic=False`` the loop degenerates to the batch path: every epoch
simulates the bootstrap layout on the epoch trace, bit-identical
(:meth:`SimulationResult.same_outcome`) to :func:`chain_batch_epochs` —
the property the serving test suite and the ``--serving`` fuzz oracle
gate on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ..cluster_sim import (
    engine_run_kwargs,
    make_dispatcher_factory,
    make_simulator,
)
from ..cluster_sim.failures import FailureSchedule
from ..cluster_sim.metrics import SimulationResult
from ..cluster_sim.sharding import run_sharded
from ..dynamic.drift import DriftDetector
from ..dynamic.migration import plan_migration
from ..dynamic.tracker import EwmaPopularityTracker
from ..model.cluster import ClusterSpec
from ..model.layout import ReplicaLayout
from ..placement import smallest_load_first_placement
from ..replication.zipf_interval import zipf_interval_replication
from .config import ServingConfig
from .elasticity import ElasticityController, ElasticityPolicy
from .workload import (
    epoch_offered_rates,
    epoch_rng,
    epoch_traces,
    evolve_popularity,
)

__all__ = [
    "EpochSnapshot",
    "ServingResult",
    "ServingControlPlane",
    "bootstrap_layout",
    "replica_budget_for",
    "chain_batch_epochs",
]

#: Spawn-key tag of the warm-start SA polish stream.
ANNEAL_TAG = 0xA22A


def replica_budget_for(config: ServingConfig, num_servers: int) -> int:
    """Cluster-wide replica budget at a (possibly elastic) server count.

    Scales the design point's budget linearly with the cluster size,
    clamped to storage capacity and to one replica per video.
    """
    setup = config.setup
    capacity = setup.capacity_replicas(config.replication_degree)
    base = setup.replica_budget(config.replication_degree)
    scaled = int(round(base * num_servers / setup.num_servers))
    return max(setup.num_videos, min(num_servers * capacity, scaled))


def bootstrap_layout(
    config: ServingConfig,
    num_servers: int | None = None,
    probabilities: np.ndarray | None = None,
) -> ReplicaLayout:
    """The initial deployment: Zipf-interval replication + SLF placement
    (the batch pipeline's default design) from *probabilities*, the Zipf
    prior by default."""
    setup = config.setup
    n = setup.num_servers if num_servers is None else int(num_servers)
    capacity = setup.capacity_replicas(config.replication_degree)
    if probabilities is None:
        probabilities = setup.popularity(config.theta).probabilities
    replication = zipf_interval_replication(
        probabilities, n, replica_budget_for(config, n)
    )
    return smallest_load_first_placement(
        replication, capacity, bit_rate_mbps=setup.bit_rate_mbps
    )


@dataclass(frozen=True)
class EpochSnapshot:
    """One epoch's observable outcome (the serving timeline row)."""

    epoch: int
    num_servers: int
    offered_rate_per_min: float
    num_generated: int
    num_requests: int
    num_admitted: int
    num_rejected: int
    num_truncated: int
    rejection_rate: float
    drift_score: float
    cold: bool
    replanned: bool
    migration_executed: bool
    replicas_copied: int
    proposed_copies: int
    elasticity_action: int
    elasticity_copies: int
    slo_breached: bool
    result: SimulationResult = field(repr=False)

    def summary(self) -> dict:
        """Deterministic JSON-ready summary (feeds the run digest)."""
        return {
            "epoch": self.epoch,
            "num_servers": self.num_servers,
            "generated": self.num_generated,
            "requests": self.num_requests,
            "admitted": self.num_admitted,
            "rejected": self.num_rejected,
            "truncated": self.num_truncated,
            "rejection_rate": repr(float(self.rejection_rate)),
            "drift_score": repr(float(self.drift_score)),
            "cold": self.cold,
            "replanned": self.replanned,
            "migration_executed": self.migration_executed,
            "replicas_copied": self.replicas_copied,
            "proposed_copies": self.proposed_copies,
            "elasticity_action": self.elasticity_action,
            "elasticity_copies": self.elasticity_copies,
            "slo_breached": self.slo_breached,
            "avg_load": [
                repr(float(x)) for x in self.result.server_time_avg_load_mbps
            ],
        }


@dataclass(frozen=True)
class ServingResult:
    """Outcome of one control-plane run."""

    config: ServingConfig = field(repr=False)
    snapshots: tuple[EpochSnapshot, ...] = field(repr=False)
    final_layout: ReplicaLayout = field(repr=False)
    final_num_servers: int = 0

    # ------------------------------------------------------------------
    @property
    def epochs(self) -> int:
        return len(self.snapshots)

    @property
    def total_generated(self) -> int:
        return sum(s.num_generated for s in self.snapshots)

    @property
    def total_admitted(self) -> int:
        return sum(s.num_admitted for s in self.snapshots)

    @property
    def total_rejected(self) -> int:
        return sum(s.num_rejected for s in self.snapshots)

    @property
    def mean_rejection_rate(self) -> float:
        """Long-horizon rejection rate: rejected over simulated requests."""
        requests = sum(s.num_requests for s in self.snapshots)
        return self.total_rejected / requests if requests else 0.0

    @property
    def total_replicas_copied(self) -> int:
        return sum(
            s.replicas_copied + s.elasticity_copies for s in self.snapshots
        )

    @property
    def replans(self) -> int:
        return sum(1 for s in self.snapshots if s.migration_executed)

    @property
    def servers_added(self) -> int:
        return sum(1 for s in self.snapshots if s.elasticity_action > 0)

    @property
    def servers_drained(self) -> int:
        return sum(1 for s in self.snapshots if s.elasticity_action < 0)

    @property
    def slo_breaches(self) -> int:
        return sum(1 for s in self.snapshots if s.slo_breached)

    # ------------------------------------------------------------------
    def digest(self) -> str:
        """SHA-256 over the per-epoch summaries (the replay pin)."""
        h = hashlib.sha256()
        for snapshot in self.snapshots:
            h.update(json.dumps(snapshot.summary(), sort_keys=True).encode())
        return h.hexdigest()

    def format(self) -> str:
        """The epoch timeline as an aligned ASCII table."""
        from ..analysis.tables import format_table

        rows = []
        for s in self.snapshots:
            flags = "".join(
                (
                    "R" if s.replanned else "-",
                    "M" if s.migration_executed else "-",
                    "+" if s.elasticity_action > 0 else (
                        "D" if s.elasticity_action < 0 else "-"
                    ),
                    "!" if s.slo_breached else "-",
                )
            )
            rows.append(
                [
                    s.epoch,
                    s.num_servers,
                    f"{s.offered_rate_per_min:.1f}",
                    s.num_requests,
                    f"{s.rejection_rate:.4f}",
                    f"{s.drift_score:.4f}",
                    s.replicas_copied + s.elasticity_copies,
                    flags,
                ]
            )
        table = format_table(
            ["epoch", "N", "rate/min", "reqs", "rej_rate", "drift", "copies",
             "flags"],
            rows,
            title="serving timeline (flags: Replan Migrate +add/Drain !slo)",
        )
        totals = (
            f"totals: {self.epochs} epochs, "
            f"rejection {self.mean_rejection_rate:.4f}, "
            f"{self.replans} replans, "
            f"{self.total_replicas_copied} replicas copied, "
            f"{self.servers_added} adds / {self.servers_drained} drains, "
            f"{self.slo_breaches} SLO breaches, "
            f"final N={self.final_num_servers}"
        )
        return table + "\n" + totals

    def __str__(self) -> str:
        return self.format()


class ServingControlPlane:
    """The continuously running controller (see module docstring)."""

    def __init__(
        self, config: ServingConfig, *, observer=None, runner=None
    ) -> None:
        self._config = config
        self._observer = observer
        #: Optional :class:`repro.runtime.ParallelRunner` fanning the
        #: per-epoch shard simulations out over worker processes; the
        #: active (serial by default) runner is used otherwise.
        self._runner = runner
        setup = config.setup
        self._setup = setup
        self._capacity = setup.capacity_replicas(config.replication_degree)
        self._videos = setup.videos()
        self._epoch_min = config.resolved_epoch_minutes
        self._seed = config.resolved_seed
        self._detector = DriftDetector(config.drift_threshold)
        #: ``(layout, num_servers, simulator)`` of the last epoch: the
        #: simulator is rebuilt only when the deployed layout object or
        #: the server count changes (layouts are immutable).
        self._epoch_sim: tuple | None = None

    # ------------------------------------------------------------------
    def _cluster_for(self, num_servers: int) -> ClusterSpec:
        setup = self._setup
        return ClusterSpec.homogeneous(
            num_servers,
            storage_gb=self._capacity * setup.replica_storage_gb,
            bandwidth_mbps=setup.server_bandwidth_mbps,
        )

    def _replicate(self, probabilities: np.ndarray, num_servers: int):
        return zipf_interval_replication(
            probabilities,
            num_servers,
            replica_budget_for(self._config, num_servers),
        )

    def _epoch_failures(
        self, epoch: int, num_servers: int, shard: int = 0
    ) -> FailureSchedule | None:
        spec = self._config.failures
        if spec is None:
            return None
        schedule = spec.build(
            num_servers,
            self._epoch_min,
            seed=self._seed,
            run_index=epoch,
            shard=shard,
        )
        # An elastic drain can shrink the cluster below a pinned server
        # index (e.g. a `single:server=7` spec); those events target a
        # server that no longer exists and are dropped.
        events = [e for e in schedule if e.server < num_servers]
        if len(events) != len(schedule):
            schedule = FailureSchedule(events)
        return schedule

    def _epoch_simulator(self, layout: ReplicaLayout, num_servers: int):
        cached = self._epoch_sim
        if cached is None or cached[0] is not layout or cached[1] != num_servers:
            config = self._config
            simulator = make_simulator(
                config.engine,
                self._cluster_for(num_servers),
                self._videos,
                layout,
                dispatcher_factory=make_dispatcher_factory(config.dispatcher),
                backbone_mbps=config.backbone_mbps,
            )
            cached = self._epoch_sim = (layout, num_servers, simulator)
        return cached[2]

    def _simulate(
        self, epoch: int, layout: ReplicaLayout, num_servers: int,
        traces,
    ) -> SimulationResult:
        """Simulate one epoch: one trace per shard, merged to one result.

        Unsharded configs run the single trace directly; ``shards=K``
        fans the K full-rate sub-streams out through
        :func:`repro.cluster_sim.sharding.run_sharded` (each shard its
        own chaos schedule) and merges them into one K-pod result.
        Consecutive epochs on the same layout and server count share one
        simulator.
        """
        config = self._config
        simulator = self._epoch_simulator(layout, num_servers)
        if len(traces) == 1:
            return simulator.run(
                traces[0],
                horizon_min=self._epoch_min,
                failures=self._epoch_failures(epoch, num_servers),
                failover=config.failover,
                rereplication=config.rereplication,
                failover_on_down=config.failover_on_down,
                **engine_run_kwargs(config.engine),
            )
        schedules = None
        if config.failures is not None:
            schedules = [
                self._epoch_failures(epoch, num_servers, shard)
                for shard in range(len(traces))
            ]
        merged, _ = run_sharded(
            simulator,
            traces,
            runner=self._runner,
            failure_schedules=schedules,
            horizon_min=self._epoch_min,
            failover=config.failover,
            rereplication=config.rereplication,
            failover_on_down=config.failover_on_down,
            **engine_run_kwargs(config.engine),
        )
        return merged

    # ------------------------------------------------------------------
    def _screen_keeps_incumbent(
        self,
        incumbent: ReplicaLayout,
        candidate: ReplicaLayout,
        estimate: np.ndarray,
        offered_rate: float,
        num_servers: int,
    ) -> bool:
        """Erlang fixed-point pre-ranking: True when the incumbent is
        predicted no worse than the migrated candidate."""
        from ..analysis.surrogate import SurrogateWorkload, evaluate_layouts

        workload = SurrogateWorkload(
            estimate, offered_rate, self._setup.duration_min
        )
        batch = evaluate_layouts(
            [incumbent, candidate],
            workload,
            self._cluster_for(num_servers),
            dispatcher=self._config.dispatcher,
        )
        return bool(batch.rejection_rates[0] <= batch.rejection_rates[1])

    def _anneal_polish(
        self,
        epoch: int,
        deployed: ReplicaLayout,
        migrated: ReplicaLayout,
        estimate: np.ndarray,
        offered_rate: float,
        num_servers: int,
    ) -> tuple[ReplicaLayout, int] | None:
        """Warm-start SA from the migrated layout; returns the annealed
        layout and its copy count vs the deployed layout, or ``None``
        when a video of the migrated layout has no replica (the Eq. 1
        cost is then undefined).  The engine's incumbent guarantee means
        the annealed layout is never worse than the migrated one under
        the Eq. 1 objective.  A migrated layout that breaks a server's
        storage or bandwidth constraint is still annealed: every accepted
        move lands on a state that satisfies all servers, and when none
        is accepted the migrated layout itself comes back."""
        from ..annealing import ScalableBitRateProblem, SimulatedAnnealer
        from ..model.problem import ReplicationProblem
        from ..popularity import PopularityModel

        config = self._config
        setup = self._setup
        # The Eq. 1 problem wants videos in rank order; anneal in rank
        # space and permute the best state back to catalogue order.
        order = np.argsort(-estimate, kind="stable")
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        problem = ReplicationProblem(
            cluster=self._cluster_for(num_servers),
            videos=self._videos,
            popularity=PopularityModel.from_probabilities(estimate[order]),
            arrival_rate_per_min=offered_rate,
            peak_minutes=self._epoch_min,
            # The SA adapter needs >= 2 rates.  Annealing with the serving
            # rate as the *floor* means projecting the best state back to
            # the fixed rate only ever lowers rates, so per-server storage
            # and bandwidth feasibility survive the projection.
            allowed_bit_rates_mbps=(
                setup.bit_rate_mbps, setup.bit_rate_mbps * 1.5,
            ),
        )
        sa_problem = ScalableBitRateProblem(problem)
        annealer = SimulatedAnnealer(
            steps_per_level=config.anneal_steps_per_level,
            max_levels=config.anneal_max_levels,
            patience_levels=0,
        )
        state = np.array(migrated.rate_matrix[order], dtype=np.float64)
        try:
            result = annealer.run(
                sa_problem,
                epoch_rng(self._seed, epoch, ANNEAL_TAG),
                initial_state=state,
                record_history=False,
            )
        except ValueError:
            # The annealer raises only when a video has lost its last
            # replica (Eq. 7); skip the polish this epoch.
            return None
        presence = result.best_state[inverse] > 0
        layout = ReplicaLayout(
            rate_matrix=np.where(presence, setup.bit_rate_mbps, 0.0)
        )
        copies = int(np.sum(layout.presence & ~deployed.presence))
        return layout, copies

    def _rebalance(
        self, layout: ReplicaLayout, probabilities: np.ndarray,
        num_servers: int,
    ) -> tuple[ReplicaLayout, int]:
        """Mandatory migration to the target counts at a new cluster size
        (exempt from the move budget: coverage must be restored)."""
        target = self._replicate(probabilities, num_servers)
        plan = plan_migration(
            layout, target, self._capacity,
            bit_rate_mbps=self._setup.bit_rate_mbps,
        )
        return plan.new_layout, plan.replicas_copied

    # ------------------------------------------------------------------
    def run(self) -> ServingResult:
        config = self._config
        setup = self._setup
        num_servers = setup.num_servers
        layout = bootstrap_layout(config)
        planning_probs = setup.popularity(config.theta).probabilities.copy()
        true_probs = planning_probs.copy()
        tracker = EwmaPopularityTracker(
            setup.num_videos,
            alpha=config.tracker_alpha,
            smoothing=config.tracker_smoothing,
        )
        elasticity = None
        if config.elastic:
            elasticity = ElasticityController(
                ElasticityPolicy(
                    slo_rejection_rate=config.slo_rejection_rate,
                    breach_epochs=config.breach_epochs,
                    relax_epochs=config.relax_epochs,
                    cooldown_epochs=config.cooldown_epochs,
                    min_servers=config.min_servers,
                    max_servers=config.max_servers,
                )
            )

        offered_rates = epoch_offered_rates(config)
        snapshots: list[EpochSnapshot] = []
        for epoch in range(config.epochs):
            true_probs = evolve_popularity(config, epoch, true_probs)
            traces = epoch_traces(config, epoch, true_probs)
            offered = offered_rates[epoch]
            result = self._simulate(epoch, layout, num_servers, traces)

            counts = result.per_video_requests
            cold = int(np.sum(counts)) == 0
            drift_score = 0.0
            replanned = False
            migration_executed = False
            copies = 0
            proposed = 0
            if not cold:
                # A cold epoch (zero observed requests) is a strict
                # no-op: no tracker update, no re-plan.
                estimate = tracker.observe(counts)
                drift_score = self._detector.score(planning_probs, estimate)
                want = config.replan == "always" or (
                    config.replan == "drift"
                    and drift_score > self._detector.threshold
                )
                if want:
                    replanned = True
                    target = self._replicate(estimate, num_servers)
                    plan = plan_migration(
                        layout, target, self._capacity,
                        bit_rate_mbps=setup.bit_rate_mbps,
                    )
                    proposed = plan.replicas_copied
                    over_budget = (
                        config.move_budget is not None
                        and plan.replicas_copied > config.move_budget
                    )
                    if not over_budget:
                        candidate = plan.new_layout
                        candidate_copies = plan.replicas_copied
                        if config.anneal_polish:
                            polished = self._anneal_polish(
                                epoch, layout, candidate, estimate,
                                offered, num_servers,
                            )
                            if polished is not None and (
                                config.move_budget is None
                                or polished[1] <= config.move_budget
                            ):
                                candidate, candidate_copies = polished
                        if config.screen and self._screen_keeps_incumbent(
                            layout, candidate, estimate, offered, num_servers
                        ):
                            # Surrogate predicts the incumbent is no
                            # worse: skip the migration, keep the plan's
                            # cost on record as proposed.
                            pass
                        else:
                            layout = candidate
                            migration_executed = True
                            copies = candidate_copies
                            planning_probs = estimate

            action = 0
            elasticity_copies = 0
            if elasticity is not None:
                action = elasticity.decide(
                    epoch, result.rejection_rate, num_servers
                )
                if action > 0:
                    num_servers += 1
                    matrix = np.hstack(
                        [layout.rate_matrix,
                         np.zeros((setup.num_videos, 1))]
                    )
                    layout, elasticity_copies = self._rebalance(
                        ReplicaLayout(rate_matrix=matrix),
                        planning_probs, num_servers,
                    )
                elif action < 0:
                    num_servers -= 1
                    matrix = layout.rate_matrix[:, :num_servers]
                    layout, elasticity_copies = self._rebalance(
                        ReplicaLayout(rate_matrix=matrix),
                        planning_probs, num_servers,
                    )

            snapshot = EpochSnapshot(
                epoch=epoch,
                # The merged result concatenates per-shard server arrays;
                # the snapshot reports the logical (per-pod) cluster size.
                num_servers=(
                    result.server_time_avg_load_mbps.shape[0] // config.shards
                ),
                offered_rate_per_min=offered,
                num_generated=sum(t.num_requests for t in traces),
                num_requests=result.num_requests,
                num_admitted=result.num_served,
                num_rejected=result.num_rejected,
                num_truncated=result.num_truncated,
                rejection_rate=result.rejection_rate,
                drift_score=drift_score,
                cold=cold,
                replanned=replanned,
                migration_executed=migration_executed,
                replicas_copied=copies,
                proposed_copies=proposed,
                elasticity_action=action,
                elasticity_copies=elasticity_copies,
                slo_breached=result.rejection_rate > config.slo_rejection_rate,
                result=result,
            )
            snapshots.append(snapshot)
            if self._observer is not None:
                self._observer.serving_epoch(epoch=epoch, snapshot=snapshot)

        return ServingResult(
            config=config,
            snapshots=tuple(snapshots),
            final_layout=layout,
            final_num_servers=num_servers,
        )


def chain_batch_epochs(
    config: ServingConfig, *, resolve: bool = False
) -> list[SimulationResult]:
    """The manually chained batch path: the bootstrap layout simulated on
    every epoch trace, with no tracker, re-planning or elasticity.

    This is the serving loop's differential oracle — with
    ``replan="never"`` and ``elastic=False`` the control plane must
    produce the same per-epoch :class:`SimulationResult`
    (:meth:`~SimulationResult.same_outcome`) as this chain.

    ``resolve=True`` instead re-solves each epoch's layout on that
    epoch's *true* popularity before simulating it: the clairvoyant
    re-planner E11 uses as its upper bound.
    """
    plane = ServingControlPlane(config)
    layout = bootstrap_layout(config)
    num_servers = config.setup.num_servers
    true_probs = config.setup.popularity(config.theta).probabilities.copy()
    results: list[SimulationResult] = []
    for epoch in range(config.epochs):
        true_probs = evolve_popularity(config, epoch, true_probs)
        if resolve:
            layout = bootstrap_layout(config, num_servers, true_probs)
        traces = epoch_traces(config, epoch, true_probs)
        results.append(plane._simulate(epoch, layout, num_servers, traces))
    return results
