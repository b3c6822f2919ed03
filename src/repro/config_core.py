"""The shared simulation-facing configuration core.

:class:`SimulationConfig` holds every knob that means the same thing to
the batch pipeline (:class:`repro.pipeline.PipelineConfig`) and the
online serving plane (:class:`repro.serving.ServingConfig`): the design
point, the run-time dispatch policy, the lockstep *engine*, the
redirection backbone, the chaos stack and the shard count.  Both facade
configs inherit from it, so the two CLI surfaces (``python -m repro
pipeline`` / ``serve``) expose one vocabulary and validate it in one
place: their flags store under these field names and take no default of
their own.

The core is ``kw_only``: subclasses keep their own field order and every
call site constructs configs by keyword (the facades have never accepted
positional design points).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ._validation import check_finite_non_negative, check_int_in_range
from .cluster_sim import DEFAULT_ENGINE, make_dispatcher_factory, validate_engine
from .experiments.config import PaperSetup

__all__ = ["SimulationConfig", "core_field_names"]


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """Knobs shared by every simulation-running facade.

    Attributes
    ----------
    theta:
        Zipf skew of the popularity distribution.
    replication_degree:
        Cluster-wide replicas per video (1.0 = no replication).
    dispatcher:
        Run-time dispatcher, a name in
        :data:`repro.cluster_sim.DISPATCHERS`.
    engine:
        Lockstep simulation engine (see
        :data:`repro.cluster_sim.ENGINES`): ``vector`` (numpy event-batch
        core, the default; it hands configurations it cannot batch to
        ``optimized``), ``optimized`` (tuple-heap event loop),
        ``reference`` (readable oracle loop) or ``audited`` (optimized +
        in-situ invariant auditors).  All engines are
        ``same_outcome``-identical.
    backbone_mbps:
        Backbone capacity for cross-server redirection (0 disables).
    failures:
        Optional chaos recipe (:class:`repro.cluster_sim.FailureSpec` or
        a ``"kind:key=value,..."`` spec string); ``None`` disables chaos.
    failover:
        Retry/backoff policy for requests hit by a failure
        (:class:`repro.cluster_sim.FailoverPolicy`); ``None`` rejects
        them outright, matching the paper's static model.
    rereplication:
        Repair-time re-replication policy
        (:class:`repro.cluster_sim.RereplicationPolicy`); ``None`` keeps
        replicas lost at a crash lost for the rest of the run.
    failover_on_down:
        Immediate same-instant failover to surviving replica holders
        when the dispatched server is down.
    shards:
        Deterministic arrival-stream shards per simulated run, merged
        back into one :class:`~repro.cluster_sim.SimulationResult`
        (:mod:`repro.cluster_sim.sharding`).  Weak scaling: each shard
        simulates the full system against its own full-rate sub-stream;
        ``shards=1`` is bit-identical to the unsharded path.
    setup:
        The :class:`PaperSetup` to derive cluster/videos/seeds from.
    """

    theta: float = 0.75
    replication_degree: float = 1.2
    dispatcher: str = "static_rr"
    engine: str = DEFAULT_ENGINE
    backbone_mbps: float = 0.0
    failures: object = None
    failover: object = None
    rereplication: object = None
    failover_on_down: bool = False
    shards: int = 1
    setup: PaperSetup = field(default_factory=PaperSetup)

    def __post_init__(self) -> None:
        if isinstance(self.failures, str):
            from .cluster_sim import FailureSpec

            object.__setattr__(
                self, "failures", FailureSpec.parse(self.failures)
            )
        validate_engine(self.engine)
        make_dispatcher_factory(self.dispatcher)  # raises on unknown name
        check_finite_non_negative("theta", self.theta)
        # The same [1, N] check (and message) PaperSetup.cluster applies.
        self.setup.replica_budget(self.replication_degree)
        check_finite_non_negative("backbone_mbps", self.backbone_mbps)
        check_int_in_range("shards", self.shards, 1)


def core_field_names() -> tuple[str, ...]:
    """Names of the shared-core fields (adapter helpers iterate these)."""
    return tuple(f.name for f in fields(SimulationConfig))
