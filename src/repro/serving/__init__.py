"""Online serving: the long-lived control plane over the batch machinery.

The paper's own argument for the O(M log M) Zipf-interval algorithm
(Sec. 4.1.2) is *run-time* re-optimization as popularity drifts; this
package closes the loop the batch pipeline leaves open:

* :mod:`repro.serving.config` — :class:`ServingConfig`, the one value
  object describing a serving run (arrival profile, drift, re-planning
  policy, SLO elasticity, chaos passthrough).
* :mod:`repro.serving.workload` — deterministic per-epoch NHPP workload
  slices (diurnal trapezoid + flash crowds) on spawned seed streams.
* :mod:`repro.serving.elasticity` — hysteresis add/drain policy on
  sustained rejection-rate SLO breach.
* :mod:`repro.serving.plane` — :class:`ServingControlPlane`, the epoch
  loop: simulate -> track -> detect drift -> re-solve -> migrate ->
  scale, with :func:`chain_batch_epochs` as its differential oracle.

Run it from the CLI: ``python -m repro serve --epochs 12 --elastic``.
"""

from .config import REPLAN_MODES, ServingConfig, parse_drift
from .elasticity import ElasticityController, ElasticityPolicy
from .plane import (
    EpochSnapshot,
    ServingControlPlane,
    ServingResult,
    bootstrap_layout,
    chain_batch_epochs,
    replica_budget_for,
)
from .workload import (
    epoch_arrivals,
    epoch_offered_rate,
    epoch_offered_rates,
    epoch_rng,
    epoch_trace,
    evolve_popularity,
)

__all__ = [
    "REPLAN_MODES",
    "ServingConfig",
    "parse_drift",
    "ElasticityController",
    "ElasticityPolicy",
    "EpochSnapshot",
    "ServingControlPlane",
    "ServingResult",
    "bootstrap_layout",
    "chain_batch_epochs",
    "replica_budget_for",
    "epoch_arrivals",
    "epoch_offered_rate",
    "epoch_offered_rates",
    "epoch_rng",
    "epoch_trace",
    "evolve_popularity",
]
