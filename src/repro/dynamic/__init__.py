"""Dynamic (online) replication — extension of the paper's Sec. 4.1.

The paper notes "the replication algorithms can be applied for dynamic
replication during run-time" (that is why the Zipf-interval algorithm's
lower time complexity matters) but evaluates only the static, a-priori
setting.  The run-time loop itself is the serving control plane
(:class:`repro.serving.ServingControlPlane`); this package holds the
building blocks it re-plans with:

* :mod:`repro.dynamic.drift` — popularity-drift models (rank churn, new
  releases, multiplicative noise) driving non-stationary workloads, and
  the drift detector that gates re-planning.
* :mod:`repro.dynamic.tracker` — online popularity estimation (EWMA over
  per-epoch request counts).
* :mod:`repro.dynamic.migration` — re-planning that minimizes replica
  movement between consecutive layouts and accounts migration bytes.
"""

from .drift import (
    DriftDetector,
    LognormalDrift,
    NoDrift,
    PopularityDrift,
    RankSwapDrift,
    ReleaseChurnDrift,
)
from .migration import MigrationPlan, plan_migration
from .tracker import EwmaPopularityTracker

__all__ = [
    "DriftDetector",
    "LognormalDrift",
    "NoDrift",
    "PopularityDrift",
    "RankSwapDrift",
    "ReleaseChurnDrift",
    "MigrationPlan",
    "plan_migration",
    "EwmaPopularityTracker",
]
