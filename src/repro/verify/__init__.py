"""In-situ invariant auditing and deterministic differential fuzzing.

This package is the correctness backstop for the optimized hot paths:

* :mod:`repro.verify.auditors` — pluggable :class:`InvariantAuditor`
  checkers (bandwidth caps, stream conservation, replica distinctness,
  event-time monotonicity, objective accounting) hooked into
  :meth:`repro.cluster_sim.simulator.VoDClusterSimulator.run` via its
  ``auditors`` argument;
* :mod:`repro.verify.audit` — the post-run audit of the simulator's run
  record and the :class:`AuditReport` it produces;
* :mod:`repro.verify.fuzz` — the deterministic scenario fuzzer
  (``python -m repro.verify.fuzz --cases N --seed S``) running
  fast-vs-reference DES and incremental-vs-full annealing differentially;
* :mod:`repro.verify.shard_audit` — the shard-merge auditor, comparing a
  K-shard :func:`~repro.cluster_sim.sharding.merge_results` merge against
  one genuine unsharded block simulation field by field;
* :mod:`repro.verify.surrogate_audit` — the Erlang-surrogate auditor
  (``python -m repro.verify.surrogate_audit``), cross-validating
  :mod:`repro.analysis.surrogate` rejection predictions against the real
  DES on sampled steady-state configurations and asserting the
  pooled/partitioned bracket;
* :mod:`repro.verify.scenarios` / :mod:`repro.verify.shrink` /
  :mod:`repro.verify.corpus` — case generation, greedy minimization of
  failing cases, and the JSON regression corpus under ``tests/corpus/``.
"""

from .audit import AuditReport, run_audited
from .auditors import (
    BandwidthCapAuditor,
    EventMonotonicityAuditor,
    FailureAvailabilityAuditor,
    InvariantAuditor,
    InvariantViolation,
    ObjectiveAccountingAuditor,
    ReplicaDistinctnessAuditor,
    StreamConservationAuditor,
    Violation,
    failure_auditors,
    standard_auditors,
)
from .corpus import load_case, load_corpus, save_case
from .scenarios import FuzzCase, build_des, build_sa, draw_case
from .shard_audit import ShardMergeReport, audit_shard_merge, compare_merged
from .shrink import shrink_case

#: Names served lazily (PEP 562) from submodules with a ``__main__``
#: entry point, so ``python -m repro.verify.<mod>`` does not import the
#: module twice (runpy's sys.modules warning).
_LAZY_EXPORTS = {
    "CaseOutcome": ".fuzz",
    "FuzzReport": ".fuzz",
    "fuzz": ".fuzz",
    "replay": ".fuzz",
    "run_case": ".fuzz",
    "SurrogateAuditCase": ".surrogate_audit",
    "SurrogateAuditReport": ".surrogate_audit",
    "SurrogateAuditResult": ".surrogate_audit",
    "audit_case": ".surrogate_audit",
    "audit_surrogate": ".surrogate_audit",
    "bracket_bounds": ".surrogate_audit",
    "sample_audit_cases": ".surrogate_audit",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        # import_module, not ``from . import fuzz``: the latter probes the
        # package with hasattr first, which re-enters this __getattr__ for
        # the lazy name "fuzz" and recurses without bound.
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AuditReport",
    "run_audited",
    "BandwidthCapAuditor",
    "EventMonotonicityAuditor",
    "FailureAvailabilityAuditor",
    "InvariantAuditor",
    "InvariantViolation",
    "ObjectiveAccountingAuditor",
    "ReplicaDistinctnessAuditor",
    "StreamConservationAuditor",
    "Violation",
    "failure_auditors",
    "standard_auditors",
    "load_case",
    "load_corpus",
    "save_case",
    "CaseOutcome",
    "FuzzReport",
    "fuzz",
    "replay",
    "run_case",
    "FuzzCase",
    "build_des",
    "build_sa",
    "draw_case",
    "ShardMergeReport",
    "audit_shard_merge",
    "compare_merged",
    "shrink_case",
    "SurrogateAuditCase",
    "SurrogateAuditReport",
    "SurrogateAuditResult",
    "audit_case",
    "audit_surrogate",
    "bracket_bounds",
    "sample_audit_cases",
]
