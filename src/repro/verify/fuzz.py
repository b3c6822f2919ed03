"""Deterministic differential fuzzer for the simulator and the annealer.

``python -m repro.verify.fuzz --cases 200 --seed 0`` draws scenario
configs from :class:`numpy.random.SeedSequence` spawn keys and runs, per
case:

* **DES cases** — the optimized :class:`VoDClusterSimulator` against the
  clarity-first :class:`ReferenceClusterSimulator` (bit-identical
  ``same_outcome`` required), the audited run (bit-identical *and* zero
  invariant violations required), and a repeat run (purity required);
* **SA cases** — the incremental (delta-cost) annealing context against
  full recomputation: per-move delta exactness, rng parity, bitwise
  commit/rollback state agreement, plus engine-level invariants
  (``best_cost`` is a true recomputation, feasibility of the best state).

The run is bit-reproducible: the same ``--cases/--seed`` produce the same
case stream and the same outcome digest (a SHA-256 over every case's
deterministic result summary).  Failing cases are greedily shrunk
(:mod:`repro.verify.shrink`) and serialized as JSON repro files that the
test suite replays from ``tests/corpus/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audit import run_audited
from .auditors import failure_auditors
from .scenarios import (
    FuzzCase,
    build_des,
    build_sa,
    build_serving,
    draw_case,
    draw_serving_case,
)
from .shrink import shrink_case

__all__ = ["CaseOutcome", "FuzzReport", "run_case", "replay", "fuzz", "main"]

#: Delta-vs-recompute tolerance (matches tests/test_annealing_incremental).
_DELTA_ABS = 1e-9


@dataclass(frozen=True)
class CaseOutcome:
    """Result of one fuzz case: failure messages + deterministic summary."""

    name: str
    failures: tuple[str, ...]
    summary: dict = field(hash=False)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz campaign."""

    cases: int
    seed: int
    digest: str
    failures: tuple[CaseOutcome, ...]
    corpus_paths: tuple[str, ...]
    elapsed_sec: float

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_des(params: dict) -> tuple[list[str], dict]:
    optimized, reference, trace, run_kwargs = build_des(params)
    failures: list[str] = []

    result = optimized.run(trace, **run_kwargs)
    ref_result = reference.run(trace, **run_kwargs)
    if not result.same_outcome(ref_result):
        failures.append(
            "des-equivalence: optimized diverged from reference "
            f"(rejected {result.num_rejected} vs {ref_result.num_rejected}, "
            f"events {result.num_events} vs {ref_result.num_events})"
        )

    # Fourth lockstep engine: the vectorized event-batch core must match
    # bit for bit on every case, fast path engaged or delegated.
    from ..cluster_sim import VectorClusterSimulator

    vector = VectorClusterSimulator(
        optimized._cluster,
        optimized._videos,
        optimized._layout,
        dispatcher_factory=optimized._dispatcher_factory,
        backbone_mbps=optimized._backbone_mbps,
        stream_limits=optimized._stream_limits,
        redirection_pods=optimized._redirection_pods,
    )
    vec_result = vector.run(trace, **run_kwargs)
    if not result.same_outcome(vec_result):
        failures.append(
            "des-vector-equivalence: vector engine diverged from optimized "
            f"(rejected {result.num_rejected} vs {vec_result.num_rejected}, "
            f"events {result.num_events} vs {vec_result.num_events})"
        )

    audited, report = run_audited(
        optimized, trace, auditors=failure_auditors(), **run_kwargs
    )
    if not result.same_outcome(audited):
        failures.append(
            "des-audit-equivalence: audited run diverged from plain run "
            f"(rejected {result.num_rejected} vs {audited.num_rejected})"
        )
    for violation in report.violations:
        failures.append(f"des-audit: {violation}")

    again = optimized.run(trace, **run_kwargs)
    if not result.same_outcome(again):
        failures.append("des-determinism: repeat run changed the outcome")

    summary = {
        "num_requests": result.num_requests,
        "num_rejected": result.num_rejected,
        "num_events": result.num_events,
        "num_truncated": result.num_truncated,
        "num_redirected": result.num_redirected,
        "streams_dropped": result.streams_dropped,
        "num_failures": result.num_failures,
        "num_recoveries": result.num_recoveries,
        "num_retries": result.num_retries,
        "num_failovers": result.num_failovers,
        "num_lost_to_failure": result.num_lost_to_failure,
        "num_rereplicated": result.num_rereplicated,
        "mttr_min": repr(float(result.mean_time_to_recovery_min)),
        "downtime_min": [repr(float(x)) for x in result.server_downtime_min],
        "avg_load": [repr(float(x)) for x in result.server_time_avg_load_mbps],
        "peak_load": [repr(float(x)) for x in result.server_peak_load_mbps],
    }
    return failures, summary


def _run_sa(params: dict) -> tuple[list[str], dict]:
    problem, annealer = build_sa(params)
    failures: list[str] = []

    state = problem.initial_state(
        np.random.default_rng(int(params["init_seed"]))
    )
    context = problem.make_incremental(state)
    full_state = state.copy()
    walk_seed = int(params["walk_seed"])
    checked = 0
    for i in range(int(params["crosscheck_moves"])):
        seed = walk_seed + i
        before = problem.cost(full_state)
        neighbor = problem.propose(full_state, np.random.default_rng(seed))
        delta = context.propose(np.random.default_rng(seed))
        if neighbor is None:
            if delta is not None:
                failures.append(
                    f"sa-parity: move {i} fell through on the full path "
                    "but not the incremental one"
                )
                context.rollback()
            continue
        if delta is None:
            failures.append(
                f"sa-parity: move {i} fell through on the incremental "
                "path but not the full one"
            )
            continue
        expected = problem.cost(neighbor) - before
        if abs(delta - expected) > _DELTA_ABS + 1e-9 * abs(before):
            failures.append(
                f"sa-delta: move {i} delta {delta!r} != recomputed "
                f"{expected!r}"
            )
        checked += 1
        if i % 2 == 0:
            full_state = neighbor
            context.commit()
        else:
            context.rollback()
        if not np.array_equal(context.export_state(), full_state):
            failures.append(
                f"sa-state: incremental state diverged bitwise after "
                f"{'commit' if i % 2 == 0 else 'rollback'} at move {i}"
            )
            break  # everything downstream would re-report the same drift

    engine_seed = int(params["engine_seed"])
    result = annealer.run(problem, np.random.default_rng(engine_seed))
    recomputed = problem.cost(result.best_state)
    if abs(result.best_cost - recomputed) > 1e-9 * max(1.0, abs(recomputed)):
        failures.append(
            f"sa-engine: best_cost {result.best_cost!r} is not a true "
            f"recomputation ({recomputed!r})"
        )
    steps_per_level = int(params["steps_per_level"])
    if result.steps != steps_per_level * result.levels:
        failures.append(
            f"sa-engine: steps {result.steps} != "
            f"{steps_per_level} * {result.levels} levels"
        )
    if problem._violating_servers(result.best_state).size:
        failures.append("sa-engine: best state violates server bandwidth")
    summary = {
        "checked_moves": checked,
        "best_cost": repr(float(result.best_cost)),
        "steps": result.steps,
        "accepted": result.accepted,
    }
    if params.get("compare_engines"):
        full = annealer.run(
            problem,
            np.random.default_rng(engine_seed),
            use_incremental=False,
        )
        if full.steps != result.steps:
            failures.append(
                f"sa-engine: full path took {full.steps} steps, "
                f"incremental {result.steps}"
            )
        # Float-noise acceptance flips can diverge trajectories; only a
        # regime-level disagreement is a finding.
        scale = max(abs(full.best_cost), abs(result.best_cost), 1e-12)
        if abs(full.best_cost - result.best_cost) > 0.05 * scale:
            failures.append(
                f"sa-engine: incremental best {result.best_cost!r} far "
                f"from full-recompute best {full.best_cost!r}"
            )
        summary["full_best_cost"] = repr(float(full.best_cost))
    return failures, summary


def _run_serving(params: dict) -> tuple[list[str], dict]:
    from ..serving import ServingControlPlane, chain_batch_epochs

    config = build_serving(params)
    failures: list[str] = []

    result = ServingControlPlane(config).run()
    again = ServingControlPlane(config).run()
    if result.digest() != again.digest():
        failures.append(
            "serving-determinism: repeat run changed the epoch digest "
            f"({result.digest()[:12]} vs {again.digest()[:12]})"
        )

    for s in result.snapshots:
        # Request conservation: every simulated request is admitted or
        # rejected, and every generated request is simulated or truncated
        # by the epoch horizon.
        if s.num_admitted + s.num_rejected != s.num_requests:
            failures.append(
                f"serving-conservation: epoch {s.epoch} admitted "
                f"{s.num_admitted} + rejected {s.num_rejected} != "
                f"requests {s.num_requests}"
            )
        if s.num_requests + s.num_truncated != s.num_generated:
            failures.append(
                f"serving-conservation: epoch {s.epoch} requests "
                f"{s.num_requests} + truncated {s.num_truncated} != "
                f"generated {s.num_generated}"
            )
        if (
            config.move_budget is not None
            and s.replicas_copied > config.move_budget
        ):
            failures.append(
                f"serving-budget: epoch {s.epoch} copied "
                f"{s.replicas_copied} > move budget {config.move_budget}"
            )
        if s.cold and s.migration_executed:
            failures.append(
                f"serving-cold: epoch {s.epoch} replanned with zero "
                "observed requests"
            )

    action_epochs = [
        s.epoch for s in result.snapshots if s.elasticity_action != 0
    ]
    for prev, cur in zip(action_epochs, action_epochs[1:]):
        if cur - prev <= config.cooldown_epochs:
            failures.append(
                f"serving-hysteresis: elastic actions at epochs {prev} and "
                f"{cur} violate the {config.cooldown_epochs}-epoch cooldown"
            )

    # Differential oracle: the frozen control plane (no re-planning, no
    # elasticity) must match the manually chained batch epochs
    # bit-identically.
    frozen = config.frozen()
    frozen_run = ServingControlPlane(frozen).run()
    for s, batch in zip(frozen_run.snapshots, chain_batch_epochs(frozen)):
        if not s.result.same_outcome(batch):
            failures.append(
                f"serving-oracle: frozen epoch {s.epoch} diverged from the "
                f"chained batch path (rejected {s.num_rejected} vs "
                f"{batch.num_rejected})"
            )

    summary = {
        "digest": result.digest(),
        "frozen_digest": frozen_run.digest(),
        "requests": result.total_generated,
        "rejected": result.total_rejected,
        "replans": result.replans,
        "copies": result.total_replicas_copied,
        "adds": result.servers_added,
        "drains": result.servers_drained,
        "final_servers": result.final_num_servers,
    }
    return failures, summary


def run_case(case: FuzzCase) -> CaseOutcome:
    """Run every differential check for one case."""
    try:
        if case.kind == "des":
            failures, summary = _run_des(case.params)
        elif case.kind == "sa":
            failures, summary = _run_sa(case.params)
        elif case.kind == "serving":
            failures, summary = _run_serving(case.params)
        else:
            raise ValueError(f"unknown case kind {case.kind!r}")
    except Exception as exc:  # a crash is a finding, not an abort
        # The exception type is part of the shrink category, so greedy
        # reduction cannot morph one crash into an unrelated one.
        failures = [f"exception-{type(exc).__name__}: {exc}"]
        summary = {}
    return CaseOutcome(case.name, tuple(failures), summary)


def replay(case_or_path: "FuzzCase | str | Path") -> CaseOutcome:
    """Replay a case (or a serialized corpus file)."""
    if not isinstance(case_or_path, FuzzCase):
        from .corpus import load_case

        case_or_path = load_case(case_or_path)
    return run_case(case_or_path)


def fuzz(
    num_cases: int,
    seed: int,
    *,
    corpus_dir: "str | Path | None" = None,
    shrink: bool = True,
    chaos: bool = False,
    serving: bool = False,
    adversarial: bool = False,
    log=None,
) -> FuzzReport:
    """Run a fuzz campaign; shrink + serialize failures when a dir is given.

    ``chaos=True`` forces failure injection on in every DES case (the CI
    ``fuzz-campaigns`` chaos entry), so all 200 smoke cases exercise the
    crash/repair/failover machinery rather than the ~50% the default draw
    would.  ``serving=True`` draws serving control-plane cases instead of
    the des/sa mix (the CI ``fuzz-campaigns`` serving entry); the default mix
    is untouched so historical campaign digests stay stable.
    ``adversarial=True`` layers mid-horizon popularity shifts (inversion,
    hotset flip, theta ramp — :mod:`repro.workload.adversarial`) onto
    every DES case, injected post-draw from a child of each case's
    ``trace_seed`` so the base case stream is unchanged.
    """
    from .scenarios import draw_adversarial_params
    start = time.perf_counter()
    digest = hashlib.sha256()
    failing: list[CaseOutcome] = []
    corpus_paths: list[str] = []
    children = np.random.SeedSequence(int(seed)).spawn(int(num_cases))
    for index, child in enumerate(children):
        case = (
            draw_serving_case(child, index)
            if serving
            else draw_case(child, index)
        )
        if chaos and case.kind == "des" and not case.params["failures"]:
            case = FuzzCase(
                case.kind, case.name, {**case.params, "failures": True}
            )
        if adversarial and case.kind == "des":
            case = FuzzCase(
                case.kind,
                case.name,
                {**case.params, **draw_adversarial_params(case.params)},
            )
        outcome = run_case(case)
        digest.update(
            json.dumps(
                {"name": outcome.name, "summary": outcome.summary},
                sort_keys=True,
            ).encode()
        )
        if not outcome.ok:
            if shrink:
                minimal, messages = shrink_case(
                    case, lambda c: list(run_case(c).failures)
                )
                outcome = CaseOutcome(
                    minimal.name, tuple(messages), run_case(minimal).summary
                )
                case = minimal
            failing.append(outcome)
            if corpus_dir is not None:
                from .corpus import save_case

                path = save_case(
                    case,
                    corpus_dir,
                    reason=f"fuzz --seed {seed} case {index}",
                    violations=list(outcome.failures),
                )
                corpus_paths.append(str(path))
            if log is not None:
                log(f"FAIL {case.name}: {outcome.failures[0]}")
        if log is not None and (index + 1) % 50 == 0:
            log(
                f"  ... {index + 1}/{num_cases} cases, "
                f"{len(failing)} failing"
            )
    return FuzzReport(
        cases=int(num_cases),
        seed=int(seed),
        digest=digest.hexdigest(),
        failures=tuple(failing),
        corpus_paths=tuple(corpus_paths),
        elapsed_sec=time.perf_counter() - start,
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Deterministic differential fuzzing of the DES and the "
        "annealer (see repro.verify).",
    )
    parser.add_argument("--cases", type=int, default=200,
                        help="number of cases to draw (default: 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--corpus-dir", default="tests/corpus",
                        help="where shrunk failing cases are serialized "
                        "(default: tests/corpus)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="serialize failing cases without minimizing")
    parser.add_argument("--chaos", action="store_true",
                        help="force failure injection on in every DES case")
    parser.add_argument("--serving", action="store_true",
                        help="draw serving control-plane cases instead of "
                        "the des/sa mix")
    parser.add_argument("--adversarial", action="store_true",
                        help="layer mid-horizon popularity shifts "
                        "(inversion / hotset flip / theta ramp) onto "
                        "every DES case")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    args = parser.parse_args(argv)

    log = (lambda msg: None) if args.quiet else print
    report = fuzz(
        args.cases,
        args.seed,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        chaos=args.chaos,
        serving=args.serving,
        adversarial=args.adversarial,
        log=log,
    )
    print(
        f"fuzz: {report.cases} cases (seed {report.seed}) in "
        f"{report.elapsed_sec:.1f}s, {len(report.failures)} failing, "
        f"digest {report.digest[:16]}"
    )
    for outcome in report.failures:
        print(f"  {outcome.name}:")
        for message in outcome.failures[:5]:
            print(f"    {message}")
    for path in report.corpus_paths:
        print(f"  repro written: {path}")
    return 1 if report.failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
