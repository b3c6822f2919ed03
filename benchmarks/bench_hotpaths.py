"""Hot-path microbenchmarks: DES core and delta-cost annealing.

Times the two dominant inner loops at fixed scales and writes the results
to ``BENCH_hotpaths.json`` at the repo root, so every perf PR has a
machine-readable before/after trajectory:

* **Simulator** — one fig5-scale peak period (M=200 videos, N=8 servers,
  lambda=40/min) through the optimized :class:`VoDClusterSimulator` and the
  retained :class:`ReferenceClusterSimulator`, reporting events/sec for
  both and cross-checking bit-identical ``SimulationResult``s on plain,
  redirected, failure-injected, and full-chaos (failover + re-replication)
  configurations.
* **Vector** — the same fig5 peak period through the vectorized
  event-batch engine (:class:`VectorClusterSimulator`), reporting
  events/sec against the pinned PR-2 tuple-core baseline (gated >=2x at
  full scale on >=4-core machines) and cross-checking bit-identical
  outcomes against both lockstep loops.
* **Annealing** — `ScalableBitRateProblem` at paper scale (M=250, N=8)
  through the full-recompute and incremental engine paths, reporting
  Metropolis steps/sec for both and cross-checking incremental deltas
  against full recomputation.
* **Scale** — the fig5 workload split into 4 arrival shards and fanned
  over a 4-worker pool, reporting aggregate events/sec vs the serial
  baseline and gating the shard merge's exactness (pooled == serial ==
  one genuine unsharded block simulation).
* **Surrogate** — the analytical Erlang fixed-point layout scorer
  (`repro.analysis.surrogate`): layouts/sec on a fig5-scale batch vs
  DES-equivalent scoring (gated >=100x) plus the
  `repro.verify.surrogate_audit` accuracy/bracketing sample.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full scale
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --smoke    # CI scale
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --only scale

Exit status is non-zero iff a determinism cross-check fails; timings are
informational.  ``--output`` overrides the JSON path.  The ``*_seed``
baselines recorded in the JSON were measured at the pre-optimization
commit on the same workloads (the reference simulator shares this PR's
tuple event queue and slimmed server accounting, so it runs faster than
the true seed did).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro import ClusterSpec, VideoCollection, ZipfPopularity
from repro.annealing import ScalableBitRateProblem, SimulatedAnnealer
from repro.cluster_sim import (
    ReferenceClusterSimulator,
    VectorClusterSimulator,
    VoDClusterSimulator,
)
from repro.cluster_sim.failures import (
    FailoverPolicy,
    FailureEvent,
    FailureSchedule,
    RereplicationPolicy,
)
from repro.model.problem import ReplicationProblem
from repro.placement import smallest_load_first_placement
from repro.replication import zipf_interval_replication
from repro.workload import WorkloadGenerator

#: Throughputs measured at the seed commit (pre-optimization), same
#: workloads, same machine class; the "before" of this perf trajectory.
SEED_EVENTS_PER_SEC = 174_234.0
SEED_SA_STEPS_PER_SEC = 4_902.0

#: Optimized-simulator throughput recorded by the tuple-core PR (PR 2) on
#: this machine class — the "before" of the observability layer.  The
#: disabled-path budget gates the current plain throughput against it.
PR2_EVENTS_PER_SEC = 715_214.7


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _best_wall(fn, repeats: int) -> tuple[float, object]:
    """Minimum wall time over *repeats* calls plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


# ----------------------------------------------------------------------
# Simulator benchmark
# ----------------------------------------------------------------------
def _fig5_system():
    popularity = ZipfPopularity(200, 0.75)
    cluster = ClusterSpec.homogeneous(8, storage_gb=81.0, bandwidth_mbps=1800.0)
    videos = VideoCollection.homogeneous(200)
    replication = zipf_interval_replication(popularity.probabilities, 8, 240)
    layout = smallest_load_first_placement(replication, 30)
    return popularity, cluster, videos, layout


def bench_simulator(smoke: bool, repeats: int) -> dict:
    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    trace = generator.generate(duration, np.random.default_rng(2))

    optimized = VoDClusterSimulator(cluster, videos, layout)
    reference = ReferenceClusterSimulator(cluster, videos, layout)

    # Determinism cross-checks over distinct feature combinations; the
    # full randomized crossing lives in tests/test_simulator_equivalence.py.
    failures = FailureSchedule(
        (FailureEvent(time_min=duration / 3, server=1, down_min=duration / 6),)
    )
    scenarios = {
        "plain": dict(horizon_min=duration),
        "redirected": dict(horizon_min=duration, _backbone=500.0),
        "failures": dict(
            horizon_min=duration, failures=failures, failover_on_down=True
        ),
        "chaos": dict(
            horizon_min=duration,
            failures=failures,
            failover_on_down=True,
            failover=FailoverPolicy(backoff_base_min=duration / 100.0),
            rereplication=RereplicationPolicy(),
        ),
    }
    identical = True
    for name, kwargs in scenarios.items():
        backbone = kwargs.pop("_backbone", 0.0)
        opt = VoDClusterSimulator(cluster, videos, layout, backbone_mbps=backbone)
        ref = ReferenceClusterSimulator(
            cluster, videos, layout, backbone_mbps=backbone
        )
        if not opt.run(trace, **kwargs).same_outcome(ref.run(trace, **kwargs)):
            identical = False
            print(f"FAIL: simulator outcome diverged on scenario {name!r}")

    wall_ref, res_ref = _best_wall(
        lambda: reference.run(trace, horizon_min=duration), repeats
    )
    wall_opt, res_opt = _best_wall(
        lambda: optimized.run(trace, horizon_min=duration), repeats
    )
    ref_eps = res_ref.num_events / wall_ref
    opt_eps = res_opt.num_events / wall_opt
    return {
        "workload": {
            "num_videos": 200,
            "num_servers": 8,
            "arrival_rate_per_min": 40.0,
            "duration_min": duration,
            "num_requests": trace.num_requests,
            "num_events": res_opt.num_events,
        },
        "seed_events_per_sec": SEED_EVENTS_PER_SEC,
        "reference_events_per_sec": round(ref_eps, 1),
        "optimized_events_per_sec": round(opt_eps, 1),
        "speedup_vs_seed": round(opt_eps / SEED_EVENTS_PER_SEC, 2),
        "speedup_vs_reference": round(opt_eps / ref_eps, 2),
        "reference_wall_sec": round(wall_ref, 6),
        "optimized_wall_sec": round(wall_opt, 6),
        "bit_identical": identical,
    }


# ----------------------------------------------------------------------
# Vector-engine benchmark
# ----------------------------------------------------------------------
def bench_vector(smoke: bool, repeats: int) -> dict:
    """The vectorized event-batch engine vs the PR-2 tuple core.

    Same fig5-scale workload as the simulator block.  The base model
    (static round-robin, no backbone, no chaos) keeps the vector fast
    path fully engaged, so this measures the batched core rather than
    the delegation fallback.  The >=2x events/s budget against the
    pinned PR-2 tuple-core throughput is gated at full scale on >=4-core
    machines (matching the scale block's policy: smoke runs and starved
    CI boxes report advisory numbers only).
    """
    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    trace = generator.generate(duration, np.random.default_rng(2))

    optimized = VoDClusterSimulator(cluster, videos, layout)
    reference = ReferenceClusterSimulator(cluster, videos, layout)
    vector = VectorClusterSimulator(cluster, videos, layout)

    res_opt = optimized.run(trace, horizon_min=duration)
    res_vec = vector.run(trace, horizon_min=duration)
    identical = res_vec.same_outcome(res_opt) and res_vec.same_outcome(
        reference.run(trace, horizon_min=duration)
    )
    if not identical:
        print("FAIL: vector engine outcome diverged on the bench workload")

    wall_opt, _ = _best_wall(
        lambda: optimized.run(trace, horizon_min=duration), repeats
    )
    wall_vec, _ = _best_wall(
        lambda: vector.run(trace, horizon_min=duration), repeats
    )
    opt_eps = res_opt.num_events / wall_opt
    vec_eps = res_vec.num_events / wall_vec
    budget = 2.0
    gated = (not smoke) and (os.cpu_count() or 1) >= 4
    speedup_vs_pr2 = vec_eps / PR2_EVENTS_PER_SEC
    return {
        "workload": {
            "num_videos": 200,
            "num_servers": 8,
            "arrival_rate_per_min": 40.0,
            "duration_min": duration,
            "num_requests": trace.num_requests,
            "num_events": res_vec.num_events,
        },
        "pr2_events_per_sec": PR2_EVENTS_PER_SEC,
        "optimized_events_per_sec": round(opt_eps, 1),
        "vector_events_per_sec": round(vec_eps, 1),
        "speedup_vs_pr2": round(speedup_vs_pr2, 2),
        "speedup_vs_optimized": round(vec_eps / opt_eps, 2),
        "optimized_wall_sec": round(wall_opt, 6),
        "vector_wall_sec": round(wall_vec, 6),
        "budget_speedup": budget,
        "budget_gated": gated,
        "bit_identical": identical,
        "ok": identical and (speedup_vs_pr2 >= budget or not gated),
    }


# ----------------------------------------------------------------------
# Audit-overhead benchmark (repro.verify)
# ----------------------------------------------------------------------
def bench_audit(smoke: bool) -> dict:
    """Enabled-auditor overhead on the DES hot loop.

    Two workloads at fig5 scale: the *full-lifecycle* run (horizon past
    the last departure, so arrivals and departures both flow) and the
    *peak-period* slice (horizon = trace duration; with 90-minute videos
    no stream departs inside it, so every event is an arrival — the
    worst case for the per-admission reconstruction, reported as
    informational).  The <=10% budget is gated on the full-lifecycle
    workload.  Plain and audited runs are interleaved per iteration
    (best-of-N each) so CPU frequency drift cancels out of the ratio, the
    collector is paused during timing (``timeit``'s default) so GC pauses
    triggered by unrelated allocation history don't land on one side of
    the comparison, and each workload is measured in several independent
    passes with the minimum-overhead pass reported — the ``timeit.repeat``
    guidance: higher figures are interference from other processes, not
    properties of the code under test.
    """
    import gc

    from repro.verify import standard_auditors
    from repro.verify.audit import run_audited

    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    trace = generator.generate(duration, np.random.default_rng(2))
    simulator = VoDClusterSimulator(cluster, videos, layout)
    auditors = standard_auditors()
    video_minutes = float(videos.durations_min.max())
    reps = 30 if smoke else 100

    passes = 2 if smoke else 3

    def measure_pass(horizon: float) -> dict:
        best_plain = best_audited = float("inf")
        plain = audited = report = None
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                plain = simulator.run(trace, horizon_min=horizon)
                best_plain = min(best_plain, time.perf_counter() - start)
                start = time.perf_counter()
                audited, report = run_audited(
                    simulator, trace, horizon_min=horizon, auditors=auditors
                )
                best_audited = min(best_audited, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        overhead = (best_audited - best_plain) / best_plain * 100.0
        return {
            "horizon_min": horizon,
            "num_events": plain.num_events,
            "plain_events_per_sec": round(plain.num_events / best_plain, 1),
            "audited_events_per_sec": round(
                audited.num_events / best_audited, 1
            ),
            "plain_wall_sec": round(best_plain, 6),
            "audited_wall_sec": round(best_audited, 6),
            "overhead_pct": round(overhead, 2),
            "identical": plain.same_outcome(audited),
            "violations": report.num_violations,
        }

    def measure(horizon: float) -> dict:
        results = [measure_pass(horizon) for _ in range(passes)]
        best = min(results, key=lambda r: r["overhead_pct"])
        best = dict(best)
        # identical/violations must hold in EVERY pass, not just the kept one.
        best["identical"] = all(r["identical"] for r in results)
        best["violations"] = max(r["violations"] for r in results)
        best["overhead_pct_passes"] = [r["overhead_pct"] for r in results]
        return best

    full_lifecycle = measure(duration + video_minutes + 5.0)
    peak_period = measure(duration)
    budget_met = full_lifecycle["overhead_pct"] <= 10.0
    ok = (
        full_lifecycle["identical"]
        and peak_period["identical"]
        and full_lifecycle["violations"] == 0
        and peak_period["violations"] == 0
        # Timing is advisory on smoke runs: shared CI runners cannot
        # honor a 10% wall-clock budget, so only the full benchmark
        # (run on quiet hardware) gates on it.
        and (budget_met or smoke)
    )
    return {
        "auditors": [a.name for a in auditors],
        "repeats": reps,
        "passes": passes,
        "budget_overhead_pct": 10.0,
        "budget_met": budget_met,
        "full_lifecycle": full_lifecycle,
        "peak_period": peak_period,
        "disabled_overhead": (
            "the run record every plain run keeps (one list store per "
            "admission); auditing adds only the post-run reconstruction"
        ),
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Observability-overhead benchmark (repro.observe)
# ----------------------------------------------------------------------
def bench_observe(smoke: bool) -> dict:
    """Observer overhead on the DES hot loop (repro.observe).

    Two budgets, both on the full-lifecycle fig5 workload:

    * **disabled** (``observer=None``) — the cost of the instrumentation
      guards alone, gated at <=2% against the tuple-core PR's recorded
      throughput (:data:`PR2_EVENTS_PER_SEC`);
    * **metrics on** (1-minute sampling, sampled event traces) — gated at
      <=10% against an interleaved plain run of the same build, the same
      measurement discipline as :func:`bench_audit` (gc paused, best-of-N
      per pass, minimum-overhead pass kept, bit-identity required in
      every pass).  The observer's numpy fold is deferred to first read,
      so this measures the recording cost on the critical path; the fold
      itself is reported separately (``fold_wall_sec``, informational).

    Timing budgets gate only on non-smoke runs (quiet hardware).
    """
    import gc

    from repro.observe import Observer, ObserverConfig

    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    trace = generator.generate(duration, np.random.default_rng(2))
    simulator = VoDClusterSimulator(cluster, videos, layout)
    video_minutes = float(videos.durations_min.max())
    horizon = duration + video_minutes + 5.0
    reps = 30 if smoke else 100
    passes = 2 if smoke else 3
    config = ObserverConfig(
        sample_interval_min=1.0, trace_events=True, trace_event_every=100
    )

    def measure_pass() -> dict:
        best_plain = best_observed = float("inf")
        plain = observed = None
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                plain = simulator.run(trace, horizon_min=horizon)
                best_plain = min(best_plain, time.perf_counter() - start)
                observer = Observer(config)
                start = time.perf_counter()
                observed = simulator.run(
                    trace, horizon_min=horizon, observer=observer
                )
                best_observed = min(
                    best_observed, time.perf_counter() - start
                )
        finally:
            if gc_was_enabled:
                gc.enable()
        overhead = (best_observed - best_plain) / best_plain * 100.0
        return {
            "num_events": plain.num_events,
            "plain_events_per_sec": round(plain.num_events / best_plain, 1),
            "observed_events_per_sec": round(
                observed.num_events / best_observed, 1
            ),
            "plain_wall_sec": round(best_plain, 6),
            "observed_wall_sec": round(best_observed, 6),
            "overhead_pct": round(overhead, 2),
            "identical": plain.same_outcome(observed),
        }

    results = [measure_pass() for _ in range(passes)]
    best = dict(min(results, key=lambda r: r["overhead_pct"]))
    best["identical"] = all(r["identical"] for r in results)
    best["overhead_pct_passes"] = [r["overhead_pct"] for r in results]

    # Informational: the deferred fold (numpy aggregation of one run's
    # parked samples into the registry) runs on first read, off the
    # simulator's critical path — report what one flush costs.
    observer = Observer(config)
    simulator.run(trace, horizon_min=horizon, observer=observer)
    start = time.perf_counter()
    observer.registry  # first read flushes the parked run
    best["fold_wall_sec"] = round(time.perf_counter() - start, 6)

    plain_eps = best["plain_events_per_sec"]
    disabled_overhead = (PR2_EVENTS_PER_SEC - plain_eps) / PR2_EVENTS_PER_SEC * 100.0
    disabled_budget_met = disabled_overhead <= 2.0
    metrics_budget_met = best["overhead_pct"] <= 10.0
    ok = best["identical"] and (
        smoke or (disabled_budget_met and metrics_budget_met)
    )
    return {
        "config": {
            "sample_interval_min": config.sample_interval_min,
            "trace_events": config.trace_events,
            "trace_event_every": config.trace_event_every,
        },
        "horizon_min": horizon,
        "repeats": reps,
        "passes": passes,
        "pr2_events_per_sec": PR2_EVENTS_PER_SEC,
        "disabled_budget_pct": 2.0,
        "disabled_overhead_pct": round(disabled_overhead, 2),
        "disabled_budget_met": disabled_budget_met,
        "metrics_budget_pct": 10.0,
        "metrics_budget_met": metrics_budget_met,
        "metrics_on": best,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Chaos-overhead benchmark (repro.cluster_sim.failures)
# ----------------------------------------------------------------------
def bench_chaos(smoke: bool) -> dict:
    """Failure-free cost of the chaos & recovery machinery.

    Runs the full-lifecycle fig5 workload twice per iteration: plain, and
    with the entire chaos stack attached but inert (an empty
    :class:`FailureSchedule` plus failover and re-replication policies).
    The attached run must stay **bit-identical** to the plain run — the
    failure-free path is required to be the same hot path, gated on every
    run including smoke — and within a <=2% wall-time budget, gated on
    non-smoke runs only (same measurement discipline as
    :func:`bench_audit`: gc paused, interleaved best-of-N, minimum
    overhead pass kept).
    """
    import gc

    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    trace = generator.generate(duration, np.random.default_rng(2))
    simulator = VoDClusterSimulator(cluster, videos, layout)
    video_minutes = float(videos.durations_min.max())
    horizon = duration + video_minutes + 5.0
    reps = 30 if smoke else 100
    passes = 2 if smoke else 3
    chaos_kwargs = dict(
        failures=FailureSchedule.none(),
        failover_on_down=True,
        failover=FailoverPolicy(),
        rereplication=RereplicationPolicy(),
    )

    def measure_pass() -> dict:
        best_plain = best_chaos = float("inf")
        plain = attached = None
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = time.perf_counter()
                plain = simulator.run(trace, horizon_min=horizon)
                best_plain = min(best_plain, time.perf_counter() - start)
                start = time.perf_counter()
                attached = simulator.run(
                    trace, horizon_min=horizon, **chaos_kwargs
                )
                best_chaos = min(best_chaos, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        overhead = (best_chaos - best_plain) / best_plain * 100.0
        return {
            "num_events": plain.num_events,
            "plain_events_per_sec": round(plain.num_events / best_plain, 1),
            "chaos_events_per_sec": round(
                attached.num_events / best_chaos, 1
            ),
            "plain_wall_sec": round(best_plain, 6),
            "chaos_wall_sec": round(best_chaos, 6),
            "overhead_pct": round(overhead, 2),
            "identical": plain.same_outcome(attached)
            and attached.num_failures == 0
            and attached.num_retries == 0,
        }

    results = [measure_pass() for _ in range(passes)]
    best = dict(min(results, key=lambda r: r["overhead_pct"]))
    best["identical"] = all(r["identical"] for r in results)
    best["overhead_pct_passes"] = [r["overhead_pct"] for r in results]

    budget_met = best["overhead_pct"] <= 2.0
    ok = best["identical"] and (budget_met or smoke)
    return {
        "horizon_min": horizon,
        "repeats": reps,
        "passes": passes,
        "budget_overhead_pct": 2.0,
        "budget_met": budget_met,
        "failure_free": best,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Sharded scale-out benchmark (repro.cluster_sim.sharding)
# ----------------------------------------------------------------------
def bench_scale(smoke: bool, repeats: int) -> dict:
    """K-way sharded scale-out: throughput and merge exactness.

    Splits the fig5 workload into 4 full-rate arrival shards (weak
    scaling: 4 pods, 4x the events) and times the shard set twice: all
    shards serially in-process, and fanned over a 4-worker
    :class:`ParallelRunner` via :func:`run_sharded`.  Reported speedup is
    aggregate events/s over the serial baseline.

    Correctness is gated on every run (including smoke):

    * the pooled merge is bitwise the serial merge;
    * the merge is permutation-invariant (``shard_indices``) and a K=1
      merge is a no-op;
    * the merged result is field-identical to one genuine unsharded
      simulation of the 4-pod block system
      (:func:`repro.verify.audit_shard_merge`).

    The >=3x speedup budget gates only on non-smoke runs on machines with
    at least 4 CPUs — a shared 1-2 core runner cannot express multi-core
    scaling, and recording an honest miss there would gate on the
    machine, not the code.
    """
    from repro.cluster_sim import merge_results, run_sharded, shard_traces
    from repro.runtime import ParallelRunner
    from repro.verify import audit_shard_merge, compare_merged

    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    num_shards = workers = 4
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    simulator = VoDClusterSimulator(cluster, videos, layout)
    traces = shard_traces(generator, duration, seed=2, num_shards=num_shards)

    def run_serial():
        return [simulator.run(t, horizon_min=duration) for t in traces]

    wall_serial, serial_results = _best_wall(run_serial, repeats)
    serial_merged = merge_results(serial_results)

    with ParallelRunner(jobs=workers) as runner:
        run_pooled = lambda: run_sharded(
            simulator, traces, runner=runner, horizon_min=duration
        )
        run_pooled()  # warm the worker pool before timing
        wall_pooled, (pooled_merged, _) = _best_wall(run_pooled, repeats)

    total_events = sum(r.num_events for r in serial_results)
    serial_eps = total_events / wall_serial
    pooled_eps = total_events / wall_pooled
    speedup = pooled_eps / serial_eps

    pooled_identical = compare_merged(serial_merged, pooled_merged) == []
    if not pooled_identical:
        print("FAIL: pooled shard merge diverged from the serial merge")
    permuted = merge_results(
        list(reversed(serial_results)),
        shard_indices=list(reversed(range(num_shards))),
    )
    permutation_invariant = compare_merged(serial_merged, permuted) == []
    if not permutation_invariant:
        print("FAIL: shard merge is not permutation-invariant")
    k1_noop = merge_results([serial_results[0]]) is serial_results[0]
    if not k1_noop:
        print("FAIL: K=1 merge is not a bitwise no-op")
    block_report = audit_shard_merge(
        simulator, traces, serial_merged, horizon_min=duration
    )
    if not block_report.ok:
        for violation in block_report.violations:
            print(f"FAIL: shard merge vs unsharded block: {violation}")

    identical = (
        pooled_identical
        and permutation_invariant
        and k1_noop
        and block_report.ok
    )
    cpu_count = os.cpu_count() or 1
    budget_met = speedup >= 3.0
    ok = identical and (budget_met or smoke or cpu_count < workers)
    return {
        "num_shards": num_shards,
        "workers": workers,
        "cpu_count": cpu_count,
        "duration_min": duration,
        "num_events_total": total_events,
        "serial_events_per_sec": round(serial_eps, 1),
        "parallel_events_per_sec": round(pooled_eps, 1),
        "speedup": round(speedup, 2),
        "serial_wall_sec": round(wall_serial, 6),
        "parallel_wall_sec": round(wall_pooled, 6),
        "budget_speedup": 3.0,
        "budget_met": budget_met,
        "budget_gated": not smoke and cpu_count >= workers,
        "merged_bit_identical": pooled_identical,
        "permutation_invariant": permutation_invariant,
        "k1_merge_noop": k1_noop,
        "unsharded_block_identical": block_report.ok,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Erlang-surrogate benchmark (repro.analysis.surrogate)
# ----------------------------------------------------------------------
def bench_surrogate(smoke: bool, repeats: int) -> dict:
    """Analytical layout scoring: throughput vs the DES, plus accuracy.

    **Speed** — scores a batch of random feasible fig5-scale layouts with
    :func:`repro.analysis.surrogate.evaluate_layouts` (least-loaded
    overflow model, the expensive fixed-point path) and compares
    layouts/sec against DES-equivalent scoring: the pipeline's standard
    evaluation protocol of 20 independent simulated runs averaged per
    layout (:class:`repro.experiments.config.PaperSetup` ``num_runs``) —
    what ``solve()`` pays to attach a rejection rate to one layout.  The
    >=100x budget gates on non-smoke runs; the ROADMAP's "analytical
    fast path" contract.

    **Accuracy** — runs the :mod:`repro.verify.surrogate_audit` sample
    (the CI-pinned seed): max absolute rejection-rate error within the
    audit tolerance, pooled/partitioned bracketing and fixed-point
    convergence on every audited configuration.  Gated on every run —
    the audit is deterministic, so smoke runs must pass it too.
    """
    from repro.analysis.surrogate import SurrogateWorkload, evaluate_layouts
    from repro.placement import random_feasible_placement
    from repro.verify.surrogate_audit import (
        DEFAULT_TOLERANCE,
        audit_surrogate,
    )

    popularity, cluster, videos, layout = _fig5_system()
    duration = 20.0 if smoke else 90.0
    num_layouts = 16 if smoke else 64
    replication = zipf_interval_replication(popularity.probabilities, 8, 240)
    rng = np.random.default_rng(3)
    layouts = [layout] + [
        random_feasible_placement(replication, 30, rng)
        for _ in range(num_layouts - 1)
    ]
    workload = SurrogateWorkload(
        popularity=popularity.probabilities,
        arrival_rate_per_min=40.0,
        holding_time_min=float(videos.durations_min[0]),
    )

    wall_batch, batch = _best_wall(
        lambda: evaluate_layouts(
            layouts, workload, cluster, dispatcher="least_loaded"
        ),
        repeats,
    )
    surrogate_lps = num_layouts / wall_batch

    # DES-equivalent scoring: the pipeline's evaluation protocol — 20
    # independent runs averaged per layout (PaperSetup.num_runs).
    des_runs = 20
    generator = WorkloadGenerator.poisson_zipf(popularity, 40.0)
    traces = [
        generator.generate(duration, np.random.default_rng(child))
        for child in np.random.SeedSequence(2).spawn(des_runs)
    ]
    simulator = VoDClusterSimulator(cluster, videos, layout)
    wall_des, _ = _best_wall(
        lambda: [
            simulator.run(t, horizon_min=duration).rejection_rate
            for t in traces
        ],
        repeats,
    )
    des_lps = 1.0 / wall_des
    speedup = surrogate_lps / des_lps

    audit = audit_surrogate(
        num_cases=3 if smoke else 6, num_runs=2 if smoke else 3
    )

    budget_met = speedup >= 100.0
    ok = audit.ok and batch.diagnostics.converged and (budget_met or smoke)
    return {
        "num_layouts": num_layouts,
        "dispatcher": "least_loaded",
        "fixed_point_iterations": batch.diagnostics.iterations,
        "surrogate_layouts_per_sec": round(surrogate_lps, 1),
        "des_runs_per_layout": des_runs,
        "des_layouts_per_sec": round(des_lps, 4),
        "speedup_vs_des": round(speedup, 1),
        "batch_wall_sec": round(wall_batch, 6),
        "des_wall_sec_per_layout": round(wall_des, 6),
        "budget_speedup": 100.0,
        "budget_met": budget_met,
        "audit_configs": len(audit.results),
        "audit_tolerance": DEFAULT_TOLERANCE,
        "audit_max_abs_error": round(audit.max_abs_error, 6),
        "audit_bracketed": audit.all_bracketed,
        "audit_converged": audit.all_converged,
        "audit_ok": audit.ok,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Annealing benchmark
# ----------------------------------------------------------------------
def _paper_scale_problem() -> ScalableBitRateProblem:
    popularity = ZipfPopularity(250, 0.75)
    cluster = ClusterSpec.homogeneous(8, storage_gb=120.0, bandwidth_mbps=1800.0)
    videos = VideoCollection.homogeneous(250)
    problem = ReplicationProblem(
        cluster,
        videos,
        popularity,
        arrival_rate_per_min=40.0,
        peak_minutes=90.0,
        allowed_bit_rates_mbps=(1.5, 3.0, 4.0, 6.0),
    )
    return ScalableBitRateProblem(problem)


def _delta_crosscheck(sa: ScalableBitRateProblem, moves: int) -> float:
    """Max |incremental delta - full recompute delta| over random moves."""
    state = sa.initial_state(np.random.default_rng(0))
    context = sa.make_incremental(state)
    full_state = state.copy()
    worst = 0.0
    for i in range(moves):
        seed = 10_000 + i
        before = sa.cost(full_state)
        neighbor = sa.propose(full_state, np.random.default_rng(seed))
        delta = context.propose(np.random.default_rng(seed))
        if neighbor is None:
            assert delta is None
            continue
        worst = max(worst, abs(delta - (sa.cost(neighbor) - before)))
        if i % 2 == 0:
            full_state = neighbor
            context.commit()
        else:
            context.rollback()
        if not np.array_equal(context.export_state(), full_state):
            return float("inf")  # rollback/commit broke bitwise equality
    return worst


def bench_annealing(smoke: bool, repeats: int) -> dict:
    sa = _paper_scale_problem()
    annealer = SimulatedAnnealer(
        steps_per_level=200,
        max_levels=10 if smoke else 60,
        patience_levels=15,
    )
    # Best-of-N on throughput: identical seeds make every repeat the same
    # trajectory, so the fastest run is the least-noise measurement.
    res_full = res_inc = None
    for _ in range(repeats):
        full = annealer.run(sa, np.random.default_rng(42), use_incremental=False)
        inc = annealer.run(sa, np.random.default_rng(42))
        if res_full is None or full.steps_per_sec > res_full.steps_per_sec:
            res_full = full
        if res_inc is None or inc.steps_per_sec > res_inc.steps_per_sec:
            res_inc = inc
    max_error = _delta_crosscheck(sa, moves=200 if smoke else 1000)
    return {
        "scale": {"num_videos": 250, "num_servers": 8},
        "seed_steps_per_sec": SEED_SA_STEPS_PER_SEC,
        "full_steps_per_sec": round(res_full.steps_per_sec, 1),
        "incremental_steps_per_sec": round(res_inc.steps_per_sec, 1),
        "speedup_vs_seed": round(res_inc.steps_per_sec / SEED_SA_STEPS_PER_SEC, 2),
        "speedup_vs_full": round(
            res_inc.steps_per_sec / res_full.steps_per_sec, 2
        ),
        "full_wall_sec": round(res_full.wall_time_sec, 6),
        "incremental_wall_sec": round(res_inc.wall_time_sec, 6),
        "full_best_cost": res_full.best_cost,
        "incremental_best_cost": res_inc.best_cost,
        "max_delta_error": max_error,
        "delta_crosscheck_ok": max_error <= 1e-9,
    }


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI scale: short trace, few annealing levels",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json",
        help="output JSON path (default: repo root)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=(
            "simulator",
            "vector",
            "audit",
            "observe",
            "chaos",
            "scale",
            "surrogate",
            "annealing",
        ),
        help=(
            "run only the named block(s) and write a partial payload; "
            "repeatable (default: all blocks)"
        ),
    )
    args = parser.parse_args(argv)
    repeats = max(args.repeats, 1)
    blocks = (
        "simulator",
        "vector",
        "audit",
        "observe",
        "chaos",
        "scale",
        "surrogate",
        "annealing",
    )
    selected = tuple(args.only) if args.only else blocks

    payload = {
        "schema": 7,
        "generated_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "smoke": args.smoke,
        "machine": _machine_info(),
    }
    ok = True

    if "simulator" in selected:
        simulator = payload["simulator"] = bench_simulator(args.smoke, repeats)
        print(
            f"simulator: {simulator['optimized_events_per_sec']:,.0f} events/s "
            f"({simulator['speedup_vs_seed']}x vs seed, "
            f"{simulator['speedup_vs_reference']}x vs reference), "
            f"bit_identical={simulator['bit_identical']}"
        )
        ok = ok and simulator["bit_identical"]
    if "vector" in selected:
        vector = payload["vector"] = bench_vector(args.smoke, repeats)
        print(
            f"vector: {vector['vector_events_per_sec']:,.0f} events/s "
            f"({vector['speedup_vs_pr2']}x vs PR-2 tuple core, "
            f"{vector['speedup_vs_optimized']}x vs optimized, "
            f"budget >={vector['budget_speedup']:.0f}x"
            f"{' gated' if vector['budget_gated'] else ' advisory'}), "
            f"bit_identical={vector['bit_identical']}, ok={vector['ok']}"
        )
        ok = ok and vector["ok"]
    if "audit" in selected:
        audit = payload["audit"] = bench_audit(args.smoke)
        print(
            f"audit: +{audit['full_lifecycle']['overhead_pct']}% enabled overhead "
            f"(full lifecycle; peak period "
            f"+{audit['peak_period']['overhead_pct']}%), budget "
            f"<={audit['budget_overhead_pct']}%, ok={audit['ok']}"
        )
        ok = ok and audit["ok"]
    if "observe" in selected:
        observe = payload["observe"] = bench_observe(args.smoke)
        print(
            f"observe: disabled {observe['disabled_overhead_pct']:+}% vs PR2 "
            f"(budget <={observe['disabled_budget_pct']}%), metrics on "
            f"+{observe['metrics_on']['overhead_pct']}% "
            f"(budget <={observe['metrics_budget_pct']}%), ok={observe['ok']}"
        )
        ok = ok and observe["ok"]
    if "chaos" in selected:
        chaos = payload["chaos"] = bench_chaos(args.smoke)
        print(
            f"chaos: +{chaos['failure_free']['overhead_pct']}% failure-free "
            f"overhead (budget <={chaos['budget_overhead_pct']}%), "
            f"bit_identical={chaos['failure_free']['identical']}, "
            f"ok={chaos['ok']}"
        )
        ok = ok and chaos["ok"]
    if "scale" in selected:
        scale = payload["scale"] = bench_scale(args.smoke, repeats)
        print(
            f"scale: {scale['parallel_events_per_sec']:,.0f} aggregate events/s "
            f"on {scale['workers']} workers ({scale['speedup']}x serial, "
            f"budget >={scale['budget_speedup']}x"
            f"{' gated' if scale['budget_gated'] else ' advisory'}), "
            f"merge identical={scale['merged_bit_identical']}, "
            f"block identical={scale['unsharded_block_identical']}, "
            f"ok={scale['ok']}"
        )
        ok = ok and scale["ok"]
    if "surrogate" in selected:
        surrogate = payload["surrogate"] = bench_surrogate(args.smoke, repeats)
        print(
            f"surrogate: {surrogate['surrogate_layouts_per_sec']:,.0f} "
            f"layouts/s ({surrogate['speedup_vs_des']}x vs DES-equivalent, "
            f"budget >={surrogate['budget_speedup']:.0f}x), audit max err "
            f"{surrogate['audit_max_abs_error']} "
            f"(tol {surrogate['audit_tolerance']}), "
            f"bracketed={surrogate['audit_bracketed']}, ok={surrogate['ok']}"
        )
        ok = ok and surrogate["ok"]
    if "annealing" in selected:
        annealing = payload["annealing"] = bench_annealing(args.smoke, repeats)
        print(
            f"annealing: {annealing['incremental_steps_per_sec']:,.0f} steps/s "
            f"({annealing['speedup_vs_seed']}x vs seed, "
            f"{annealing['speedup_vs_full']}x vs full), "
            f"delta_crosscheck_ok={annealing['delta_crosscheck_ok']}"
        )
        ok = ok and annealing["delta_crosscheck_ok"]

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
