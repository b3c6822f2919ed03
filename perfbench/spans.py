"""In-memory spans around the public entry points of each layer.

A traced repetition patches wrappers onto the module attributes and class
methods that callers resolve at call time (:func:`install`), so the
program runs unchanged apart from the wrappers.  Each span records its
kind, the index of its parent span, host start and end
(``time.perf_counter``) and the work counts read from the returned
object.  Spans stay in memory; :meth:`Tracer.dump` writes them out when
the repetition ends.

A span's *self* time is its duration minus the durations of its direct
child spans (one thread, so children nest inside their parent).  A
layer's inclusive time sums only its *outermost* spans, so a call that
re-enters the same layer (the vector engine falling back to the
optimized loop, a replicator calling another) is not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

__all__ = [
    "LAYER_OF_KIND",
    "Tracer",
    "install",
    "layer_metrics",
    "layer_shares",
]

#: Span kind -> the ``src/repro`` layer it belongs to.
LAYER_OF_KIND = {
    "workload.trace": "workload",
    "runtime.run_trials": "runtime",
    "pipeline.solve": "pipeline",
    "replication.replicate": "replication",
    "placement.place": "placement",
    "surrogate.evaluate": "analysis/surrogate",
    "annealing.run": "annealing",
    "cluster_sim.build": "cluster_sim",
    "cluster_sim.run": "cluster_sim",
    "dynamic.migration": "dynamic",
    "dynamic.tracker": "dynamic",
    "serving.plane": "serving",
}


class Tracer:
    """Records spans.  Its patches last until the process exits: a traced
    repetition runs in an interpreter of its own."""

    def __init__(self) -> None:
        #: One ``[kind, parent, start, end, counts]`` list per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: set[tuple[int, str]] = set()

    def wrap(self, kind: str, fn, count=None):
        """``fn`` recording one span per call; ``count(result)`` returns
        the span's work counts as a dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [kind, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def patch(self, owner, name: str, kind: str, count=None) -> None:
        """Replace ``owner.name`` with a traced wrapper (once per owner)."""
        key = (id(owner), name)
        if key in self._patched:
            return
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, self.wrap(kind, original, count))
        self._patched.add(key)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON (called once, when the repetition ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ["kind", "parent", "start", "end", "counts"]
        path.write_text(json.dumps({"columns": columns, "spans": self.spans}))


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer under ``src/repro``."""
    import repro.analysis.surrogate as surrogate
    import repro.experiments.cache_scale_sweep as cache_scale_sweep
    import repro.pipeline as pipeline
    import repro.runtime.trial as trial
    import repro.serving.plane as plane
    from repro.annealing import SimulatedAnnealer
    from repro.cluster_sim import ENGINES
    from repro.dynamic.tracker import EwmaPopularityTracker
    from repro.replication import REPLICATOR_REGISTRY
    from repro.runtime import ParallelRunner

    tracer.patch(
        trial, "trial_trace", "workload.trace",
        lambda trace: {"requests": trace.num_requests},
    )
    tracer.patch(
        plane, "epoch_traces", "workload.trace",
        lambda traces: {"requests": sum(t.num_requests for t in traces)},
    )
    tracer.patch(plane, "plan_migration", "dynamic.migration")
    tracer.patch(EwmaPopularityTracker, "observe", "dynamic.tracker")
    for cls in dict.fromkeys(ENGINES.values()):
        for owner in cls.__mro__:
            if "__init__" in owner.__dict__:
                tracer.patch(owner, "__init__", "cluster_sim.build")
                break
        tracer.patch(
            cls, "run", "cluster_sim.run",
            lambda result: {"events": result.num_events},
        )
    tracer.patch(
        SimulatedAnnealer, "run", "annealing.run",
        lambda result: {"steps": result.steps},
    )
    for module in (surrogate, pipeline, cache_scale_sweep):
        tracer.patch(
            module, "evaluate_layouts", "surrogate.evaluate",
            lambda batch: {"layouts": batch.num_layouts},
        )
    for cls in REPLICATOR_REGISTRY.values():
        tracer.patch(cls, "replicate", "replication.replicate")
    for cls in pipeline.PLACERS.values():
        tracer.patch(cls, "place", "placement.place")
    # The serving plane calls the function forms, not the registry classes.
    tracer.patch(plane, "zipf_interval_replication", "replication.replicate")
    tracer.patch(plane, "smallest_load_first_placement", "placement.place")
    tracer.patch(
        ParallelRunner, "run_trials", "runtime.run_trials",
        lambda results: {"trials": len(results)},
    )
    tracer.patch(pipeline, "solve", "pipeline.solve")
    tracer.patch(
        plane.ServingControlPlane, "run", "serving.plane",
        lambda result: {
            "replans": sum(1 for s in result.snapshots if s.replanned),
            "migrations": result.replans,
            "replicas_copied": result.total_replicas_copied,
        },
    )


def _aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per kind: outermost inclusive seconds, self seconds, summed counts."""
    child_time = [0.0] * len(spans)
    for kind, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for index, (kind, parent, start, end, counts) in enumerate(spans):
        entry = totals.setdefault(kind, {"inclusive_s": 0.0, "self_s": 0.0})
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != kind:
            ancestor = spans[ancestor][1]
        if ancestor >= 0:
            continue  # nested in a span of its own kind: counted there
        entry["inclusive_s"] += end - start
        for name, value in (counts or {}).items():
            entry[name] = entry.get(name, 0) + value
    return totals


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    totals = _aggregate(spans)

    def get(kind: str, key: str) -> float:
        return totals.get(kind, {}).get(key, 0.0)

    run_s = get("cluster_sim.run", "inclusive_s")
    events = get("cluster_sim.run", "events")
    evaluate_s = get("surrogate.evaluate", "inclusive_s")
    layouts = get("surrogate.evaluate", "layouts")
    anneal_s = get("annealing.run", "inclusive_s")
    steps = get("annealing.run", "steps")
    replans = get("serving.plane", "replans")
    return {
        "cluster_sim.run_s": run_s,
        "cluster_sim.build_s": get("cluster_sim.build", "inclusive_s"),
        "cluster_sim.events": events,
        "cluster_sim.events_per_s": _rate(events, run_s),
        "workload.trace_s": get("workload.trace", "inclusive_s"),
        "workload.requests": get("workload.trace", "requests"),
        "runtime.run_trials_self_s": get("runtime.run_trials", "self_s"),
        "runtime.trials": get("runtime.run_trials", "trials"),
        "pipeline.solve_self_s": get("pipeline.solve", "self_s"),
        "surrogate.evaluate_s": evaluate_s,
        "surrogate.layouts": layouts,
        "surrogate.layouts_per_s": _rate(layouts, evaluate_s),
        "placement.place_s": get("placement.place", "inclusive_s"),
        "replication.replicate_s": get("replication.replicate", "inclusive_s"),
        "annealing.run_s": anneal_s,
        "annealing.steps": steps,
        "annealing.steps_per_s": _rate(steps, anneal_s),
        "dynamic.migration_s": get("dynamic.migration", "inclusive_s"),
        "dynamic.tracker_s": get("dynamic.tracker", "inclusive_s"),
        "dynamic.replicas_copied": get("serving.plane", "replicas_copied"),
        "serving.plane_self_s": get("serving.plane", "self_s"),
        "serving.replans": replans,
        "serving.migration_ratio": (
            get("serving.plane", "migrations") / replans if replans else 0.0
        ),
    }


def layer_shares(spans: list[list], wall_s: float) -> dict[str, float]:
    """Self time per layer as a share of the traced body's wall time;
    ``benchmark loop`` is the time no wrapped entry point covers."""
    shares: dict[str, float] = {}
    covered = 0.0
    for kind, totals in _aggregate(spans).items():
        layer = LAYER_OF_KIND[kind]
        shares[layer] = shares.get(layer, 0.0) + totals["self_s"] / wall_s
    for kind, parent, start, end, _ in spans:
        if parent < 0:
            covered += end - start
    shares["benchmark loop"] = max(0.0, wall_s - covered) / wall_s
    return shares
