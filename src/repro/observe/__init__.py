"""Unified observability layer: metrics, tracing, profiling (system S26).

Three zero-dependency building blocks behind one facade:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket
  :class:`Histogram`\\ s and periodic :class:`TimeSeries` samples;
* :class:`Tracer` — structured events (spans, sampled simulator
  arrivals/departures, SA temperature levels, serving epochs) with JSONL
  round-trip via :meth:`Tracer.write_jsonl` / :func:`read_jsonl`;
* :func:`timed` — phase profiling folded into any sink exposing
  ``record_phase`` (``RunReport``, :class:`Observer`) or a plain dict.

:class:`Observer` bundles all three and is what the instrumented
subsystems accept through their optional ``observer=`` parameter
(simulator runs, annealing runs, serving-plane epochs, the parallel
runner).  With ``observer=None`` (the default) every instrumented hot
path runs unobserved, and an observed simulation returns the same result
as a plain one (``tests/test_observe.py``).

Quick start::

    from repro.observe import Observer, ObserverConfig

    obs = Observer(ObserverConfig(sample_interval_min=1.0, trace_events=True))
    simulator.run(trace, observer=obs)
    obs.export_jsonl("trace.jsonl")        # python -m repro observe-report
"""

from .observer import Observer, ObserverConfig
from .profile import timed
from .registry import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries
from .report import load_trace, render_trace_report
from .tracer import Tracer, read_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "ObserverConfig",
    "TimeSeries",
    "Tracer",
    "load_trace",
    "read_jsonl",
    "render_trace_report",
    "timed",
]
