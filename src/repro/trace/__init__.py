"""Observability layer: structured tracing, metrics, Perfetto export.

This package is the measurement substrate for every performance-oriented
experiment on the simulator (ROADMAP: "fast as the hardware allows").
It has three parts:

* :class:`~repro.trace.tracer.Tracer` — a structured event recorder.
  Instrumentation hooks are threaded through the simulation kernel
  (engine, fabric, switches, home/L2 controllers, processors); each hook
  is guarded by a single ``sim.tracer is not None`` check, so a run with
  tracing disabled pays one attribute load per hook site and allocates
  nothing (the *no-op fast path*).
* :class:`~repro.trace.metrics.MetricsRegistry` — log-bucketed
  latency histograms and sampled time series.  Histogram
  sums are exact, so per-class means reconcile bit-for-bit with
  :meth:`repro.stats.counters.MachineStats.mean_latency` — the two
  layers validate each other.
* :mod:`~repro.trace.export` — Chrome trace-event / Perfetto JSON
  export (one track per node/switch/home, flow events linking the
  request and reply legs of a transaction) plus a compact JSONL log.

See DESIGN.md §8 for the event taxonomy and the overhead budget.
"""

from .metrics import Histogram, MetricsRegistry, TimeSeries
from .tracer import Tracer
from .export import chrome_trace, write_chrome_trace, write_jsonl

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
    "Tracer",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
