"""Observability: structured tracing, metrics and profiling hooks.

Three independent, composable facilities:

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` — a typed event
  trace of every per-decision step (alert delivery, PRIORITY, matching,
  REQUEST/ACK/REJECT, commits, landings, reroutes, model selection),
  emitted through a zero-cost-when-disabled :class:`Tracer`;
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labeled
  counters/gauges/histograms holding the run's totals, which each round
  adds to in one write from its own record;
* :mod:`repro.obs.profiling` — wall-clock section timers around
  PRIORITY, Kuhn–Munkres, REQUEST and Local Search, surfaced as the
  per-round timing breakdown, with optional nested-span recording.

On top of these sit the causal layer and its tooling:

* :mod:`repro.obs.correlate` — the :class:`LifecycleStitcher` that
  stamps ``trace_id``/``parent_id`` attempt chains into a tracer's rows
  when its log is read;
* :mod:`repro.obs.export` — Prometheus text exposition
  (:func:`prometheus_text`) and Chrome/Perfetto ``trace_event`` JSON
  (:func:`chrome_trace`);
* :mod:`repro.obs.analysis` — ``repro trace`` backends: summarize,
  per-VM lifecycle, diff, and the protocol-invariant linter.

See ``docs/observability.md`` for the event schema and metrics
catalogue.
"""

from repro.obs.analysis import (
    LintViolation,
    diff_traces,
    lint_trace,
    summarize_trace,
    vm_lifecycle,
)
from repro.obs.correlate import LifecycleStitcher
from repro.obs.events import (
    EVENT_TYPES,
    AlertDelivered,
    FlowRerouted,
    MatchingSolved,
    MigrationCommitted,
    MigrationLanded,
    ModelSelected,
    PrioritySelected,
    RequestAcked,
    RequestRejected,
    RequestSent,
    TraceEvent,
)
from repro.obs.export import chrome_trace, prometheus_text, write_chrome_trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, NullProfiler, Profiler, Span
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    load_trace,
)

__all__ = [
    "TraceEvent",
    "AlertDelivered",
    "PrioritySelected",
    "MatchingSolved",
    "RequestSent",
    "RequestAcked",
    "RequestRejected",
    "MigrationCommitted",
    "MigrationLanded",
    "FlowRerouted",
    "ModelSelected",
    "EVENT_TYPES",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "JsonlTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "Span",
    "LifecycleStitcher",
    "TRACE_SCHEMA_VERSION",
    "load_trace",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
    "LintViolation",
    "lint_trace",
    "summarize_trace",
    "vm_lifecycle",
    "diff_traces",
]
