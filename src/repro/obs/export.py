"""Exporters: Prometheus text exposition and Chrome ``trace_event`` JSON.

Two read-only views over the observability state:

* :func:`prometheus_text` renders a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4) — counters and gauges as plain
  samples, histograms as summaries of ``_sum`` and ``_count``.
* :func:`chrome_trace` renders a span-recording
  :class:`~repro.obs.profiling.Profiler` as Chrome/Perfetto
  ``trace_event`` JSON (complete ``"ph": "X"`` events), so
  ``chrome://tracing`` or https://ui.perfetto.dev draws a management
  round as a flamegraph.

Both are pure functions over already-collected state; neither touches
the simulation hot path.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import Profiler

__all__ = ["prometheus_text", "chrome_trace", "write_chrome_trace"]

_PROM_PREFIX = "sheriff_"


def _prom_name(name: str) -> str:
    """Metric name with the exporter namespace prefix applied once."""
    if name.startswith(_PROM_PREFIX):
        return name
    return _PROM_PREFIX + name


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


_HELP: Dict[str, str] = {
    "sheriff_rounds_total": "Management rounds executed.",
    "sheriff_alerts_total": "ALERT messages delivered to shims.",
    "sheriff_shim_alerts_total": "Alerts the shims processed.",
    "sheriff_requests_sent_total": "Migration REQUESTs sent (Alg. 3).",
    "sheriff_requests_acked_total": "Migration REQUESTs ACKed (Alg. 4).",
    "sheriff_requests_rejected_total": "Migration REQUESTs rejected.",
    "sheriff_migration_cost_total": "Summed Eq. (1) cost of accepted moves.",
    "sheriff_search_space_total": "Candidate (VM, host) pairs examined.",
    "sheriff_unplaced_total": "Candidates no shim could place.",
    "sheriff_migrations_committed_total": "Reservations committed.",
    "sheriff_migrations_landed_total": "VMs running at their destination.",
    "sheriff_flows_rerouted_total": "Flows rerouted around hot switches.",
    "sheriff_reroute_failures_total": "Flow reroutes that found no path.",
    "sheriff_matching_size": "Rows entering each matching solve.",
    "sheriff_move_cost": "Eq. (1) cost per accepted move.",
    "sheriff_workload_std": "Post-round workload standard deviation.",
    "sheriff_rollbacks_total": "Reservations/migrations rolled back.",
    "sheriff_channel_retries_total": "REQUEST retransmissions (lossy channel).",
    "sheriff_degraded_rounds_total": "Rounds completed in degraded mode.",
    "sheriff_fallback_transitions_total": "Worst-case fallback mode switches.",
    "sheriff_slo_violation_minutes_total": (
        "SLO-violation-minutes charged, by tenant class and source."
    ),
    "sheriff_slo_request_latency": (
        "Synthetic request latency implied by SLO charges (ms)."
    ),
    "sheriff_slo_budget_exhausted_total": (
        "Tenant classes that spent their whole SLO error budget."
    ),
}


def _prom_help(pname: str) -> str:
    return _HELP.get(pname, f"Sheriff metric {pname}.")


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Instruments are grouped per family with exactly one ``# HELP`` and
    one ``# TYPE`` line each — even when labeled series of different
    families interleave in registration order; families appear in
    registration order (deterministic for identical runs), label sets in
    registration order within a family.  Label values are escaped per
    the exposition format (backslash, double quote, newline).
    """
    families: Dict[str, List[object]] = {}
    order: List[str] = []
    for metric in registry.instruments():
        name = metric.name  # type: ignore[attr-defined]
        if name not in families:
            families[name] = []
            order.append(name)
        families[name].append(metric)

    lines: List[str] = []
    for name in order:
        members = families[name]
        first = members[0]
        pname = _prom_name(name)
        lines.append(f"# HELP {pname} {_prom_help(pname)}")
        if isinstance(first, Counter):
            lines.append(f"# TYPE {pname} counter")
            for m in members:
                lines.append(f"{pname}{_prom_labels(m.labels)} {_fmt(m.value)}")
        elif isinstance(first, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            for m in members:
                lines.append(f"{pname}{_prom_labels(m.labels)} {_fmt(m.value)}")
        else:
            assert isinstance(first, Histogram)
            lines.append(f"# TYPE {pname} summary")
            for m in members:
                lines.append(f"{pname}_sum{_prom_labels(m.labels)} {_fmt(m.sum)}")
                lines.append(f"{pname}_count{_prom_labels(m.labels)} {m.count}")
    return "\n".join(lines) + "\n" if lines else ""


def chrome_trace(profiler: Profiler) -> Dict[str, object]:
    """The profiler's recorded spans as a ``trace_event`` JSON document.

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps relative to the profiler's epoch; the management-round
    index and nesting depth travel in ``args``.  All spans land on one
    pid/tid — the simulator's decision loop is single-threaded at emit
    time — so the nesting renders purely from time containment, which is
    exactly how the spans were recorded.
    """
    events: List[Dict[str, object]] = []
    for span in profiler.spans:
        args: Dict[str, object] = {"depth": span.depth}
        if span.round is not None:
            args["round"] = span.round
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "cat": "sheriff",
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs.export.chrome_trace"},
    }


def write_chrome_trace(profiler: Profiler, stream: IO[str]) -> int:
    """Serialize :func:`chrome_trace` to *stream*; returns the span count."""
    doc = chrome_trace(profiler)
    json.dump(doc, stream)
    stream.write("\n")
    return len(doc["traceEvents"])  # type: ignore[arg-type]
