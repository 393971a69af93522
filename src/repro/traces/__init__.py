"""Synthetic trace generation.

The paper evaluates prediction on proprietary traces from "ZopleCloud
Corp." (weekly switch traffic, VM CPU utilization, disk I/O — Figs. 3–5).
Those traces are not public, so this subpackage synthesizes equivalents
with the statistical structure the evaluation relies on:

* strong diurnal/weekly seasonality with regular peaks and troughs
  (Fig. 5) — the regime where ARIMA after differencing shines;
* a nonlinear, chaotic component (Mackey–Glass) — the regime where
  NARNET outperforms ARIMA;
* bursty, heavy-tailed noise for CPU and disk I/O (Figs. 3–4).

See DESIGN.md §2 for the substitution rationale.
"""

from repro.traces.noise import ar1_noise, bursty_spikes, white_noise
from repro.traces.diurnal import diurnal_pattern, weekly_pattern
from repro.traces.nonlinear import mackey_glass
from repro.traces.zoplecloud import (
    ZopleCloudTraces,
    cpu_trace,
    disk_io_trace,
    mixed_trace,
    nonlinear_trace,
    weekly_traffic_trace,
)
from repro.traces.workload import WorkloadStream, generate_streams, overload_ramp
from repro.traces.adversarial import adversarial_series, adversarial_streams

__all__ = [
    "white_noise",
    "ar1_noise",
    "bursty_spikes",
    "diurnal_pattern",
    "weekly_pattern",
    "mackey_glass",
    "ZopleCloudTraces",
    "cpu_trace",
    "disk_io_trace",
    "weekly_traffic_trace",
    "nonlinear_trace",
    "mixed_trace",
    "WorkloadStream",
    "generate_streams",
    "overload_ramp",
    "adversarial_series",
    "adversarial_streams",
]
