"""Synthetic "ZopleCloud" trace suite (Figs. 3–5 substitute).

The paper collected, from a local data-center provider:

* **Fig. 3** — CPU utilization (%) of one VM over ~24 h: mid-level mean
  with frequent spiky bursts toward 100 %;
* **Fig. 4** — disk I/O rate (MB) over ~24 h: heavily bursty, occasionally
  spiking an order of magnitude over the base rate;
* **Fig. 5** — weekly uplink traffic (MB) of a switch over ~7 days:
  pronounced, regular daily peaks and troughs — the series their
  ARIMA(1,1,1) is trained on.

Each builder returns the physical-unit series; resolution defaults match
the figure x-axes (minutes for the daily traces, ~10-minute samples for
the weekly one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator, spawn
from repro.traces.diurnal import diurnal_pattern, weekly_pattern
from repro.traces.noise import ar1_noise, bursty_spikes
from repro.traces.nonlinear import mackey_glass

__all__ = [
    "cpu_trace",
    "disk_io_trace",
    "weekly_traffic_trace",
    "nonlinear_trace",
    "mixed_trace",
    "ZopleCloudTraces",
]


def cpu_trace(
    hours: float = 24.0,
    samples_per_hour: int = 60,
    seed: SeedLike = None,
) -> np.ndarray:
    """CPU utilization (%) — diurnal base plus AR(1) wander plus bursts."""
    n = int(round(hours * samples_per_hour))
    if n <= 0:
        raise ConfigurationError(f"empty trace requested ({hours} h)")
    r_base, r_ar, r_burst = spawn(seed, 3)
    period = 24 * samples_per_hour
    base = diurnal_pattern(n, period, base=45.0, amplitude=18.0, sharpness=1.6)
    wander = ar1_noise(n, phi=0.9, sigma=3.0, seed=r_ar)
    bursts = bursty_spikes(n, rate=0.03, scale=22.0, decay=0.5, seed=r_burst)
    return np.clip(base + wander + bursts, 0.0, 100.0)


def disk_io_trace(
    hours: float = 24.0,
    samples_per_hour: int = 60,
    seed: SeedLike = None,
) -> np.ndarray:
    """Disk I/O rate (MB/s) — low base rate with heavy bursts (Fig. 4)."""
    n = int(round(hours * samples_per_hour))
    if n <= 0:
        raise ConfigurationError(f"empty trace requested ({hours} h)")
    r_ar, r_burst = spawn(seed, 2)
    base = 80.0 + ar1_noise(n, phi=0.8, sigma=15.0, seed=r_ar)
    bursts = bursty_spikes(n, rate=0.015, scale=350.0, decay=0.4, seed=r_burst)
    return np.clip(base + bursts, 0.0, None)


def weekly_traffic_trace(
    days: float = 7.0,
    samples_per_day: int = 144,
    seed: SeedLike = None,
    *,
    peak_mb: float = 90.0,
) -> np.ndarray:
    """Weekly switch traffic (MB) — regular peaks/troughs (Fig. 5).

    Deliberately dominated by linear + seasonal structure so that a
    differenced ARIMA explains it well, reproducing the paper's finding
    that "classical time series model ARIMA can be a candidate solution".
    """
    n = int(round(days * samples_per_day))
    if n <= 0:
        raise ConfigurationError(f"empty trace requested ({days} d)")
    r_ar, _ = spawn(seed, 2)
    base = diurnal_pattern(
        n, samples_per_day, base=0.5, amplitude=0.42, sharpness=1.3
    )
    week = weekly_pattern(n, samples_per_day, weekend_factor=0.7)
    noise = ar1_noise(n, phi=0.6, sigma=0.03, seed=r_ar)
    series = peak_mb * (base * week + noise)
    return np.clip(series, 0.0, None)


def nonlinear_trace(
    n: int = 1000,
    seed: SeedLike = None,
    *,
    scale: float = 40.0,
    offset: float = 50.0,
) -> np.ndarray:
    """Chaotic Mackey–Glass series scaled into a traffic-like range.

    The regime where the paper reports "NARNET ... outperforms ARIMA".
    """
    mg = mackey_glass(n, seed=seed, noise_sigma=0.005)
    lo, hi = float(mg.min()), float(mg.max())
    if hi - lo < 1e-12:
        raise ConfigurationError("degenerate Mackey-Glass series")
    return offset + scale * (mg - lo) / (hi - lo)


def mixed_trace(
    n: int = 1008,
    samples_per_day: int = 144,
    seed: SeedLike = None,
) -> np.ndarray:
    """Linear-seasonal + nonlinear mixture (Fig. 8's combined-model input).

    First half of the variance comes from the weekly seasonal process,
    the rest from a chaotic component — "a dataset may contain both linear
    data and nonlinear data".
    """
    r_lin, r_nl = spawn(seed, 2)
    days = n / samples_per_day
    lin = weekly_traffic_trace(days, samples_per_day, seed=r_lin)[:n]
    nl = nonlinear_trace(n, seed=r_nl, scale=25.0, offset=0.0)
    return lin + nl


@dataclass(frozen=True)
class ZopleCloudTraces:
    """The full synthetic suite, generated together from one seed."""

    cpu: np.ndarray
    disk_io: np.ndarray
    weekly_traffic: np.ndarray
    nonlinear: np.ndarray
    mixed: np.ndarray

    @classmethod
    def generate(cls, seed: SeedLike = 2015) -> "ZopleCloudTraces":
        r = spawn(seed, 5)
        return cls(
            cpu=cpu_trace(seed=r[0]),
            disk_io=disk_io_trace(seed=r[1]),
            weekly_traffic=weekly_traffic_trace(seed=r[2]),
            nonlinear=nonlinear_trace(seed=r[3]),
            mixed=mixed_trace(seed=r[4]),
        )
