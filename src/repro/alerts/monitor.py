"""Per-VM monitoring and prediction (Sec. IV-A/B).

Each VM's "local computing device" periodically samples the workload
profile ``[CPU, MEM, IO, TRF]``, feeds one forecaster per component, and
reports ``ALERT = max(predicted W)`` to its shim when the prediction
crosses the threshold.

Every monitor runs the light pool (naive + small ARIMA), which keeps
thousand-VM sweeps fast; the paper's full ARIMA+NARNET pool is
:func:`default_model_pool`.
"""

from __future__ import annotations

from math import isfinite
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.alerts.alert import compute_alert, compute_alerts
from repro.alerts.threshold import AlertConfig
from repro.cluster.resources import NUM_RESOURCES
from repro.errors import ConfigurationError
from repro.forecast.arima import ARIMA
from repro.forecast.base import _finite
from repro.forecast.naive import NaiveLast
from repro.forecast.narnet import NARNET
from repro.forecast.selection import DynamicModelSelector

__all__ = [
    "default_model_pool",
    "light_model_pool",
    "VMMonitor",
    "fleet_alert_values",
]


def default_model_pool() -> Dict[str, Callable[[], object]]:
    """The paper's four-predictor example pool: two ARIMA + two NARNET."""
    return {
        "arima111": lambda: ARIMA(1, 1, 1),
        "arima212": lambda: ARIMA(2, 1, 2),
        "narnet8x10": lambda: NARNET(ni=8, nh=10, restarts=1, seed=11, maxiter=120),
        "narnet12x20": lambda: NARNET(ni=12, nh=20, restarts=1, seed=13, maxiter=120),
    }


def light_model_pool() -> Dict[str, Callable[[], object]]:
    """Cheap pool for fleet-scale simulation (naive + one small ARIMA)."""
    return {
        "arima110": lambda: ARIMA(1, 1, 0, maxiter=40),
        "naive": lambda: NaiveLast(),
    }


#: Each component selector's tuning: the Eq. (14) window ``T_p``, the refit
#: cadence and the bounded history a refit reads.
PERIOD = 20
REFIT_EVERY = 40
MAX_HISTORY = 240


class VMMonitor:
    """Forecast-driven alert source for one VM.

    Parameters
    ----------
    history:
        ``(t0, NUM_RESOURCES)`` normalized profile history used for the
        initial fit; must have at least 16 rows.
    config:
        Thresholds and horizon.

    Each resource component gets a :class:`DynamicModelSelector` over
    :func:`light_model_pool`, tuned by :data:`PERIOD`, :data:`REFIT_EVERY`
    and :data:`MAX_HISTORY`.
    """

    def __init__(
        self,
        history: np.ndarray,
        config: AlertConfig,
    ) -> None:
        hist = np.asarray(history, dtype=np.float64)
        if hist.ndim != 2 or hist.shape[1] != NUM_RESOURCES:
            raise ConfigurationError(
                f"history must be (t, {NUM_RESOURCES}), got {hist.shape}"
            )
        if hist.shape[0] < 16:
            raise ConfigurationError(
                f"need >= 16 history rows to initialize monitors, got {hist.shape[0]}"
            )
        self._config = config
        # the last fleet read this monitor came first in (fleet_alert_values)
        self._fleet: Optional[_MonitorFleet] = None
        self._selectors: List[DynamicModelSelector] = []
        for r in range(NUM_RESOURCES):
            sel = DynamicModelSelector(
                light_model_pool(),
                period=PERIOD,
                refit_every=REFIT_EVERY,
                max_history=MAX_HISTORY,
            )
            sel.fit(hist[:, r])
            self._selectors.append(sel)

    @property
    def config(self) -> AlertConfig:
        """Thresholds and horizon, fixed at construction."""
        return self._config

    def predicted_profile(self) -> np.ndarray:
        """T-seconds-ahead profile prediction (horizon steps ahead)."""
        h = self.config.horizon
        out = np.empty(NUM_RESOURCES)
        for r, sel in enumerate(self._selectors):
            out[r] = sel.forecast(h)[h - 1]
        return np.clip(out, 0.0, 1.0)

    def alert_value(self) -> float:
        """ALERT magnitude from the current prediction (0 = no alert).

        Must be called *before* :meth:`observe` for the round so the
        prediction genuinely precedes the observation.
        """
        # One-step pool bookkeeping: predict_one caches every member's
        # prediction so observe() can score the pool.
        one_step = np.empty(NUM_RESOURCES)
        for r, sel in enumerate(self._selectors):
            one_step[r] = sel.predict_one()
        if self.config.horizon == 1:
            # the cached one-step predictions ARE the alert input
            profile = np.clip(one_step, 0.0, 1.0)
        else:
            profile = self.predicted_profile()
        return compute_alert(profile, self.config.threshold)

    def observe(self, profile: np.ndarray) -> None:
        """Feed the realized profile row for this round, all or nothing.

        The whole row is checked before any selector sees it: a bad
        component raises with all four series still in step.
        """
        values = np.asarray(profile, dtype=np.float64).ravel().tolist()
        if len(values) != NUM_RESOURCES:
            raise ConfigurationError(
                f"profile row must have {NUM_RESOURCES} entries, got {len(values)}"
            )
        # one pass: a finite sum has no NaN or inf; the per-value check
        # names the bad one (a sum that overflows only takes that path)
        if not isfinite(sum(values)):
            for v in values:
                _finite(v, "observed")
        for sel, value in zip(self._selectors, values):
            sel.observe(value)


class _MonitorFleet:
    """One fleet's read plan for :func:`fleet_alert_values`.

    Built from the monitors alone — a monitor's config and selectors are
    fixed at construction — and kept on the first monitor while the fleet
    is the same monitors in the same order: which monitors are one-step,
    their selectors in one list and their thresholds.  Which of those
    selectors sit in which bank is
    :func:`~repro.forecast.selection.batch_predict_one`'s to decide.
    """

    def __init__(self, monitors: List["VMMonitor"]) -> None:
        self.monitors = monitors
        self.fast: List[int] = []
        self.slow: List[int] = []
        self.selectors: List[DynamicModelSelector] = []
        thresholds = []
        for i, mon in enumerate(monitors):
            config = mon.config
            if config.horizon == 1:
                self.fast.append(i)
                self.selectors += mon._selectors
                thresholds.append(config.threshold)
            else:
                self.slow.append(i)
        self.thresholds = np.asarray(thresholds)


def fleet_alert_values(monitors: Sequence[VMMonitor]) -> np.ndarray:
    """``[m.alert_value() for m in monitors]``, the one-step fleet as arrays.

    Monitors with ``horizon == 1`` — whose ALERT is the clipped row of
    one-step predictions — are read as one fleet: their selectors go
    through :func:`~repro.forecast.selection.batch_predict_one` (one
    selector bank across the *whole* fleet) and the ALERT threshold gate
    runs over the resulting profile matrix in one vectorized pass.  Every
    other monitor takes :meth:`VMMonitor.alert_value`, so no fleet read
    passes a banked selector through the scalar path.  Values and selector
    side effects are byte-identical to calling :meth:`VMMonitor.alert_value`
    per monitor.
    """
    from repro.forecast.selection import batch_predict_one

    mons = list(monitors)
    values = np.empty(len(mons))
    if not mons:
        return values
    fleet = mons[0]._fleet
    if fleet is None or fleet.monitors != mons:
        fleet = mons[0]._fleet = _MonitorFleet(mons)
    for i in fleet.slow:
        values[i] = mons[i].alert_value()
    if fleet.fast:
        one = batch_predict_one(fleet.selectors)
        values[fleet.fast] = compute_alerts(
            one.reshape(len(fleet.fast), NUM_RESOURCES), fleet.thresholds
        )
    return values
