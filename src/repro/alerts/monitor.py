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

from typing import Callable, Dict, List, Sequence

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
        self.config = config
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
        row = np.asarray(profile, dtype=np.float64).ravel()
        if row.shape[0] != NUM_RESOURCES:
            raise ConfigurationError(
                f"profile row must have {NUM_RESOURCES} entries, got {row.shape[0]}"
            )
        values = [_finite(v, "observed") for v in row.tolist()]
        for sel, value in zip(self._selectors, values):
            sel.observe(value)


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
    fast = []
    for i, mon in enumerate(mons):
        if mon.config.horizon == 1:
            fast.append(i)
        else:
            values[i] = mon.alert_value()
    if fast:
        flat = batch_predict_one([sel for i in fast for sel in mons[i]._selectors])
        one = np.asarray(flat, dtype=np.float64).reshape(len(fast), NUM_RESOURCES)
        thresholds = np.asarray([mons[i].config.threshold for i in fast])
        values[fast] = compute_alerts(np.clip(one, 0.0, 1.0), thresholds)
    return values
