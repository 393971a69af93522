"""Structured forecast backtesting.

The Figs. 6–8 benchmarks and the monitors all evaluate forecasters the
same way: walk forward over a series, optionally at several horizons,
and score each model.  This module makes that a first-class API:

* :func:`backtest` — walk-forward evaluation of one model at one horizon
  with a full per-step record;
* :func:`horizon_curve` — accuracy as a function of lead time (the
  K-STEP-AHEAD degradation the paper's pre-alert horizon trades against);
* :func:`compare_models` — one call scoring a whole model zoo on a
  series, returning a ranked table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.errors import ForecastError
from repro.forecast.base import Forecaster
from repro.forecast.metrics import mae, mse, rmse

__all__ = ["BacktestResult", "backtest", "horizon_curve", "compare_models"]

ForecasterFactory = Callable[[], Forecaster]


@dataclass(frozen=True)
class BacktestResult:
    """Outcome of one walk-forward evaluation."""

    horizon: int
    predictions: np.ndarray
    actuals: np.ndarray
    errors: np.ndarray

    @property
    def mse(self) -> float:
        return mse(self.actuals, self.predictions)

    @property
    def rmse(self) -> float:
        return rmse(self.actuals, self.predictions)

    @property
    def mae(self) -> float:
        return mae(self.actuals, self.predictions)

    @property
    def bias(self) -> float:
        """Mean signed error (actual − predicted)."""
        return float(self.errors.mean())


def backtest(
    factory: ForecasterFactory,
    y: np.ndarray,
    train_len: int,
    *,
    horizon: int = 1,
    refit_every: int = 50,
    stride: int = 1,
) -> BacktestResult:
    """Walk-forward evaluation at a fixed *horizon*.

    At each origin ``t`` (every *stride* steps from ``train_len`` to
    ``n - horizon``), the model fit on ``y[:t]`` forecasts ``y[t + horizon
    - 1]``; the model then absorbs observations up to the next origin via
    ``append`` and refits from scratch on ``y[:t]`` every *refit_every*
    origins.
    """
    arr = np.asarray(y, dtype=np.float64).ravel()
    n = arr.shape[0]
    if not (0 < train_len < n):
        raise ForecastError(f"train_len must be in 1..{n - 1}, got {train_len}")
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    if stride < 1:
        raise ForecastError(f"stride must be >= 1, got {stride}")
    if refit_every < 1:
        raise ForecastError(f"refit_every must be >= 1, got {refit_every}")
    origins = list(range(train_len, n - horizon + 1, stride))
    if not origins:
        raise ForecastError(
            f"no evaluation origins: series length {n}, train {train_len}, "
            f"horizon {horizon}"
        )

    model = factory()
    model.fit(arr[: origins[0]])
    fitted_upto = origins[0]
    since_fit = 0
    preds = np.empty(len(origins))
    actuals = np.empty(len(origins))
    for i, t in enumerate(origins):
        if since_fit >= refit_every:
            model = factory()
            model.fit(arr[:t])
            fitted_upto = t
            since_fit = 0
        else:
            while fitted_upto < t:
                model.append(float(arr[fitted_upto]))
                fitted_upto += 1
        preds[i] = model.forecast(horizon)[horizon - 1]
        actuals[i] = arr[t + horizon - 1]
        since_fit += 1
    return BacktestResult(
        horizon=horizon,
        predictions=preds,
        actuals=actuals,
        errors=actuals - preds,
    )


def horizon_curve(
    factory: ForecasterFactory,
    y: np.ndarray,
    train_len: int,
    horizons: Sequence[int],
    **kwargs,
) -> Dict[int, BacktestResult]:
    """Backtest the same model at several horizons (lead-time curve)."""
    if not horizons:
        raise ForecastError("need at least one horizon")
    return {
        int(h): backtest(factory, y, train_len, horizon=int(h), **kwargs)
        for h in horizons
    }


def compare_models(
    factories: Dict[str, ForecasterFactory],
    y: np.ndarray,
    train_len: int,
    *,
    horizon: int = 1,
    **kwargs,
) -> List[Dict[str, float]]:
    """Score a model zoo on one series; rows sorted by MSE ascending."""
    if not factories:
        raise ForecastError("need at least one model factory")
    rows: List[Dict[str, float]] = []
    for name, factory in factories.items():
        res = backtest(factory, y, train_len, horizon=horizon, **kwargs)
        rows.append(
            {
                "model": name,  # type: ignore[dict-item]
                "mse": res.mse,
                "rmse": res.rmse,
                "mae": res.mae,
                "bias": res.bias,
            }
        )
    rows.sort(key=lambda r: r["mse"])
    return rows
