"""Time-series forecasting: ARIMA, NARNET and dynamic model selection.

Implements Sec. IV of the paper from scratch on numpy/scipy:

* :mod:`~repro.forecast.arima` — ARIMA(p, d, q) with conditional-sum-of-
  squares estimation and recursive MMSE h-step forecasts (Eq. 12);
* :mod:`~repro.forecast.boxjenkins` — Box–Jenkins order selection
  (difference to stationarity, AIC grid over (p, q));
* :mod:`~repro.forecast.narnet` — nonlinear autoregressive neural network
  (Eq. 13) with analytic-gradient L-BFGS training;
* :mod:`~repro.forecast.selection` — the dynamic model selector that picks,
  per step, the model with minimum trailing MSE over period ``T_p``
  (Eq. 14).
"""

from repro.forecast.base import Forecaster
from repro.forecast.lag import difference, lag_matrix, undifference
from repro.forecast.acf import acf, ljung_box
from repro.forecast.stationarity import choose_difference_order, is_stationary
from repro.forecast.arima import ARIMA
from repro.forecast.boxjenkins import BoxJenkinsResult, select_arima_order
from repro.forecast.narnet import NARNET
from repro.forecast.naive import NaiveLast, SeasonalNaive
from repro.forecast.sarima import SeasonalARIMA, seasonal_difference, seasonal_undifference
from repro.forecast.selection import DynamicModelSelector, rolling_one_step
from repro.forecast.metrics import mae, mape, mse, rmse
from repro.forecast.evaluation import BacktestResult, backtest, compare_models, horizon_curve
from repro.forecast.diagnostics import ResidualDiagnostics, diagnose, jarque_bera

__all__ = [
    "Forecaster",
    "difference",
    "undifference",
    "lag_matrix",
    "acf",
    "ljung_box",
    "choose_difference_order",
    "is_stationary",
    "ARIMA",
    "select_arima_order",
    "BoxJenkinsResult",
    "NARNET",
    "NaiveLast",
    "SeasonalARIMA",
    "seasonal_difference",
    "seasonal_undifference",
    "SeasonalNaive",
    "DynamicModelSelector",
    "rolling_one_step",
    "mse",
    "rmse",
    "mae",
    "mape",
    "BacktestResult",
    "backtest",
    "horizon_curve",
    "compare_models",
    "ResidualDiagnostics",
    "diagnose",
    "jarque_bera",
]
