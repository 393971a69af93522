"""Seasonal ARIMA — ARIMA over a seasonally differenced series.

Box–Jenkins identification differences a series "to remove periodicity
and trends" (Sec. IV-B).  For strongly periodic DCN traffic the plain
lag-1 difference leaves the daily cycle in place; the standard remedy is
the seasonal difference ``∇_s Y_t = Y_t - Y_{t-s}`` (optionally combined
with regular differencing), after which a low-order ARMA explains the
remainder.

:class:`SeasonalARIMA` implements the ``SARIMA(p, d, q) x (D)_s`` subset
that matters here: ``D`` seasonal differences of period ``s`` applied
first, then a standard :class:`~repro.forecast.arima.ARIMA` (p, d, q) on
the result.  Forecasts are integrated back through both differencing
layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError, ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.base import Forecaster

__all__ = ["SeasonalARIMA", "seasonal_difference", "seasonal_undifference"]


def seasonal_difference(y: np.ndarray, period: int, order: int = 1) -> np.ndarray:
    """Apply ``∇_s^D``: result has length ``len(y) - D * s``."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if period < 2:
        raise ForecastError(f"seasonal period must be >= 2, got {period}")
    if order < 0:
        raise ForecastError(f"seasonal order must be non-negative, got {order}")
    for _ in range(order):
        if arr.shape[0] <= period:
            raise ForecastError(
                f"series too short for seasonal differencing at period {period}"
            )
        arr = arr[period:] - arr[:-period]
    return arr


def seasonal_undifference(
    forecasts: np.ndarray, tails: List[np.ndarray], period: int
) -> np.ndarray:
    """Invert ``∇_s^D`` for h-step forecasts.

    ``tails[j]`` holds the final ``period`` values of the series at
    seasonal-differencing level ``j`` (outermost first), produced during
    :meth:`SeasonalARIMA.fit`.  Horizons beyond one period chain onto the
    already-integrated forecasts, exactly like the regular integration.
    """
    out = np.asarray(forecasts, dtype=np.float64).copy()
    for tail in reversed(tails):
        if tail.shape[0] != period:
            raise ForecastError(
                f"tail must hold {period} values, got {tail.shape[0]}"
            )
        merged = np.concatenate([tail, np.empty_like(out)])
        for k in range(out.shape[0]):
            merged[period + k] = out[k] + merged[k]
        out = merged[period:]
    return out


@dataclass
class SeasonalARIMA(Forecaster):
    """ARIMA on a seasonally differenced series.

    Parameters
    ----------
    p, d, q:
        Non-seasonal orders of the inner ARIMA.
    period:
        Season length ``s`` in samples (e.g. 144 for daily cycles at
        10-minute sampling).
    seasonal_order:
        ``D`` — how many times to apply ``∇_s`` before the inner model.
    """

    p: int = 1
    d: int = 0
    q: int = 1
    period: int = 144
    seasonal_order: int = 1
    include_constant: bool = True

    _inner: ARIMA = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    _tails: List[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.period < 2:
            raise ConfigurationError(f"period must be >= 2, got {self.period}")
        if self.seasonal_order < 0:
            raise ConfigurationError(
                f"seasonal_order must be non-negative, got {self.seasonal_order}"
            )

    def _min_samples(self) -> int:
        return self.seasonal_order * self.period + self.d + self.p + self.q + 10

    def fit(self, y: np.ndarray) -> "SeasonalARIMA":
        arr = self._check_series(y, self._min_samples())
        self._tails = []
        work = arr
        for _ in range(self.seasonal_order):
            self._tails.append(work[-self.period :].copy())
            work = seasonal_difference(work, self.period, 1)
        self._inner = ARIMA(
            self.p, self.d, self.q, include_constant=self.include_constant
        ).fit(work)
        self.y_ = arr
        self._fitted = True
        return self

    def forecast(self, h: int = 1) -> np.ndarray:
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        inner = self._inner.forecast(h)
        if self.seasonal_order == 0:
            return inner
        return seasonal_undifference(inner, self._tails, self.period)

    def append(self, value: float) -> None:
        work_value = self._push(value)
        # shift the fixed-length differencing tails, feed the inner model
        new_tails: List[np.ndarray] = []
        for tail in self._tails:
            diffed = work_value - float(tail[0])
            new_tails.append(np.append(tail[1:], work_value))
            work_value = diffed
        self._tails = new_tails
        self._inner.append(work_value)

    def aic(self) -> float:
        """AIC of the inner model (comparable at fixed seasonal spec)."""
        self._require_fitted()
        return self._inner.aic()

    def __repr__(self) -> str:
        tag = "fitted" if self._fitted else "unfitted"
        return (
            f"SeasonalARIMA(({self.p},{self.d},{self.q})x"
            f"(D={self.seasonal_order})_{self.period})[{tag}]"
        )
