"""Naive reference forecasters.

Any prediction pipeline needs sanity floors: a sophisticated model that
cannot beat "repeat the last value" is mis-configured.  These also serve
as cheap members of the dynamic-selection pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError, ForecastError
from repro.forecast.base import Forecaster

__all__ = ["NaiveLast", "SeasonalNaive"]


def _quantile_band(
    mean: np.ndarray, errors: np.ndarray, alpha: float, *, scale_by_horizon: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical trailing-error band around a naive point forecast.

    The band is the ``alpha/2``/``1 - alpha/2`` quantiles of the model's
    own historical one-step errors, re-centered on the forecast; with
    *scale_by_horizon* the half-widths grow like ``sqrt(h)`` (the random
    walk's variance accumulation).  Quantiles are clipped to include the
    mean so the band always brackets its forecast.
    """
    if not (0.0 < alpha < 1.0):
        raise ForecastError(f"alpha must be in (0, 1), got {alpha}")
    if errors.shape[0] < 2:
        raise ForecastError(
            "need >= 3 observations to form trailing-error quantiles"
        )
    lo_q = float(np.quantile(errors, alpha / 2.0))
    hi_q = float(np.quantile(errors, 1.0 - alpha / 2.0))
    lo_q = min(lo_q, 0.0)
    hi_q = max(hi_q, 0.0)
    h = mean.shape[0]
    if scale_by_horizon:
        growth = np.sqrt(np.arange(1, h + 1))
    else:
        growth = np.ones(h)
    return mean, mean + lo_q * growth, mean + hi_q * growth


@dataclass
class NaiveLast(Forecaster):
    """Random-walk forecast: every horizon repeats the last observation."""

    supports_intervals = True

    def fit(self, y: np.ndarray) -> "NaiveLast":
        self.y_ = self._check_series(y, 1)
        self._fitted = True
        return self

    def forecast(self, h: int = 1) -> np.ndarray:
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        return np.full(h, float(self.y_[-1]))

    def forecast_interval(
        self, h: int = 1, alpha: float = 0.05
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Band from the quantiles of the walk's own one-step errors.

        A random walk's one-step errors are exactly ``diff(y)``; horizon-h
        half-widths scale with ``sqrt(h)``.
        """
        mean = self.forecast(h)
        return _quantile_band(
            mean, np.diff(self.y_), alpha, scale_by_horizon=True
        )


@dataclass
class SeasonalNaive(Forecaster):
    """Forecast = observation one season ago (strong on diurnal traces)."""

    period: int = 96

    supports_intervals = True

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")

    def fit(self, y: np.ndarray) -> "SeasonalNaive":
        self.y_ = self._check_series(y, self.period)
        self._fitted = True
        return self

    def forecast(self, h: int = 1) -> np.ndarray:
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        n = self.y_.shape[0]
        idx = n - self.period + np.arange(h) % self.period
        # horizons past one season wrap within the final season
        return self.y_[idx].astype(np.float64)

    def forecast_interval(
        self, h: int = 1, alpha: float = 0.05
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Band from the quantiles of the seasonal one-step errors.

        The model's historical errors are ``y[t] - y[t - period]``; a
        season-ago repeat does not accumulate variance with horizon, so
        the band width is flat in ``h``.
        """
        mean = self.forecast(h)
        if self.y_.shape[0] <= self.period + 1:
            raise ForecastError(
                "need more than one season of history for seasonal "
                "trailing-error quantiles"
            )
        errors = self.y_[self.period :] - self.y_[: -self.period]
        return _quantile_band(mean, errors, alpha, scale_by_horizon=False)
