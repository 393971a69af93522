"""Naive reference forecasters.

Any prediction pipeline needs sanity floors: a sophisticated model that
cannot beat "repeat the last value" is mis-configured.  These also serve
as cheap members of the dynamic-selection pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, ForecastError
from repro.forecast.base import Forecaster

__all__ = ["NaiveLast", "SeasonalNaive"]


@dataclass
class NaiveLast(Forecaster):
    """Random-walk forecast: every horizon repeats the last observation."""

    def fit(self, y: np.ndarray) -> "NaiveLast":
        self.y_ = self._check_series(y, 1)
        self._fitted = True
        return self

    def forecast(self, h: int = 1) -> np.ndarray:
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        return np.full(h, float(self.y_[-1]))


@dataclass
class SeasonalNaive(Forecaster):
    """Forecast = observation one season ago (strong on diurnal traces)."""

    period: int = 96

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
