"""Autocorrelation diagnostics used by Box–Jenkins identification.

* :func:`acf` — sample autocorrelation, FFT-based (O(n log n));
* :func:`ljung_box` — portmanteau whiteness statistic for residual checks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import stats

from repro.errors import ForecastError

__all__ = ["acf", "ljung_box"]


def acf(y: np.ndarray, nlags: int) -> np.ndarray:
    """Sample ACF at lags ``0..nlags`` (biased estimator, FFT-computed)."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    n = arr.shape[0]
    if nlags < 0:
        raise ForecastError(f"nlags must be non-negative, got {nlags}")
    if n <= nlags:
        raise ForecastError(f"series of length {n} too short for {nlags} lags")
    x = arr - arr.mean()
    var = np.dot(x, x)
    if var <= 0:
        raise ForecastError("constant series has no autocorrelation structure")
    # autocovariance via FFT: pad to avoid circular wrap
    nfft = int(2 ** np.ceil(np.log2(2 * n - 1)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[: nlags + 1].real
    return acov / var


def ljung_box(residuals: np.ndarray, lags: int, fitted_params: int = 0) -> Tuple[float, float]:
    """Ljung–Box Q statistic and p-value on *residuals*.

    ``fitted_params`` reduces the χ² degrees of freedom by the number of
    estimated ARMA coefficients, per standard practice.
    """
    arr = np.asarray(residuals, dtype=np.float64).ravel()
    n = arr.shape[0]
    if lags < 1:
        raise ForecastError(f"lags must be >= 1, got {lags}")
    if lags <= fitted_params:
        raise ForecastError(
            f"lags ({lags}) must exceed fitted_params ({fitted_params})"
        )
    r = acf(arr, lags)[1:]
    k = np.arange(1, lags + 1)
    q = n * (n + 2) * np.sum(r**2 / (n - k))
    dof = lags - fitted_params
    pval = float(stats.chi2.sf(q, dof))
    return float(q), pval
