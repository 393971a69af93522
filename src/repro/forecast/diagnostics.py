"""Residual diagnostics — the *checking* step of Box–Jenkins.

Identification and estimation (``boxjenkins``, ``arima``) are only two
thirds of the methodology; the paper's "well explains the original time
series" claim is verified by checking that the fitted model's residuals
look like the white noise ``Z_t ~ WN(0, σ²)`` they are supposed to be:

* **whiteness** — Ljung–Box portmanteau on the residual ACF;
* **zero mean** — one-sample t-test;
* **normality** — Jarque–Bera on skewness/kurtosis (Gaussian innovations
  justify the MMSE-forecast intervals);
* **homoskedasticity** — Ljung–Box on *squared* residuals (ARCH-type
  structure would invalidate constant-σ² intervals).

:func:`diagnose` bundles everything into one record with an overall
verdict at a configurable significance level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import stats

from repro.errors import ForecastError
from repro.forecast.acf import ljung_box

__all__ = ["ResidualDiagnostics", "diagnose", "jarque_bera"]


def jarque_bera(x: np.ndarray) -> tuple[float, float]:
    """Jarque–Bera statistic and p-value (χ² with 2 dof)."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    n = arr.shape[0]
    if n < 8:
        raise ForecastError(f"need >= 8 residuals for Jarque-Bera, got {n}")
    sd = arr.std()
    if sd < 1e-15:
        return 0.0, 1.0  # constant residuals: degenerate but not non-normal
    z = (arr - arr.mean()) / sd
    skew = float((z**3).mean())
    kurt = float((z**4).mean())
    jb = n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
    return float(jb), float(stats.chi2.sf(jb, 2))


@dataclass(frozen=True)
class ResidualDiagnostics:
    """All residual checks for one fitted model."""

    n: int
    mean: float
    std: float
    ljung_box_stat: float
    ljung_box_p: float
    mean_zero_p: float
    jarque_bera_stat: float
    jarque_bera_p: float
    arch_stat: float
    arch_p: float
    alpha: float

    @property
    def white(self) -> bool:
        """Residuals are uncorrelated at the chosen level."""
        return self.ljung_box_p > self.alpha

    @property
    def unbiased(self) -> bool:
        return self.mean_zero_p > self.alpha

    @property
    def normal(self) -> bool:
        return self.jarque_bera_p > self.alpha

    @property
    def adequate(self) -> bool:
        """The checks a forecaster must pass to be trusted for alerts.

        Whiteness and unbiasedness are essential (a correlated or biased
        residual means exploitable structure was left behind); normality
        and homoskedasticity only affect interval calibration, so they do
        not veto adequacy.
        """
        return self.white and self.unbiased


def diagnose(
    residuals: np.ndarray,
    *,
    fitted_params: int = 0,
    lags: Optional[int] = None,
    alpha: float = 0.05,
) -> ResidualDiagnostics:
    """Run the full diagnostic battery on a residual series.

    Parameters
    ----------
    residuals:
        In-sample one-step residuals (e.g. :meth:`ARIMA.residuals`).
    fitted_params:
        Number of estimated ARMA coefficients (adjusts the Ljung–Box
        degrees of freedom).
    lags:
        Portmanteau lags; default ``min(20, n // 5)``.
    alpha:
        Significance level for the boolean verdicts.
    """
    e = np.asarray(residuals, dtype=np.float64).ravel()
    n = e.shape[0]
    if n < 20:
        raise ForecastError(f"need >= 20 residuals to diagnose, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ForecastError(f"alpha must be in (0, 1), got {alpha}")
    if lags is None:
        lags = min(20, n // 5)
    lags = max(lags, fitted_params + 1)

    lb_stat, lb_p = ljung_box(e, lags, fitted_params=fitted_params)
    sd = e.std(ddof=1)
    if sd < 1e-15:
        t_p = 1.0
    else:
        t = e.mean() / (sd / np.sqrt(n))
        t_p = float(2.0 * stats.t.sf(abs(t), n - 1))
    jb_stat, jb_p = jarque_bera(e)
    e2 = e**2
    if e2.std() < 1e-15:
        arch_stat, arch_p = 0.0, 1.0
    else:
        arch_stat, arch_p = ljung_box(e2, lags)
    return ResidualDiagnostics(
        n=n,
        mean=float(e.mean()),
        std=float(sd),
        ljung_box_stat=lb_stat,
        ljung_box_p=lb_p,
        mean_zero_p=t_p,
        jarque_bera_stat=jb_stat,
        jarque_bera_p=jb_p,
        arch_stat=arch_stat,
        arch_p=arch_p,
        alpha=alpha,
    )
