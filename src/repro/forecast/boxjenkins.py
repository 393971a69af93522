"""Box–Jenkins order selection (Sec. IV-B / VI-A).

"We can use Box-Jenkins method to specify the parameters of ARIMA model"
— identification (choose ``d`` by stationarity), estimation (CSS fit for
every ``(p, q)`` of the ``max_p`` × ``max_q`` grid), and selection
(minimum AIC), returning the winning fitted model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConvergenceError, ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.stationarity import choose_difference_order

__all__ = ["BoxJenkinsResult", "select_arima_order"]


@dataclass(frozen=True)
class BoxJenkinsResult:
    """Outcome of an order search."""

    order: Tuple[int, int, int]
    model: ARIMA
    aic: float
    candidates: List[Tuple[Tuple[int, int, int], float]]
    """Every ``((p, d, q), aic)`` pair evaluated, sorted by AIC."""


def select_arima_order(
    y: np.ndarray,
    *,
    max_p: int = 3,
    max_q: int = 3,
    d: Optional[int] = None,
    max_d: int = 2,
    include_constant: bool = True,
) -> BoxJenkinsResult:
    """Grid-search ARIMA orders by AIC with ``d`` fixed first.

    Fixing ``d`` before comparing AICs keeps likelihoods comparable (models
    with different ``d`` are fit to different data).  ``d=None`` lets the
    stationarity heuristic choose.
    """
    arr = np.asarray(y, dtype=np.float64).ravel()
    if max_p < 0 or max_q < 0:
        raise ForecastError(f"max_p/max_q must be non-negative, got {max_p}/{max_q}")
    if max_p == 0 and max_q == 0:
        raise ForecastError("grid contains only the degenerate (0, d, 0) model")
    if d is None:
        d = choose_difference_order(arr, max_d)

    scored: List[Tuple[Tuple[int, int, int], float]] = []
    best: Optional[ARIMA] = None
    best_aic = np.inf
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if p == 0 and q == 0:
                continue
            model = ARIMA(p, d, q, include_constant=include_constant)
            try:
                model.fit(arr)
                a = model.aic()
            except (ConvergenceError, ForecastError, np.linalg.LinAlgError):
                continue
            if not np.isfinite(a):
                continue
            scored.append(((p, d, q), float(a)))
            if a < best_aic:
                best_aic = float(a)
                best = model
    if best is None:
        raise ConvergenceError("no ARIMA candidate converged on this series")
    scored.sort(key=lambda t: t[1])
    return BoxJenkinsResult(
        order=(best.p, best.d, best.q),
        model=best,
        aic=best_aic,
        candidates=scored,
    )
