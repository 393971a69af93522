"""Batched fleet forecasting kernels.

A paper-scale fleet runs one forecaster per host, and every round asks
each of them for the same thing: an h-step conditional mean.  Calling
:meth:`~repro.forecast.base.Forecaster.forecast` one model at a time spends
most of the round in Python call overhead — the arithmetic per ARIMA step
is a handful of multiply-adds.

:func:`batch_forecast` takes the fleet's ``ARIMA(1, d, 0)`` forecasting
state as columns — one row per member: the constant, the AR coefficient,
the last differenced value and the ``d`` integration heads — and runs the
paper's Sec. IV-B recursion (one-step MMSE prediction, k-step values fed
back as history, Eq. (12) integration) once over all rows with
element-wise array ops.  :class:`~repro.sim.reactive.PredictiveManager`
keeps its hosts' state in exactly these columns.

Bit-identity contract: numpy element-wise arithmetic applies the same IEEE
operation per element that the scalar recursion applies per model, in the
same order — ``c + φ · w_t`` per step, exactly like
:meth:`ARIMA.forecast`, then one ``cumsum`` per differencing level exactly
like :func:`~repro.forecast.lag.undifference` — so row ``i`` is bitwise
the ``forecast(h)`` of the fitted model the row was gathered from.  The
property suite asserts this bitwise.

:func:`_solve_ar1` is the same idea for a refit: the closed-form CSS fit
of ``ARIMA(1, d, 0)`` — the stationarity wall and the mean model of a
row that is deterministic after differencing included — on every row of a
window matrix, bitwise what :meth:`ARIMA.fit` computes; every row it
cannot accept is left to the scalar fit, which stays the definition.
:class:`StackedAR1` wraps it for a refit wave: it fits the rows of one
matrix and keeps ``(c, φ, σ²)`` per row, with no model object per row.
The predictive manager refits its due hosts as one such matrix per
history length, gathered from its load matrix; the selector bank refits
each ``ARIMA`` member of its due rows as one matrix per series length,
gathered from its series matrix, and runs a row's factory only for a row
the solve refuses.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import ForecastError
from repro.forecast.arima import _RANK_RCOND, _ROOT_MARGIN, AR1_EDGE, ARIMA
from repro.forecast.base import REFIT_FAILURES

__all__ = ["StackedAR1", "batch_forecast"]


def batch_forecast(
    const: np.ndarray,
    phi: np.ndarray,
    w_last: np.ndarray,
    heads: np.ndarray,
    h: int = 1,
) -> np.ndarray:
    """h-step level forecasts of ``ARIMA(1, d, 0)`` rows, as one matrix.

    Row ``i`` is the model with constant ``const[i]``, AR coefficient
    ``phi[i]``, last differenced value ``w_last[i]`` and integration heads
    ``heads[i]`` (shape ``(rows, d)``, outermost level first, as
    ``ARIMA._heads``).  Returns ``(rows, h)``, row ``i`` bitwise that
    model's ``forecast(h)``.
    """
    if h < 1:
        raise ForecastError(f"forecast horizon must be >= 1, got {h}")
    out = np.empty((const.shape[0], h))
    w = w_last
    for k in range(h):
        w = const + phi * w  # K-STEP-AHEAD: forecast becomes history
        out[:, k] = w
    # Eq. (12) integration, innermost difference first — one cumsum per
    # level is the row-wise image of undifference()'s scalar loop
    for level in range(heads.shape[1] - 1, -1, -1):
        out = heads[:, level][:, None] + np.cumsum(out, axis=1)
    return out


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[np.dot(a[i], b[i]) for i in rows]``, bitwise.

    A stacked ``(1, T) @ (T, 1)`` product runs the same BLAS dot per row
    as ``np.dot`` of two vectors; ``np.einsum`` and ``(a * b).sum(1)``
    sum in another order and are not bitwise.  A tier-1 test guards it.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _solve_ar1(Y: np.ndarray, d: int, include_constant: bool) -> Tuple[np.ndarray, ...]:
    """The closed-form CSS fit of ``ARIMA(1, d, 0)`` on every row of *Y*.

    Returns ``(ok, c, phi, sigma2)``.  Where ``ok``, row ``i`` is what
    :meth:`ARIMA.fit` computes on ``Y[i]``: the same IEEE operations in
    the same order as ``np.std``, ``_ar_least_squares``,
    ``_solve_pure_ar`` and ``_css_residuals``, so a slope at or past the
    stationarity wall becomes the feasible edge ``±AR1_EDGE`` before ``c``
    is solved for it, and a row that is deterministic after differencing
    takes the mean model (``c`` the mean of ``∇ᵈy`` with a constant, else
    0; ``φ = σ² = 0``).  Not ``ok`` are the rows the scalar fit does not
    solve in closed form: non-finite, rank deficient, with a non-finite
    slope or a non-finite SSE.
    """
    # a rejected row may overflow or divide by zero; it is refitted scalar
    with np.errstate(all="ignore"):
        W = np.diff(Y, n=d, axis=1) if d else Y
        m = W.shape[1]
        # a fresh (rows × T) temporary costs more than the arithmetic on
        # it: one scratch buffer serves the steps below
        scratch = np.empty_like(W)
        # one non-finite value in a row of Y makes its W, and so its sum,
        # non-finite: a finite sum is the scalar fit's finiteness check (a
        # sum that overflows only sends a finite row to the scalar fit)
        total = W.sum(axis=1)
        ok = np.isfinite(total)
        mean = total / m
        # w.std() as np.std computes it
        dev = np.subtract(W, mean[:, None], out=scratch)
        np.square(dev, out=dev)
        flat = ok & (np.sqrt(dev.sum(axis=1) / m) < 1e-12)
        ok &= ~flat
        x, y = W[:, :-1], W[:, 1:]
        n = m - 1
        buf = scratch[:, :-1]
        raw = _row_dot(x, x)
        if include_constant:
            x_mean = x.sum(axis=1) / n
            xc = np.subtract(x, x_mean[:, None], out=buf)
            sxx = _row_dot(xc, xc)
        else:
            xc, sxx = x, raw
        ok &= sxx > _RANK_RCOND * _RANK_RCOND * raw
        phi = _row_dot(xc, y) / sxx
        ok &= np.isfinite(phi)
        # at or past the wall: the feasible edge nearest φ̂ (ARIMA._solve_pure_ar)
        wall = ~(np.abs(phi) < 1.0 / _ROOT_MARGIN)
        np.copysign(AR1_EDGE, phi, out=phi, where=wall)
        if include_constant:
            c = y.sum(axis=1) / n - phi * x_mean
            e = np.subtract(y, c[:, None], out=buf)
        else:
            c = np.zeros(Y.shape[0])
            e = buf
            e[...] = y  # w[1:] - 0.0 is w[1:], bit for bit
        e -= phi[:, None] * x
        sse = _row_dot(e, e)
        ok &= np.isfinite(sse)
        if flat.any():  # deterministic after differencing: the mean model
            ok |= flat
            c[flat] = mean[flat] if include_constant else 0.0
            phi[flat] = 0.0
            sse[flat] = 0.0
    return ok, c, phi, sse / n


class StackedAR1:
    """``ARIMA(1, d, 0)`` fits of the rows of one window matrix, kept as
    columns: a refit with no model object per row.

    :meth:`fit` solves the ``(rows × n)`` matrix in one closed-form pass
    (:func:`_solve_ar1`) and fits each row the pass refuses — non-finite,
    rank deficient, too short for the order — with ``scalar(i)``'s own
    ``fit``, the definition: ``scalar(i)`` is row ``i``'s unfitted
    ``ARIMA(1, d, 0)``, with a constant iff *include_constant*.  Then
    ``ok``, ``const``, ``phi`` and ``sigma2`` are per-row columns: where
    ``ok``, row ``i``'s ``(const[i], phi[i], sigma2[i])`` is bitwise
    ``scalar(i).fit(Y[i])``'s ``(const_, phi_[0], sigma2_)``; a row whose
    scalar fit raised one of :data:`~repro.forecast.base.REFIT_FAILURES`
    is not ``ok``, and ``failures[i]`` is what it raised.
    """

    __slots__ = ("scalar", "d", "include_constant", "ok", "const", "phi", "sigma2", "failures")

    def __init__(self, scalar: Callable[[int], ARIMA], d: int, include_constant: bool) -> None:
        self.scalar, self.d, self.include_constant = scalar, d, include_constant

    def fit(self, Y: np.ndarray) -> "StackedAR1":
        rows, n = Y.shape
        if n < self.d + 9:  # below ARIMA(1, d, 0)._min_samples(): scalar, and refused
            ok = np.zeros(rows, dtype=bool)
            c, phi, sigma2 = np.zeros((3, rows))
        else:
            ok, c, phi, sigma2 = _solve_ar1(Y, self.d, self.include_constant)
        self.failures: Dict[int, Exception] = {}
        for i in np.flatnonzero(~ok).tolist():
            model = self.scalar(i)
            try:
                model.fit(Y[i])
            except REFIT_FAILURES as exc:
                self.failures[i] = exc
                continue
            ok[i], c[i], phi[i], sigma2[i] = True, model.const_, model.phi_[0], model.sigma2_
        self.ok, self.const, self.phi, self.sigma2 = ok, c, phi, sigma2
        return self
