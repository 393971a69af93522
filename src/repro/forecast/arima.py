"""ARIMA(p, d, q) with conditional-sum-of-squares estimation.

The model on the ``d``-times-differenced series ``w_t = ∇^d Y_t`` is

    ``w_t = c + Σ_{i<=p} φ_i w_{t-i} + e_t + Σ_{j<=q} θ_j e_{t-j}``,
    ``e_t ~ WN(0, σ²)``  (the paper's ``φ(L) ∇^d Y_t = θ(L) Z_t``).

Estimation minimizes the conditional sum of squared innovations (CSS):
residuals are produced by one vectorized AR term plus a single
``scipy.signal.lfilter`` pass for the MA inversion — no per-sample Python
loop, per the HPC guide.  With ``q = 0`` the objective is linear least
squares in ``(c, φ)`` and is solved exactly (:func:`_ar_least_squares`).
For one lag a slope at or past the stationarity wall ``1/_ROOT_MARGIN``
is solved exactly too: the objective is a convex quadratic, so the
walled minimum is the feasible edge :data:`AR1_EDGE` with ``c`` re-solved
for it.  With ``q >= 1``, or when the exact solution is rank deficient,
not finite, or (``p >= 2``) on the wall, L-BFGS-B minimizes it, and
stationarity and invertibility are kept by a sloped wall added to the
CSS objective.

Forecasting follows the paper's Sec. IV-B exactly: minimum-MSE one-step
prediction, k-step values computed "recursively using the one-step-ahead
value as the historical data", then integrated back to the level scale
(Eq. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import copysign, isfinite
from typing import List, Optional, Tuple

import numpy as np
from scipy import optimize, signal

from repro.errors import ConfigurationError, ConvergenceError, ForecastError
from repro.forecast.base import Forecaster, _Series
from repro.forecast.lag import difference, difference_heads, undifference

__all__ = ["ARIMA"]

_ROOT_PENALTY = 1e4
_ROOT_MARGIN = 1.001
AR1_EDGE = float(np.nextafter(1.0 / _ROOT_MARGIN, 0.0))
"""The feasible AR(1) coefficient nearest the wall: the largest |φ| below
``1/_ROOT_MARGIN``."""
# singular values of the lag design below this fraction of the largest
# count as zero: such a fit is left to the iterative path
_RANK_RCOND = 1e-6


def _css_residuals_ref(
    w: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Conditional residuals of an ARMA(p, q) on *w* (first p samples condition).

    Vectorized: the AR part is a correlation, the MA inversion is an IIR
    filter with zero initial state (the CSS convention ``e_t = 0, t <= p``).
    General-order reference: :func:`_css_residuals` shortcuts the common
    low orders and the property suite asserts bitwise agreement with this.
    """
    p = phi.shape[0]
    q = theta.shape[0]
    m = w.shape[0]
    if m <= p:
        raise ForecastError(f"need more than p={p} differenced samples, got {m}")
    z = w[p:] - c
    if p:
        # AR contribution for t = p..m-1: Σ_i phi_i * w_{t-i}
        ar = signal.lfilter(np.concatenate(([0.0], phi)), [1.0], w)[p:]
        z = z - ar
    if q:
        e = signal.lfilter([1.0], np.concatenate(([1.0], theta)), z)
    else:
        e = z
    return e


def _css_residuals(
    w: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """CSS residuals; fast path for ``p <= 1`` (the fleet-monitor orders).

    For a single AR lag the FIR "filter" is one scalar-vector product —
    dispatching it through ``lfilter`` costs two orders of magnitude more
    than the arithmetic itself and dominates paper-scale managed runs.
    The product performs the same multiply-add per sample, so residuals
    are bit-identical to the reference path.
    """
    p = phi.shape[0]
    if p > 1:
        return _css_residuals_ref(w, c, phi, theta)
    m = w.shape[0]
    if m <= p:
        raise ForecastError(f"need more than p={p} differenced samples, got {m}")
    z = w[p:] - c
    if p:
        z = z - phi[0] * w[:-1]
    if theta.shape[0]:
        e = signal.lfilter([1.0], np.concatenate(([1.0], theta)), z)
    else:
        e = z
    return e


def _max_inverse_root_ref(coeffs: np.ndarray, kind: str) -> float:
    """Largest modulus of the inverse roots of ``1 - Σ c_i z^i`` (AR) or
    ``1 + Σ c_i z^i`` (MA).  Stationary/invertible iff < 1.  General-order
    reference for :func:`_max_inverse_root`."""
    if coeffs.shape[0] == 0:
        return 0.0
    sign = -1.0 if kind == "ar" else 1.0
    poly = np.concatenate(([1.0], sign * coeffs))
    # poly holds ascending powers of z; interpreting the same array as a
    # descending-power polynomial gives z^p * poly(1/z), whose roots are
    # exactly the inverse roots we want.
    inv = np.roots(poly)
    if inv.size == 0:
        return 0.0
    return float(np.abs(inv).max())


def _max_inverse_root(coeffs: np.ndarray, kind: str) -> float:
    """Largest inverse-root modulus; closed form for orders 0 and 1.

    The degree-1 polynomial ``1 ∓ c z`` has the single inverse root
    ``±c``, so its modulus is ``|c|`` — the eigenvalue route through
    ``np.roots`` returns exactly that value (the 1×1 companion matrix's
    only entry), just ~50× slower.  This sits inside the CSS objective,
    so it runs twice per optimizer evaluation.

    Exception: below LAPACK's scaling threshold (|c| < sqrt(safmin)/eps,
    ~6.7e-139) dgeev rescales the matrix and may round the last ULP, so
    ``np.roots`` is 1 ULP off the exact ``|c|`` there.  Every consumer
    only compares the result against thresholds near 1, so the closed
    form (which is exact) changes no fit at any magnitude.
    """
    n = coeffs.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(abs(coeffs[0]))
    return _max_inverse_root_ref(coeffs, kind)


def _ar_least_squares(
    w: np.ndarray, p: int, include_constant: bool
) -> Optional[Tuple[float, np.ndarray]]:
    """Exact CSS minimiser ``(c, φ)`` of a pure AR(p) on *w*, ``p >= 1``.

    With no MA term the CSS objective ``Σ_t (w_t − c − Σ_i φ_i w_{t−i})²``
    is ordinary least squares of ``w[p:]`` on its own lags.  Returns
    ``None`` when the lag design is numerically rank deficient — the
    caller then minimises iteratively, as it does for ``q >= 1``.

    One lag (the fleet-monitor order) needs only dot products: the slope
    of ``w[1:]`` on the (centred, when there is a constant) lag column.
    Higher orders go through the SVD solver, which reports the rank.
    """
    m = w.shape[0]
    y = w[p:]
    if p == 1:
        x = w[:-1]
        n = m - 1
        raw = float(np.dot(x, x))
        if include_constant:
            x_mean = float(x.sum()) / n
            x = x - x_mean
            sxx = float(np.dot(x, x))
        else:
            sxx = raw
        # squared, because these are squared column norms
        if not sxx > _RANK_RCOND * _RANK_RCOND * raw:
            return None
        phi = float(np.dot(x, y)) / sxx
        c = float(y.sum()) / n - phi * x_mean if include_constant else 0.0
        return c, np.array([phi])
    cols = [w[p - i : m - i] for i in range(1, p + 1)]
    if include_constant:
        cols.insert(0, np.ones(m - p))
    beta, _, rank, _ = np.linalg.lstsq(np.column_stack(cols), y, rcond=_RANK_RCOND)
    if rank < len(cols):
        return None
    if include_constant:
        return float(beta[0]), beta[1:]
    return 0.0, beta


@dataclass
class ARIMA(Forecaster):
    """ARIMA(p, d, q) forecaster.

    Pure-AR orders (``q == 0``) are fitted in closed form — the CSS
    objective is then linear least squares — at a cost that does not
    depend on ``maxiter``; see :meth:`fit` for when the iterative path
    still runs.

    Parameters
    ----------
    p, d, q:
        Autoregressive order, differencing order, moving-average order.
    include_constant:
        Estimate the drift/intercept ``c`` on the differenced scale.
    maxiter:
        L-BFGS iteration budget for the iterative CSS optimization.
    """

    p: int = 1
    d: int = 1
    q: int = 1
    include_constant: bool = True
    maxiter: int = 200

    # fitted state (populated by :meth:`fit`)
    const_: float = field(default=0.0, init=False, repr=False)
    phi_: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    theta_: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    sigma2_: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise ConfigurationError(
                f"ARIMA orders must be non-negative, got ({self.p}, {self.d}, {self.q})"
            )
        if self.maxiter < 1:
            raise ConfigurationError(f"maxiter must be >= 1, got {self.maxiter}")

    # ------------------------------------------------------------------ #
    # estimation
    # ------------------------------------------------------------------ #
    @property
    def num_params(self) -> int:
        return self.p + self.q + (1 if self.include_constant else 0)

    def _min_samples(self) -> int:
        return self.d + max(self.p + self.q + 2, 8) + self.p

    def fit(self, y: np.ndarray) -> "ARIMA":
        """Estimate by CSS.

        A pure-AR model (``q == 0``, ``p >= 1``) takes the exact
        least-squares minimiser whenever the lag design has full rank, the
        SSE is finite and the solution lies strictly inside the
        stationarity wall.  With one lag, a finite slope at or past the
        wall takes the feasible edge ``±AR1_EDGE`` and the ``c`` that
        minimises the CSS for it: the exact walled minimum.  Everything
        else — ``q >= 1``, a rank-deficient lag design, a non-finite slope
        or SSE, ``p >= 2`` on the wall — is minimised by L-BFGS-B from the
        Hannan–Rissanen initialization.
        """
        arr = self._check_series(y, self._min_samples())
        w = difference(arr, self.d)
        if w.std() < 1e-12:
            # perfectly deterministic after differencing: mean model
            c = float(w.mean()) if self.include_constant else 0.0
            phi, theta = np.zeros(self.p), np.zeros(self.q)
            e = _css_residuals(w, c, phi, theta)
            sigma2 = 0.0
        else:
            solved = self._solve_pure_ar(w) if self.q == 0 and self.p else None
            c, phi, theta, e = solved or self._minimize_css(w)
            sigma2 = float(np.dot(e, e) / max(e.shape[0], 1))
        self._install(
            _Series(arr), c, phi, theta, sigma2,
            [float(x) for x in w[-self.p :]] if self.p else [],
            [float(x) for x in e[-self.q :]] if self.q else [],
            # level j's last value depends on the last j + 1 samples only
            difference_heads(arr[-self.d - 1 :], self.d),
        )
        return self

    def _install(
        self,
        series: _Series,
        c: float,
        phi: np.ndarray,
        theta: np.ndarray,
        sigma2: float,
        w_tail: List[float],
        e_tail: List[float],
        heads: List[float],
    ) -> None:
        """Set every fitted field: :meth:`fit` ends here, and so does a
        member a bank row is taken back into
        (:meth:`repro.forecast.selection.SelectorBank._restore` builds it
        from its factory and installs the row's columns).

        Besides the parameters, this is the O(p + q + d) forecasting
        state: the last ``p`` differenced values, the last ``q`` residuals
        and the integration heads.  :meth:`append` advances it
        incrementally, so each monitor tick is O(1) in the history length
        instead of a re-filter of the whole series (the fleet-scale hot
        path).  The caller hands over a series, lists and arrays of its
        own: *series*, *heads* and the tails are updated in place by
        :meth:`append`.
        """
        self.const_, self.phi_, self.theta_ = c, phi, theta
        self.sigma2_ = sigma2
        self._series = series
        self._w_tail = w_tail
        self._e_tail = e_tail
        self._heads = heads
        self._fitted = True

    def _solve_pure_ar(
        self, w: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """``(c, φ, θ, e)`` of the exact walled minimiser, when it can be
        accepted: full-rank design, finite SSE, and the largest inverse
        root strictly inside the wall the iterative objective enforces —
        for ``p == 1`` after moving a finite slope past it to the edge."""
        solved = _ar_least_squares(w, self.p, self.include_constant)
        if solved is None:
            return None
        c, phi = solved
        if not _max_inverse_root(phi, "ar") < 1.0 / _ROOT_MARGIN:
            if self.p > 1 or not isfinite(phi[0]):
                return None
            # one lag: CSS is a convex quadratic in (c, φ), so the walled
            # minimum is the feasible edge nearest φ̂, with c re-solved for it
            edge = copysign(AR1_EDGE, phi[0])
            phi = np.array([edge])
            if self.include_constant:
                n = w.shape[0] - 1
                c = float(w[1:].sum()) / n - edge * (float(w[:-1].sum()) / n)
        theta = np.zeros(0)
        e = _css_residuals(w, c, phi, theta)
        if not np.isfinite(np.dot(e, e)):
            return None
        return c, phi, theta, e

    def _minimize_css(
        self, w: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """``(c, φ, θ, e)`` by L-BFGS-B on the walled CSS objective."""
        x0 = self._hannan_rissanen_init(w)
        wc = w - w.mean()
        _WALL_BASE = 1e6 * (float(np.dot(wc, wc)) + 1.0)

        def objective(x: np.ndarray) -> float:
            c, phi, theta = self._unpack(x)
            r_ar = _max_inverse_root(phi, "ar")
            r_ma = _max_inverse_root(theta, "ma")
            # Hard sloped wall outside the stationarity/invertibility region:
            # evaluating the residual filter there would overflow, and the
            # slope steers L-BFGS back toward feasibility.
            wall = 0.0
            limit = 1.0 / _ROOT_MARGIN
            if r_ar >= limit:
                wall += _ROOT_PENALTY * (1.0 + r_ar - limit)
            if r_ma >= limit:
                wall += _ROOT_PENALTY * (1.0 + r_ma - limit)
            if wall > 0.0:
                return _WALL_BASE + wall
            e = _css_residuals(w, c, phi, theta)
            sse = float(np.dot(e, e))
            if not np.isfinite(sse):
                return _WALL_BASE
            return sse

        res = optimize.minimize(
            objective, x0, method="L-BFGS-B", options={"maxiter": self.maxiter}
        )
        if not np.isfinite(res.fun):
            raise ConvergenceError(
                f"ARIMA({self.p},{self.d},{self.q}) CSS optimization diverged"
            )
        c, phi, theta = self._unpack(res.x)
        # safety: if the optimizer somehow ended outside the feasible region
        # (possible when x0 was already on the wall), shrink back inside
        for _ in range(40):
            if max(_max_inverse_root(phi, "ar"), _max_inverse_root(theta, "ma")) < 1.0:
                break
            phi = phi * 0.7
            theta = theta * 0.7
        return c, phi, theta, _css_residuals(w, c, phi, theta)

    def _unpack(self, x: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        i = 0
        c = float(x[0]) if self.include_constant else 0.0
        if self.include_constant:
            i = 1
        phi = np.asarray(x[i : i + self.p], dtype=np.float64)
        theta = np.asarray(x[i + self.p : i + self.p + self.q], dtype=np.float64)
        return c, phi, theta

    def _hannan_rissanen_init(self, w: np.ndarray) -> np.ndarray:
        """Hannan–Rissanen two-stage OLS start values (fall back to zeros)."""
        m = w.shape[0]
        p, q = self.p, self.q
        zeros = np.zeros(self.num_params)
        if self.include_constant:
            zeros[0] = float(w.mean())
        if p + q == 0:
            return zeros
        long_ar = min(max(p + q + 2, 5), m // 3)
        if long_ar < 1 or m - long_ar <= p + q + 2:
            return zeros
        try:
            # stage 1: long-AR residuals
            X1 = np.column_stack(
                [np.ones(m - long_ar)]
                + [w[long_ar - i : m - i] for i in range(1, long_ar + 1)]
            )
            beta1, *_ = np.linalg.lstsq(X1, w[long_ar:], rcond=None)
            ehat = np.zeros(m)
            ehat[long_ar:] = w[long_ar:] - X1 @ beta1
            # stage 2: regress w on its own lags and residual lags
            k = max(p, q, 1)
            start = long_ar + k
            if m - start <= p + q + 2:
                return zeros
            cols = [np.ones(m - start)]
            cols += [w[start - i : m - i] for i in range(1, p + 1)]
            cols += [ehat[start - j : m - j] for j in range(1, q + 1)]
            X2 = np.column_stack(cols)
            beta2, *_ = np.linalg.lstsq(X2, w[start:], rcond=None)
            out = np.zeros(self.num_params)
            i = 0
            if self.include_constant:
                out[0] = beta2[0]
                i = 1
            out[i : i + p] = beta2[1 : 1 + p]
            out[i + p : i + p + q] = beta2[1 + p : 1 + p + q]
            # shrink until strictly inside the stationarity/invertibility
            # region — the optimizer needs a feasible start
            for _ in range(40):
                r = max(
                    _max_inverse_root(out[i : i + p], "ar"),
                    _max_inverse_root(out[i + p :], "ma"),
                )
                if r < 0.98:
                    break
                out[i:] *= 0.7
            else:
                return zeros
            return out
        except np.linalg.LinAlgError:
            return zeros

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def residuals(self) -> np.ndarray:
        """In-sample CSS residuals on the differenced scale."""
        self._require_fitted()
        w = difference(self.y_, self.d)
        return _css_residuals(w, self.const_, self.phi_, self.theta_)

    def loglikelihood(self) -> float:
        """Gaussian CSS log-likelihood (up to the conditioning convention)."""
        self._require_fitted()
        e = self.residuals()
        n = e.shape[0]
        s2 = max(self.sigma2_, 1e-300)
        return float(-0.5 * n * (np.log(2.0 * np.pi * s2) + 1.0))

    def aic(self) -> float:
        """Akaike information criterion (includes the σ² parameter)."""
        return 2.0 * (self.num_params + 1) - 2.0 * self.loglikelihood()

    def _one_step_w(self) -> float:
        """One-step conditional mean on the differenced scale."""
        val = self.const_
        for i in range(1, self.p + 1):
            val += self.phi_[i - 1] * self._w_tail[-i]
        for j in range(1, self.q + 1):
            val += self.theta_[j - 1] * self._e_tail[-j]
        return float(val)

    def forecast(self, h: int = 1) -> np.ndarray:
        """MMSE forecasts ``P_t Y_{t+1..t+h}`` on the original level scale."""
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        p, q = self.p, self.q
        # histories, most recent last (copies of the cached state)
        w_hist = list(self._w_tail)
        e_hist = list(self._e_tail)
        out_w = np.empty(h)
        for k in range(h):
            val = self.const_
            for i in range(1, p + 1):
                val += self.phi_[i - 1] * w_hist[-i]
            for j in range(1, q + 1):
                val += self.theta_[j - 1] * e_hist[-j]
            out_w[k] = val
            if p:
                w_hist.append(val)  # K-STEP-AHEAD: forecast becomes history
            if q:
                e_hist.append(0.0)  # future innovations have zero mean
        if self.d == 0:
            return out_w
        return undifference(out_w, self._heads)

    def append(self, value: float) -> None:
        """Advance state by one observation in O(p + q + d).

        The new differenced value chains through the integration heads;
        with an MA part its innovation — the one-step prediction error
        against the state *before* this value enters it — joins the
        residual tail (``q = 0`` has no reader for it and skips it).
        Equivalent to refiltering the full series (verified by the
        property suite) but independent of history length.
        """
        cur = self._push(value)
        for level in range(self.d):
            nxt = cur - self._heads[level]
            self._heads[level] = cur
            cur = nxt
        if self.q:
            self._e_tail.append(cur - self._one_step_w())
            del self._e_tail[: len(self._e_tail) - self.q]
        if self.p:
            self._w_tail.append(cur)
            del self._w_tail[: len(self._w_tail) - self.p]

    def __repr__(self) -> str:
        tag = "fitted" if self._fitted else "unfitted"
        return f"ARIMA({self.p},{self.d},{self.q})[{tag}]"
