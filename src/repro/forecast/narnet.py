"""Nonlinear autoregressive neural network (NARNET, Sec. IV-B).

``NARNET(ni, nh)`` predicts ``Y_t = F(Y_{t-1}, ..., Y_{t-ni}) + ε`` with a
single tanh hidden layer of ``nh`` units and a linear output — the same
architecture MATLAB's ``narnet`` trains (the paper uses 20 hidden units).

Training is deterministic given a seed: inputs are z-scored, weights start
from small seeded Gaussians, and the full-batch loss (MSE + L2) is
minimized with L-BFGS using an **analytic** back-propagated gradient (one
matmul-heavy function evaluation, no per-sample loop).  Several restarts
guard against bad local minima; the best by training loss wins.

Multi-step forecasts run closed-loop: each prediction is fed back as the
next input, mirroring the paper's K-STEP-AHEAD recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.errors import ConfigurationError, ConvergenceError, ForecastError
from repro.forecast.base import Forecaster
from repro.forecast.lag import lag_matrix
from repro.rng import SeedLike, spawn

__all__ = ["NARNET"]


@dataclass
class NARNET(Forecaster):
    """Nonlinear AR neural network forecaster.

    Parameters
    ----------
    ni:
        Number of input lags.
    nh:
        Hidden-layer width (paper: 20).
    l2:
        L2 weight penalty; small but non-zero keeps the net well-conditioned
        on short windows.
    restarts:
        Independent seeded initializations; best final loss wins.
    maxiter:
        L-BFGS iteration budget per restart.
    seed:
        Seed for reproducible initializations.
    """

    ni: int = 8
    nh: int = 20
    l2: float = 1e-4
    restarts: int = 3
    maxiter: int = 300
    seed: SeedLike = 0

    # fitted state
    w1_: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    b1_: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    w2_: np.ndarray = field(default=None, init=False, repr=False)  # type: ignore[assignment]
    b2_: float = field(default=0.0, init=False, repr=False)
    mu_: float = field(default=0.0, init=False, repr=False)
    sd_: float = field(default=1.0, init=False, repr=False)
    train_loss_: float = field(default=np.inf, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ni < 1:
            raise ConfigurationError(f"ni must be >= 1, got {self.ni}")
        if self.nh < 1:
            raise ConfigurationError(f"nh must be >= 1, got {self.nh}")
        if self.l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {self.l2}")
        if self.restarts < 1:
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")

    # ------------------------------------------------------------------ #
    # parameter packing
    # ------------------------------------------------------------------ #
    def _n_params(self) -> int:
        return self.nh * self.ni + self.nh + self.nh + 1

    def _unpack(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        ni, nh = self.ni, self.nh
        i = 0
        w1 = x[i : i + nh * ni].reshape(nh, ni)
        i += nh * ni
        b1 = x[i : i + nh]
        i += nh
        w2 = x[i : i + nh]
        i += nh
        b2 = float(x[i])
        return w1, b1, w2, b2

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, y: np.ndarray) -> "NARNET":
        """Train by restarted L-BFGS; every restart draws its initial
        weights from its own generator spawned from ``seed``."""
        arr = self._check_series(y, self.ni + max(self.nh // 2, 4))
        self.mu_ = float(arr.mean())
        self.sd_ = float(arr.std())
        if self.sd_ < 1e-12:
            # constant series: net that always outputs the constant
            self.sd_ = 1.0
            self.w1_ = np.zeros((self.nh, self.ni))
            self.b1_ = np.zeros(self.nh)
            self.w2_ = np.zeros(self.nh)
            self.b2_ = 0.0
            self.y_ = arr
            self.train_loss_ = 0.0
            self._fitted = True
            return self
        z = (arr - self.mu_) / self.sd_
        X, t = lag_matrix(z, self.ni)
        m = X.shape[0]

        def loss_grad(x: np.ndarray) -> Tuple[float, np.ndarray]:
            w1, b1, w2, b2 = self._unpack(x)
            z1 = X @ w1.T + b1  # (m, nh)
            h = np.tanh(z1)
            yhat = h @ w2 + b2
            r = yhat - t
            loss = 0.5 * float(r @ r) / m
            # L2 on weights only (not biases), standard weight decay
            loss += 0.5 * self.l2 * (float((w1 * w1).sum()) + float(w2 @ w2))
            dy = r / m  # (m,)
            g_b2 = float(dy.sum())
            g_w2 = h.T @ dy + self.l2 * w2
            dh = np.outer(dy, w2) * (1.0 - h * h)  # (m, nh)
            g_w1 = dh.T @ X + self.l2 * w1
            g_b1 = dh.sum(axis=0)
            grad = np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
            return loss, grad

        best_loss = np.inf
        best_x: Optional[np.ndarray] = None
        for rng in spawn(self.seed, self.restarts):
            x0 = np.empty(self._n_params())
            scale1 = 1.0 / np.sqrt(self.ni)
            scale2 = 1.0 / np.sqrt(self.nh)
            i = 0
            x0[i : i + self.nh * self.ni] = rng.normal(0, scale1, self.nh * self.ni)
            i += self.nh * self.ni
            x0[i : i + self.nh] = rng.normal(0, 0.1, self.nh)
            i += self.nh
            x0[i : i + self.nh] = rng.normal(0, scale2, self.nh)
            x0[-1] = 0.0
            res = optimize.minimize(
                loss_grad,
                x0,
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": self.maxiter},
            )
            if np.isfinite(res.fun) and res.fun < best_loss:
                best_loss = float(res.fun)
                best_x = res.x
        if best_x is None:
            raise ConvergenceError("every NARNET restart diverged")
        self.w1_, self.b1_, self.w2_, self.b2_ = self._unpack(best_x)
        self.w1_ = self.w1_.copy()
        self.b1_ = self.b1_.copy()
        self.w2_ = self.w2_.copy()
        self.train_loss_ = best_loss
        self.y_ = arr
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def _predict_scaled(self, lags: np.ndarray) -> float:
        """One step from z-scored lag vector (most recent first)."""
        h = np.tanh(self.w1_ @ lags + self.b1_)
        return float(self.w2_ @ h + self.b2_)

    def forecast(self, h: int = 1) -> np.ndarray:
        self._require_fitted()
        if h < 1:
            raise ForecastError(f"forecast horizon must be >= 1, got {h}")
        z = (self.y_ - self.mu_) / self.sd_
        lags = list(z[-self.ni :][::-1])  # most recent first
        out = np.empty(h)
        for k in range(h):
            pred = self._predict_scaled(np.asarray(lags[: self.ni]))
            out[k] = pred
            lags.insert(0, pred)  # closed loop
        return out * self.sd_ + self.mu_

    def __repr__(self) -> str:
        tag = "fitted" if self._fitted else "unfitted"
        return f"NARNET(ni={self.ni}, nh={self.nh})[{tag}]"
