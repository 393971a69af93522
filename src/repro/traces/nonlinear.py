"""Nonlinear / chaotic series generator.

Sec. IV-B motivates NARNET with data that "ARIMA ... may not work"
on: nonlinear, dynamic, chaotic signals.  :func:`mackey_glass` — the
classic chaotic delay-differential benchmark used throughout the
NAR-network literature — is the nonlinear component of the synthetic
traces (:mod:`repro.traces.zoplecloud`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator

__all__ = ["mackey_glass"]


def mackey_glass(
    n: int,
    *,
    tau: int = 17,
    beta: float = 0.2,
    gamma: float = 0.1,
    exponent: float = 10.0,
    dt: float = 1.0,
    x0: float = 1.2,
    discard: int = 300,
    seed: SeedLike = None,
    noise_sigma: float = 0.0,
) -> np.ndarray:
    """Mackey–Glass series via Euler discretization.

    ``dx/dt = beta * x(t - tau) / (1 + x(t - tau)^exponent) - gamma * x(t)``

    With the default ``tau = 17`` the attractor is mildly chaotic — the
    standard difficulty class for NAR benchmarks.  *discard* initial samples
    are dropped to skip the transient.
    """
    if n < 0:
        raise ConfigurationError(f"n must be non-negative, got {n}")
    if tau < 1:
        raise ConfigurationError(f"tau must be >= 1, got {tau}")
    if discard < 0:
        raise ConfigurationError(f"discard must be non-negative, got {discard}")
    rng = as_generator(seed)
    total = n + discard
    hist = max(tau, 1)
    x = np.empty(total + hist)
    # seed history with small perturbations around x0 so distinct seeds
    # land on distinct stretches of the attractor
    x[:hist] = x0 + (rng.normal(0.0, 0.01, size=hist) if noise_sigma >= 0 else 0.0)
    for t in range(hist, total + hist):
        xd = x[t - tau]
        x[t] = x[t - 1] + dt * (beta * xd / (1.0 + xd**exponent) - gamma * x[t - 1])
    out = x[hist + discard :]
    if noise_sigma > 0:
        out = out + rng.normal(0.0, noise_sigma, size=out.shape)
    return out

