"""Refit failures injected at the seam every stacked refit shares.

A stacked wave (:class:`~repro.forecast.batch.StackedAR1`) solves its rows
with ``batch._solve_ar1`` and fits each row it refuses with ``ARIMA.fit``,
the definition.  Patching both fails a chosen window the way a real
divergence would, in the predictive manager, the selector bank and their
scalar twins alike.
"""

import numpy as np

from repro.errors import ConvergenceError
from repro.forecast import batch
from repro.forecast.arima import ARIMA


def fail_refits(monkeypatch, failing):
    """Make every ``ARIMA`` fit of a window ``y`` of order ``d`` for which
    ``failing(y, d)`` holds fail: the stacked solve refuses its row and the
    scalar fit raises ``ConvergenceError`` on it.  Returns the window
    lengths of every failed attempt."""
    attempts = []
    solve, fit = batch._solve_ar1, ARIMA.fit

    def refusing(Y, d, include_constant):
        ok, *rest = solve(Y, d, include_constant)
        return (ok & ~np.array([failing(y, d) for y in Y], dtype=bool), *rest)

    def raising(self, y):
        if failing(y, self.d):
            attempts.append(len(y))
            raise ConvergenceError("refit diverged")
        return fit(self, y)

    monkeypatch.setattr(batch, "_solve_ar1", refusing)
    monkeypatch.setattr(ARIMA, "fit", raising)
    return attempts
