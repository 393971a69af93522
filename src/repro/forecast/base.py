"""Common forecaster interface.

Every model in :mod:`repro.forecast` implements the same three-method
contract so the dynamic selector (and the per-VM monitors) can treat them
uniformly:

* :meth:`Forecaster.fit` — estimate parameters from a history;
* :meth:`Forecaster.forecast` — h-step-ahead conditional mean from the end
  of the observed data (the paper's ``P_t Y_{t+h}``);
* :meth:`Forecaster.append` — feed one newly observed value *without*
  refitting (parameters stay, state advances), which is what a shim does
  between periodic refits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import isfinite
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ForecastError, ReproError

__all__ = ["Forecaster", "REFIT_FAILURES", "warm_fit"]

REFIT_FAILURES = (ReproError, ValueError, np.linalg.LinAlgError)
"""What a refit may raise and a caller's failure policy may absorb."""


def warm_fit(
    models: Sequence["Forecaster"], windows: Sequence[np.ndarray]
) -> List[Optional[Exception]]:
    """Fit each fresh ``models[i]`` on ``windows[i]``: one refit wave.

    The one entry point every periodic refit goes through (the selector's
    pool, ``rolling_one_step``'s wave of one, and the two stacked waves —
    the predictive manager's due hosts and the selector bank's due rows —
    whose "models" are :class:`~repro.forecast.batch.StackedAR1` fits of
    window matrices): a refit is a function of the model's factory, its
    window and its seed alone — nothing is carried over from the model it
    replaces.

    Returns, per model, ``None`` or the :data:`REFIT_FAILURES` exception
    its ``fit`` raised; what to do with it is the caller's policy.  For a
    stacked "model" that is a failure of the whole stack: one row's is in
    its ``failures``.  Anything else propagates.
    """
    if len(models) != len(windows):
        raise ForecastError(
            f"a wave needs one window per model: {len(models)} models, "
            f"{len(windows)} windows"
        )
    failures: List[Optional[Exception]] = [None] * len(models)
    for i, (model, window) in enumerate(zip(models, windows)):
        try:
            model.fit(window)
        except REFIT_FAILURES as exc:
            failures[i] = exc
    return failures


def _finite(value: float, what: str) -> float:
    """*value* as a Python float, converted once; non-finite is refused."""
    v = float(value)
    if not isfinite(v):
        raise ForecastError(f"{what} value must be finite, got {value}")
    return v


def _chunk(n: int) -> int:
    """Free room a series of *n* samples gets when it is (re)allocated."""
    return max(16, n // 4)


class _Series:
    """Append-only float64 series in a buffer it owns.

    Construction copies — a store never holds a view of a caller's array,
    and no two stores' buffers overlap — with room for a chunk more (a
    quarter of the series, at least 16; doubling read as +3 % RSS over the
    fleet benchmark's 9k series), and :meth:`append` writes in place.  A full
    buffer is replaced by a fresh copy of itself, which with *keep* set
    carries over only the last *keep* samples: what is stored stays
    within *keep* plus one chunk.
    """

    __slots__ = ("buf", "n", "keep")

    def __init__(self, values: np.ndarray, keep: Optional[int] = None) -> None:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if keep is not None:
            arr = arr[-keep:]
        self.keep = keep
        self.n = n = arr.shape[0]
        self.buf = np.empty(n + _chunk(n))
        self.buf[:n] = arr

    @property
    def values(self) -> np.ndarray:
        """The series so far: a view, valid until the buffer is replaced."""
        return self.buf[: self.n]

    def append(self, value: float) -> None:
        if self.n == self.buf.shape[0]:
            self.__init__(self.buf, self.keep)  # a fresh, longer copy
        self.buf[self.n] = value
        self.n += 1


class Forecaster(ABC):
    """Abstract base for one-dimensional time-series forecasters.

    The observed series is :attr:`y_`, defined here for every subclass:
    ``fit`` assigns it (assignment copies — a model never aliases the
    window it was fitted on), :meth:`append` extends it in amortised O(1),
    and reading it gives an ``ndarray`` equal in value to everything
    fitted and appended so far.
    """

    _fitted: bool = False
    _series: Optional[_Series] = None

    @abstractmethod
    def fit(self, y: np.ndarray) -> "Forecaster":
        """Estimate parameters from series *y*; returns ``self``."""

    @abstractmethod
    def forecast(self, h: int = 1) -> np.ndarray:
        """Conditional-mean forecasts for the next *h* steps (shape ``(h,)``)."""

    def append(self, value: float) -> None:
        """Advance state by one observed value without re-estimating."""
        self._push(value)

    def _push(self, value: float) -> float:
        """The head of every ``append``, overrides included: fitted,
        converted once, finite, stored."""
        self._require_fitted()
        v = _finite(value, "appended")
        self._series.append(v)
        return v

    @property
    def y_(self) -> Optional[np.ndarray]:
        """The series observed so far (``None`` before the first fit)."""
        return None if self._series is None else self._series.values

    @y_.setter
    def y_(self, values: np.ndarray) -> None:
        self._series = _Series(values)

    # ------------------------------------------------------------------ #
    def predict_one(self) -> float:
        """Convenience scalar one-step-ahead forecast."""
        return float(self.forecast(1)[0])

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise ForecastError(f"{type(self).__name__} is not fitted")

    @staticmethod
    def _check_series(y: np.ndarray, min_len: int) -> np.ndarray:
        arr = np.asarray(y, dtype=np.float64).ravel()
        if arr.shape[0] < min_len:
            raise ForecastError(
                f"series too short: need >= {min_len} points, got {arr.shape[0]}"
            )
        if not np.isfinite(arr).all():
            raise ForecastError("series contains NaN or inf")
        return arr
