"""Batched fleet forecasting kernels.

A paper-scale fleet runs thousands of per-VM/per-host forecasters, and the
monitor tick asks every one of them for the same thing: an h-step
conditional mean.  Calling :meth:`~repro.forecast.base.Forecaster.forecast`
one model at a time spends most of the tick in Python call overhead — the
arithmetic per ARIMA step is a handful of multiply-adds.

:func:`batch_forecast` regroups a fleet of fitted forecasters by model
class and ARIMA order ``(p, d, q)``, stacks each group's O(p + q + d)
forecasting state into arrays, and runs the paper's Sec. IV-B recursion
(one-step MMSE prediction, k-step values fed back as history, Eq. (12)
integration) *once per group* with element-wise array ops.

Bit-identity contract: numpy element-wise arithmetic applies the same IEEE
operation per element that the scalar recursion applies per model, in the
same order — the stacked kernel accumulates ``c``, then ``φ_i · w_{t-i}``
for ``i = 1..p``, then ``θ_j · e_{t-j}`` for ``j = 1..q``, exactly like
:meth:`ARIMA.forecast`, and integrates with one ``cumsum`` per
differencing level exactly like :func:`~repro.forecast.lag.undifference`.
Fitted plain ``NaiveLast`` members are one gather; everything else
:func:`group_fleet` sets aside (other classes, subclasses, unfitted
instances) falls back to its own scalar ``forecast`` — so the result is
byte-identical to ``[m.forecast(h) for m in models]`` for *any* mixed
fleet.  The property suite asserts this bitwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.naive import NaiveLast

__all__ = ["batch_forecast", "group_fleet"]

ArimaOrder = Tuple[int, int, int]
Group = Tuple[List[int], List[object]]
"""Positions in the fleet, and the members at those positions."""


def group_fleet(
    models: Iterable[object],
) -> Tuple[Dict[ArimaOrder, Group], Group, Group]:
    """Partition *models*, in one pass, into batchable groups and a scalar rest.

    Returns ``(groups, naive, scalar)``: *groups* maps ``(p, d, q)`` to the
    fitted plain-ARIMA members sharing that order (insertion order
    preserved), *naive* holds the fitted plain-:class:`NaiveLast` members
    (their forecast is a gather of each ``y_[-1]``), and *scalar*
    everything else.  Exact-type gates throughout — subclasses may
    override ``forecast`` and must go scalar — and this is the one place
    they live: ``batch_predict_one`` groups its fleet here too.
    """
    groups: Dict[ArimaOrder, Group] = {}
    naive: Group = ([], [])
    scalar: Group = ([], [])
    for idx, m in enumerate(models):
        cls = type(m)
        if cls is ARIMA and m._fitted:
            group = groups.setdefault((m.p, m.d, m.q), ([], []))
        elif cls is NaiveLast and m._fitted:
            group = naive
        else:
            group = scalar
        group[0].append(idx)
        group[1].append(m)
    return groups, naive, scalar


def _forecast_group(models: Sequence[ARIMA], p: int, d: int, q: int, h: int) -> np.ndarray:
    """Stacked Sec. IV-B recursion for one ``(p, d, q)`` group.

    Returns an ``(len(models), h)`` level-scale forecast matrix whose row
    ``i`` is bitwise ``models[i].forecast(h)``.
    """
    n = len(models)
    const = np.asarray([m.const_ for m in models], dtype=np.float64)
    phi = (
        np.asarray([m.phi_ for m in models], dtype=np.float64)
        if p
        else np.empty((n, 0))
    )
    theta = (
        np.asarray([m.theta_ for m in models], dtype=np.float64)
        if q
        else np.empty((n, 0))
    )
    # histories as lists of (n,) columns, most recent last — appending a
    # column mirrors the scalar path appending one value per model
    w_cols: List[np.ndarray] = [
        np.asarray([m._w_tail[k] for m in models], dtype=np.float64)
        for k in range(p)
    ]
    e_cols: List[np.ndarray] = [
        np.asarray([m._e_tail[k] for m in models], dtype=np.float64)
        for k in range(q)
    ]
    out = np.empty((n, h))
    for k in range(h):
        val = const.copy()
        for i in range(1, p + 1):
            val += phi[:, i - 1] * w_cols[-i]
        for j in range(1, q + 1):
            val += theta[:, j - 1] * e_cols[-j]
        out[:, k] = val
        if p:
            w_cols.append(val)  # K-STEP-AHEAD: forecast becomes history
        if q:
            e_cols.append(np.zeros(n))  # future innovations have zero mean
    if d == 0:
        return out
    # Eq. (12) integration, innermost difference first — one cumsum per
    # level is the row-wise image of undifference()'s scalar loop
    heads = np.asarray([m._heads for m in models], dtype=np.float64)
    for level in range(d - 1, -1, -1):
        out = heads[:, level][:, None] + np.cumsum(out, axis=1)
    return out


def batch_forecast(models: Sequence[object], h: int = 1) -> List[np.ndarray]:
    """h-step forecasts for a fleet; bitwise ``[m.forecast(h) for m in models]``.

    Fitted plain-ARIMA members are grouped by order and forecast with one
    stacked recursion per group; everything else goes through its own
    scalar ``forecast``.  Results come back in input order.
    """
    if h < 1:
        raise ForecastError(f"forecast horizon must be >= 1, got {h}")
    models = list(models)
    out: List[np.ndarray] = [None] * len(models)  # type: ignore[list-item]
    groups, naive, scalar = group_fleet(models)
    for (p, d, q), (idxs, members) in groups.items():
        grp = _forecast_group(members, p, d, q, h)
        for row, i in enumerate(idxs):
            out[i] = grp[row]
    for i, model in zip(*naive):
        # bitwise NaiveLast.forecast: np.full(h, float(y_[-1]))
        out[i] = np.full(h, model.y_.item(-1))
    for i, model in zip(*scalar):
        out[i] = model.forecast(h)
    return out
