"""Contingency (reactive) management and the demand-driven harness.

The paper's core argument (Sec. I) is pre-control vs contingency: existing
schemes migrate VMs *after* detecting overload, Sheriff *before*.  To
measure that difference we need load that varies over time:

* :class:`DemandDrivenWorkload` attaches a
  :class:`~repro.traces.workload.WorkloadStream` to every VM; a host's
  effective utilization at round ``t`` is the capacity-weighted mean of
  its VMs' current demand, so migrating a hot VM genuinely cools the host.
* :class:`ReactiveManager` raises alerts only from *current* overload
  (what a QCN/threshold monitor sees);
* :class:`PredictiveManager`, the pre-alert counterpart, forecasts every
  host's load a few rounds ahead and acts before the overload.  Its
  per-host ``ARIMA(1, 1, 0)`` state is a set of columns beside the
  ``(hosts × T)`` load matrix, so observe, refit and forecast are each
  one array pass over the fleet, not one model object per host.

The ablation benchmark counts host-overload-rounds under each policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.alerts.alert import Alert, AlertKind
from repro.cluster.cluster import Cluster
from repro.cluster.resources import NUM_RESOURCES
from repro.errors import ConfigurationError, ForecastError
from repro.forecast.arima import ARIMA
from repro.traces.workload import WorkloadStream

__all__ = ["DemandDrivenWorkload", "ReactiveManager", "PredictiveManager"]


class DemandDrivenWorkload:
    """Time-varying per-VM demand bound to a cluster.

    Parameters
    ----------
    streams:
        One stream per VM id; every VM of the cluster must be covered.
        The workload keeps a copy, exposed read-only as :attr:`streams`:
        different demand is a new workload.
    """

    def __init__(self, cluster: Cluster, streams: Dict[int, WorkloadStream]) -> None:
        n = cluster.num_vms
        missing = [v for v in range(n) if v not in streams]
        if missing:
            raise ConfigurationError(
                f"streams missing for VMs {missing[:5]} (+{max(0, len(missing) - 5)} more)"
            )
        self.cluster = cluster
        self.streams: Mapping[int, WorkloadStream] = MappingProxyType(dict(streams))
        self._util_matrix: Optional[np.ndarray] = None
        self._build_util_cache()

    def _build_util_cache(self) -> None:
        """Stack per-VM max-component series into a (T, vms) matrix.

        Only possible when every stream has the same length; each round's
        utilization then becomes one row view instead of an O(vms) Python
        loop — the hot path of paper-scale demand simulations.
        """
        n = self.cluster.num_vms
        lengths = {self.streams[v].length for v in range(n)} if n else set()
        if len(lengths) == 1:
            T = lengths.pop()
            self._util_matrix = np.empty((T, n))
            for vm in range(n):
                self._util_matrix[:, vm] = self.streams[vm].profile.max(axis=1)
        else:
            self._util_matrix = None

    def vm_utilization(self, t: int) -> np.ndarray:
        """Per-VM scalar demand at round *t*: the max profile component.

        The max mirrors the ALERT semantics — a VM pegged on any one
        resource stresses its host.  A negative *t* is refused.
        """
        if t < 0:
            raise ConfigurationError(f"round must be >= 0, got {t}")
        if self._util_matrix is not None:
            row = min(t, self._util_matrix.shape[0] - 1)
            return self._util_matrix[row].copy()
        n = self.cluster.num_vms
        out = np.empty(n)
        for vm in range(n):
            out[vm] = float(self.streams[vm].at(t).max())
        return out

    def host_load(self, t: int) -> np.ndarray:
        """Per-host effective utilization in [0, 1] at round *t*.

        Capacity-weighted VM demand over host capacity: a host packed with
        idle VMs is not overloaded, one with few hot VMs is.
        """
        pl = self.cluster.placement
        util = self.vm_utilization(t)
        demand = np.bincount(
            pl.vm_host,
            weights=util * pl.vm_capacity,
            minlength=pl.num_hosts,
        )
        return demand / pl.host_capacity

    def overloaded_hosts(self, t: int, threshold: float) -> np.ndarray:
        """Host ids whose effective load exceeds *threshold* at round *t*."""
        return np.nonzero(self.host_load(t) > threshold)[0]


class ReactiveManager:
    """Contingency alert source: alerts only from *observed* overload.

    Produces the same ``(alerts, vm_alerts)`` shape as the scenario
    functions so both policies share the migration machinery — the only
    difference under test is *when* they learn about trouble.
    """

    def __init__(self, workload: DemandDrivenWorkload, threshold: float = 0.9) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
        self.workload = workload
        self.threshold = threshold

    def alerts_at(self, t: int) -> Tuple[List[Alert], Dict[int, float]]:
        """SERVER alerts for hosts currently overloaded at round *t*."""
        cluster = self.workload.cluster
        pl = cluster.placement
        load = self.workload.host_load(t)
        util = self.workload.vm_utilization(t)
        alerts: List[Alert] = []
        vm_alerts: Dict[int, float] = {}
        for host in np.nonzero(load > self.threshold)[0]:
            rack = int(pl.host_rack[host])
            mag = float(min(1.0, load[host]))
            alerts.append(
                Alert(
                    kind=AlertKind.SERVER,
                    rack=rack,
                    magnitude=mag,
                    host=int(host),
                    time=t,
                )
            )
            for vm in pl.vms_on_host(int(host)):
                if not pl.vm_delay_sensitive[vm]:
                    vm_alerts[int(vm)] = float(min(1.0, util[vm]))
        return alerts, vm_alerts


def _host_model() -> ARIMA:
    """A fresh host forecaster: what one refit of one host fits, and the
    scalar fit of a history the stacked solve refuses."""
    return ARIMA(1, 1, 0, maxiter=40)


class PredictiveManager:
    """Pre-alert source: alerts from *predicted* host overload.

    The paper's server-side ALERT means "host ``h_ij`` cannot afford the
    working load from its VMs" — an aggregate, per-host judgement.  This
    manager tracks each host's effective load series, forecasts it
    ``horizon`` rounds ahead with a per-host ``ARIMA(1, 1, 0)``, and raises
    the SERVER alert as soon as the *predicted* load crosses the threshold
    — typically one or more rounds before a reactive manager would see the
    overload.

    Call :meth:`observe` once per round (after acting) so the forecasts
    track reality including the effect of migrations.

    Fleet state is columnar: the load histories are one ``(hosts × T)``
    matrix with a per-host start, and each host's fitted model is one row
    of the columns ``_const``, ``_phi``, ``_w_last`` (the last differenced
    value) and ``_heads`` (the Eq. (12) integration head), valid where
    ``_fitted``.  :meth:`observe` advances every row in one array step —
    the IEEE operations of ``ARIMA.append`` — :meth:`alerts_at` refits
    every *due* host up front as one wave (one closed-form solve per
    history length over the rows of the load matrix, written straight
    into the columns) and forecasts the fleet with one
    :func:`~repro.forecast.batch.batch_forecast` call.

    Refit failure policy: a refit that raises keeps the outgoing model —
    or none, and answers persistence — and waits for the next refit
    period; a host has one model and no other to answer for it.
    :class:`~repro.forecast.selection.DynamicModelSelector`, which has a
    pool, instead drops the failed member until the next period and lets
    the survivors answer.
    """

    def __init__(
        self,
        workload: DemandDrivenWorkload,
        threshold: float = 0.9,
        *,
        horizon: int = 2,
        min_history: int = 12,
        refit_every: int = 10,
    ) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ConfigurationError(f"threshold must be in (0, 1], got {threshold}")
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        least = _host_model()._min_samples()
        if min_history < least:
            raise ConfigurationError(
                f"min_history must be >= {least}, the samples a host's "
                f"ARIMA(1, 1, 0) needs to fit, got {min_history}"
            )
        if refit_every < 1:
            raise ConfigurationError(f"refit_every must be >= 1, got {refit_every}")
        self.workload = workload
        self.threshold = threshold
        self.horizon = horizon
        self.min_history = min_history
        self.refit_every = refit_every
        n_hosts = workload.cluster.num_hosts
        self._loads = np.empty((n_hosts, 64))
        """Column ``k`` is the ``k``-th observed round's host loads."""
        self._t = 0
        """Columns of :attr:`_loads` observed so far."""
        self._start = np.zeros(n_hosts, dtype=np.int64)
        """First column of each host's history: its last reset."""
        self._fitted = np.zeros(n_hosts, dtype=bool)
        """Hosts holding a model: their rows of the columns below are live."""
        self._const = np.zeros(n_hosts)
        self._phi = np.zeros(n_hosts)
        self._w_last = np.zeros(n_hosts)
        self._heads = np.zeros((n_hosts, 1))
        self._since_fit = np.full(n_hosts, refit_every, dtype=np.int64)
        """Rounds observed since each host's last refit *attempt*; a host
        with no attempt since its last reset counts as a full period."""
        self._last_assignment: Optional[np.ndarray] = None
        self.last_predicted: Optional[np.ndarray] = None
        """Per-host forecast array from the latest :meth:`alerts_at` call
        (the raw prediction, before the max-with-observed alert rule) —
        the signal :class:`~repro.sim.fallback.FallbackManager` scores."""

    def observe(self, t: int) -> None:
        """Record round *t*'s realized host loads, all or nothing.

        The whole load column is checked first: a non-finite load raises
        :class:`~repro.errors.ForecastError` with the manager unchanged.

        Hosts whose VM assignment changed since the last observation are
        reset first: a migration steps the load series, and extrapolating
        that step as a trend manufactures false alerts.  The shim knows
        its own assignment changed, so dropping the stale history is the
        honest model of what it can do.  While a host's history rebuilds,
        :meth:`alerts_at` still detects plain threshold crossings from the
        current load.
        """
        load = self.workload.host_load(t)
        bad = np.flatnonzero(~np.isfinite(load))
        if bad.size:
            host = int(bad[0])
            raise ForecastError(
                f"host {host} load must be finite, got {load[host]} at round {t}"
            )
        pl = self.workload.cluster.placement
        current_assignment = pl.vm_host
        if self._last_assignment is not None:
            changed_vms = np.nonzero(self._last_assignment != current_assignment)[0]
            if changed_vms.size:
                self._reset(self._last_assignment[changed_vms])
                self._reset(current_assignment[changed_vms])
        self._last_assignment = current_assignment.copy()
        if self._t == self._loads.shape[1]:
            self._loads = np.concatenate((self._loads, np.empty_like(self._loads)), axis=1)
        self._loads[:, self._t] = load
        self._t += 1
        self._since_fit += 1
        # ARIMA(1, 1, 0).append on every row at once (rows without a model
        # are never read): the new difference against the head, then the
        # head moves on
        np.subtract(load, self._heads[:, 0], out=self._w_last)
        self._heads[:, 0] = load

    def _reset(self, hosts: np.ndarray) -> None:
        self._start[hosts] = self._t
        self._since_fit[hosts] = self.refit_every
        self._fitted[hosts] = False

    def _history(self, host: int) -> np.ndarray:
        """*host*'s load history since its last reset (a view)."""
        return self._loads[host, self._start[host] : self._t]

    def _due(self) -> np.ndarray:
        """Mask: enough history, and no refit attempt within the refit period."""
        return (self._t - self._start >= self.min_history) & (
            self._since_fit >= self.refit_every
        )

    def _refit(self, hosts: np.ndarray) -> None:
        """Refit ``ARIMA(1, 1, 0)`` on the history of every host in
        *hosts*, as one wave, and write each fit's ``(c, φ)`` into the
        host's row of the columns.

        The hosts are grouped by history length; every history ends at
        ``_t``, so a group's windows are one indexed copy of the load
        matrix, and one :class:`~repro.forecast.batch.StackedAR1` solves
        it in closed form (a fit on the stationarity wall takes the
        feasible edge, a flat one the mean model).  Only a history the
        solve refuses — non-finite or rank deficient — is fitted by a
        scalar ``_host_model()``.  Each row is bitwise that fresh model's fit.
        A fit's forecasting state — the last difference and the head of
        its window — is already the row's ``_w_last`` and ``_heads``:
        :meth:`observe` keeps them for every host, with the same IEEE
        operations, so only the parameters are written.

        A degenerate history can break a refit mid-run; the host then
        keeps its outgoing row — or none, and answers persistence —
        until the next refit period, as a production predictor would.
        """
        from repro.forecast import base, batch

        self._since_fit[hosts] = 0
        lengths = self._t - self._start[hosts]
        groups = [(n, hosts[lengths == n]) for n in np.unique(lengths).tolist()]
        fits = [batch.StackedAR1(lambda _: _host_model(), 1, True) for _ in groups]
        # looked up at call time: a profiler may wrap base.warm_fit
        failures = base.warm_fit(
            fits, [self._loads[rows, self._t - n : self._t] for n, rows in groups]
        )
        for (_, rows), fit, failure in zip(groups, fits, failures):
            if failure is None:
                good = rows[fit.ok]
                self._fitted[good] = True
                self._const[good] = fit.const[fit.ok]
                self._phi[good] = fit.phi[fit.ok]

    def _predict_all(self) -> np.ndarray:
        """Per-host predictions: the clipped peak of each fitted host's
        ``horizon``-step forecast, persistence (the last load, or 0.0 with
        no history) for the rest."""
        from repro.forecast import batch

        last = self._loads[:, max(self._t - 1, 0)]
        preds = np.where(self._start < self._t, last, 0.0)
        rows = np.flatnonzero(self._fitted)
        if rows.size:
            # looked up at call time: a profiler may wrap batch_forecast
            fcasts = batch.batch_forecast(
                self._const[rows],
                self._phi[rows],
                self._w_last[rows],
                self._heads[rows],
                self.horizon,
            )
            preds[rows] = np.clip(np.max(fcasts, axis=1), 0.0, 1.0)
        return preds

    def alerts_at(self, t: int) -> Tuple[List[Alert], Dict[int, float]]:
        """SERVER alerts for hosts whose predicted load crosses threshold."""
        due = np.flatnonzero(self._due())
        if due.size:
            self._refit(due)
        cluster = self.workload.cluster
        pl = cluster.placement
        util = self.workload.vm_utilization(t)
        current = self.workload.host_load(t)
        predicted = self._predict_all()
        self.last_predicted = predicted
        # prediction adds lead time but must never lose plain threshold
        # detection: alert on max(predicted, observed)
        worst = np.maximum(predicted, current)
        alerts: List[Alert] = []
        vm_alerts: Dict[int, float] = {}
        for host in np.nonzero(worst > self.threshold)[0].tolist():
            alerts.append(
                Alert(
                    kind=AlertKind.SERVER,
                    rack=int(pl.host_rack[host]),
                    magnitude=max(float(worst[host]), 1e-3),
                    host=host,
                    time=t,
                )
            )
            for vm in pl.vms_on_host(host):
                if not pl.vm_delay_sensitive[vm]:
                    vm_alerts[int(vm)] = float(min(1.0, util[vm]))
        return alerts, vm_alerts
