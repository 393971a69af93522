"""SLO-violation-minutes accounting.

The accountant charges each VM's error budget from three sources, all
expressed in the same unit — *violation-minutes*, minutes of SLO-breaking
service weighted by how much traffic the VM was serving:

``overload``
    Every round a VM sits on a host whose utilisation exceeds the SLO
    overload threshold, it is charged a fraction of the round scaled by
    how far past the threshold the host ran.
``downtime``
    A live migration's stop-and-copy window (the six-stage pre-copy
    model's final blackout, :func:`repro.costs.precopy.precopy_timeline`)
    multiplied by the VM's request rate: seconds of blackout × requests
    per second ÷ 60.  A VM that serves nothing is never charged.
``stretch``
    After a placement change, any lengthening of the VM's dependency
    paths (rack-distance deltas to its ``G_d`` neighbours) is charged as
    a fixed fraction of a round per added hop.

Every charge emits a :class:`~repro.obs.events.SloViolation` trace event
(stamped with lifecycle trace ids by the tracer) and increments
``sheriff_slo_violation_minutes_total{tenant,source}``; the synthetic
request latency implied by the charge is observed into
``sheriff_slo_request_latency{tenant}``.  Consecutive violating rounds of
one VM form a *violation episode*; episode lengths feed the p99 reported
by ``repro trace summarize`` and ``repro slo report``.  When a per-class
error budget is configured, the first crossing emits
:class:`~repro.obs.events.SloBudgetExhausted` (once per class).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from repro.obs.events import SloBudgetExhausted, SloViolation
from repro.slo.model import SloModel, TENANT_CLASSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.costs.precopy import MigrationTimeline

__all__ = ["SloAccountant", "VIOLATION_SOURCES"]

VIOLATION_SOURCES = ("overload", "downtime", "stretch")

# one extra rack-level hop on a dependency path costs this fraction of a
# round in violation-minutes
_STRETCH_MINUTES_PER_HOP = 0.1

# synthetic latency inflation: ms per hop of added dependency distance
_STRETCH_LATENCY_MS_PER_HOP = 5.0


class SloAccountant:
    """Charges SLO-violation-minutes and keeps the per-tenant ledger.

    Parameters
    ----------
    model:
        The fleet's :class:`~repro.slo.model.SloModel`.
    cluster:
        Live cluster handle — placement is read at charge time so the
        ledger always reflects the post-commit world.
    rack_distances:
        ``(num_racks, num_racks)`` hop-distance matrix (from
        :meth:`repro.costs.model.CostModel.rack_distances`).
    timing:
        :class:`~repro.sim.inflight.MigrationTiming`-compatible object
        used to derive a pre-copy timeline when the engine commits
        instantly (duck-typed: only ``rounds_for`` is called).
    metrics / tracer:
        Observability sinks; either may be ``None`` (ledger-only mode).
    round_minutes:
        Wall-clock minutes one management round represents.
    overload_threshold:
        Host utilisation above which resident VMs accrue overload
        minutes.
    budget_minutes:
        Per-tenant-class error budget; ``0`` disables budget tracking.
    """

    def __init__(
        self,
        model: SloModel,
        cluster: "Cluster",
        *,
        rack_distances: np.ndarray,
        timing=None,
        metrics=None,
        tracer=None,
        round_minutes: float = 1.0,
        overload_threshold: float = 0.9,
        budget_minutes: float = 0.0,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.rack_distances = rack_distances
        self.timing = timing
        self.metrics = metrics
        self.tracer = tracer
        self.round_minutes = float(round_minutes)
        self.overload_threshold = float(overload_threshold)
        self.budget_minutes = float(budget_minutes)

        self.total_minutes: float = 0.0
        self.by_class: Dict[str, float] = {t: 0.0 for t in TENANT_CLASSES}
        self.by_source: Dict[str, float] = {s: 0.0 for s in VIOLATION_SOURCES}
        self._budget_spent: Set[str] = set()
        # episode tracking: vm -> consecutive violating rounds so far
        self._open_episodes: Dict[int, int] = {}
        self._violated_this_round: Set[int] = set()
        self._episode_lengths: List[int] = []
        # (tenant, source) -> (minutes counter, tenant latency histogram)
        self._instruments: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------ #
    # charge sites
    # ------------------------------------------------------------------ #
    def charge_downtime(
        self,
        vm: int,
        dst_host: int,
        timeline: Optional["MigrationTimeline"] = None,
    ) -> float:
        """Charge one migration's stop-and-copy blackout to *vm*.

        ``timeline`` defaults to the pre-copy timeline implied by the
        accountant's timing model and the VM's memory footprint.  Returns
        the minutes charged (0 for VMs with zero request rate).
        """
        slo = self.model.slo_for(vm)
        if slo.request_rate <= 0.0:
            return 0.0
        if timeline is None:
            if self.timing is None:
                return 0.0
            capacity = int(self.cluster.placement.vm_capacity[vm])
            _, timeline = self.timing.rounds_for(capacity)
        minutes = timeline.downtime * slo.request_rate / 60.0
        latency_ms = slo.latency_target_ms + timeline.downtime * 1000.0
        self._charge(vm, slo.tenant_class, "downtime", minutes, latency_ms, dst_host)
        return minutes

    def charge_stretch(self, vm: int, old_host: int, new_host: int) -> float:
        """Charge any dependency-path lengthening caused by a move.

        Sums the positive rack-distance deltas from *vm*'s new rack to
        each ``G_d`` neighbour's rack, relative to the old rack.  Paths
        that got shorter earn nothing back — the SLO ledger is a cost
        ledger, not a score.
        """
        nbrs = self.cluster.dependencies.neighbors(vm)
        if not nbrs:
            return 0.0
        pl = self.cluster.placement
        dist = self.rack_distances
        old_rack = int(pl.host_rack[old_host])
        new_rack = int(pl.host_rack[new_host])
        if old_rack == new_rack:
            return 0.0
        added = 0.0
        for nbr in sorted(nbrs):
            nbr_rack = int(pl.host_rack[pl.vm_host[nbr]])
            delta = float(dist[new_rack, nbr_rack]) - float(dist[old_rack, nbr_rack])
            if delta > 0.0:
                added += delta
        if added <= 0.0:
            return 0.0
        slo = self.model.slo_for(vm)
        minutes = _STRETCH_MINUTES_PER_HOP * self.round_minutes * added
        latency_ms = slo.latency_target_ms + _STRETCH_LATENCY_MS_PER_HOP * added
        self._charge(vm, slo.tenant_class, "stretch", minutes, latency_ms, new_host)
        return minutes

    def charge_round(
        self, now: int, host_load: Optional[np.ndarray] = None
    ) -> float:
        """Close out one round: overload charges plus episode bookkeeping.

        ``host_load`` is the per-host utilisation vector the engine ran
        the round against (``None`` when the caller drives load
        externally — only episode bookkeeping happens then).  Returns the
        overload minutes charged this round.
        """
        charged = 0.0
        if host_load is not None:
            pl = self.cluster.placement
            load = np.asarray(host_load, dtype=np.float64)
            thr = self.overload_threshold
            hot = np.nonzero(load > thr)[0]
            if hot.size:
                span = max(1.0 - thr, 1e-9)
                vm_hosts = pl.vm_host
                for host in hot.tolist():
                    excess = min(1.0, (float(load[host]) - thr) / span)
                    minutes = self.round_minutes * excess
                    for vm in np.nonzero(vm_hosts == host)[0].tolist():
                        slo = self.model.slo_for(vm)
                        latency_ms = slo.latency_target_ms * (1.0 + excess)
                        self._charge(
                            vm, slo.tenant_class, "overload", minutes,
                            latency_ms, host,
                        )
                        charged += minutes
        self._close_round_episodes()
        return charged

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _charge(
        self,
        vm: int,
        tenant: str,
        source: str,
        minutes: float,
        latency_ms: float,
        host: Optional[int],
    ) -> None:
        if minutes <= 0.0:
            return
        self.total_minutes += minutes
        self.by_class[tenant] = self.by_class.get(tenant, 0.0) + minutes
        self.by_source[source] = self.by_source.get(source, 0.0) + minutes
        self._violated_this_round.add(vm)
        if self.metrics is not None:
            handles = self._instruments.get((tenant, source))
            if handles is None:
                # created in first-use order, as one lookup per charge did
                handles = self._instruments[(tenant, source)] = (
                    self.metrics.counter(
                        "sheriff_slo_violation_minutes_total",
                        tenant=tenant,
                        source=source,
                    ),
                    self.metrics.histogram(
                        "sheriff_slo_request_latency", tenant=tenant
                    ),
                )
            handles[0].inc(minutes)
            handles[1].observe(latency_ms)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                SloViolation(
                    vm=int(vm), tenant=tenant, source=source,
                    minutes=minutes, host=host,
                )
            )
        self._check_budget(tenant)

    def _check_budget(self, tenant: str) -> None:
        if self.budget_minutes <= 0.0 or tenant in self._budget_spent:
            return
        total = self.by_class.get(tenant, 0.0)
        if total < self.budget_minutes:
            return
        self._budget_spent.add(tenant)
        if self.metrics is not None:
            self.metrics.counter(
                "sheriff_slo_budget_exhausted_total", tenant=tenant
            ).inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                SloBudgetExhausted(
                    tenant=tenant,
                    budget_minutes=self.budget_minutes,
                    total_minutes=total,
                )
            )

    def _close_round_episodes(self) -> None:
        violated = self._violated_this_round
        for vm in list(self._open_episodes):
            if vm not in violated:
                self._episode_lengths.append(self._open_episodes.pop(vm))
        for vm in violated:
            self._open_episodes[vm] = self._open_episodes.get(vm, 0) + 1
        violated.clear()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def episode_lengths(self, include_open: bool = True) -> List[int]:
        """Violation-episode lengths (rounds), closed first."""
        out = list(self._episode_lengths)
        if include_open:
            out.extend(self._open_episodes.values())
        return out

    def episode_quantile(self, q: float) -> float:
        """Interpolated *q*-quantile of episode lengths (0.0 when none)."""
        lengths = sorted(self.episode_lengths())
        if not lengths:
            return 0.0
        pos = q * (len(lengths) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(lengths) - 1)
        frac = pos - lo
        return lengths[lo] * (1.0 - frac) + lengths[hi] * frac

    def summary(self) -> Dict[str, object]:
        """JSON-ready ledger snapshot (CLI + report surface)."""
        lengths = self.episode_lengths()
        return {
            "total_minutes": self.total_minutes,
            "by_class": dict(self.by_class),
            "by_source": dict(self.by_source),
            "episodes": {
                "count": len(lengths),
                "p50_rounds": self.episode_quantile(0.5),
                "p99_rounds": self.episode_quantile(0.99),
                "max_rounds": float(max(lengths)) if lengths else 0.0,
            },
            "budget_minutes": self.budget_minutes,
            "budget_exhausted": sorted(self._budget_spent),
        }
