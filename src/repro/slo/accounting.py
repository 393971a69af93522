"""SLO-violation-minutes accounting.

The accountant charges each VM's error budget from three sources, all
expressed in the same unit — *violation-minutes*, minutes of SLO-breaking
service weighted by how much traffic the VM was serving.  One management
round is one minute:

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

Every charge records a :class:`~repro.obs.events.SloViolation` trace row
and adds to the round's record: its ``(tenant, source)`` minutes partial
and the synthetic request latency the charge implies.  The engine takes
that record once a round (:meth:`SloAccountant.take_round`) and adds it
to ``sheriff_slo_violation_minutes_total{tenant,source}`` and
``sheriff_slo_request_latency{tenant}`` in its one metrics write.
Consecutive violating rounds of one VM form a *violation episode*;
episode lengths feed the p99 reported by ``repro trace summarize`` and
``repro slo report``.  When a per-class error budget is configured, the
first crossing emits :class:`~repro.obs.events.SloBudgetExhausted` (once
per class).

A batch of landed moves is charged in one call (:meth:`SloAccountant.
charge_moves`): minutes and latencies are computed as arrays and land as
columns, in charge order, each VM's downtime before its stretch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs.events import SloBudgetExhausted, SloViolation
from repro.obs.metrics import quantile
from repro.slo.model import SloModel, TENANT_CLASSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster
    from repro.costs.precopy import MigrationTimeline

__all__ = ["SloAccountant", "SloRound", "VIOLATION_SOURCES"]

VIOLATION_SOURCES = ("overload", "downtime", "stretch")
_OVERLOAD, _DOWNTIME, _STRETCH = range(len(VIOLATION_SOURCES))

# one extra rack-level hop on a dependency path costs this fraction of a
# round in violation-minutes
_STRETCH_MINUTES_PER_HOP = 0.1

# synthetic latency inflation: ms per hop of added dependency distance
_STRETCH_LATENCY_MS_PER_HOP = 5.0


@dataclass
class SloRound:
    """One round's charges (:meth:`SloAccountant.take_round`), each dict in
    first-charge order."""

    minutes: Dict[Tuple[str, str], float] = field(default_factory=dict)
    """Per ``(tenant, source)``, the round's charges added one by one."""
    latency_ms: Dict[str, List[np.ndarray]] = field(default_factory=dict)
    """Per tenant, the round's charge latencies, batch by batch."""
    exhausted: List[str] = field(default_factory=list)
    """Tenants whose budget ran out this round."""

    def totals(self) -> Tuple[float, Dict[str, float]]:
        """The round's minutes, and each tenant's: the partials in order."""
        total, by_class = 0.0, {}
        for (tenant, _), minutes in self.minutes.items():
            total += minutes
            by_class[tenant] = by_class.get(tenant, 0.0) + minutes
        return total, by_class


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
    tracer:
        Trace sink; ``None`` (or a disabled tracer) records no rows.
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
        tracer=None,
        overload_threshold: float = 0.9,
        budget_minutes: float = 0.0,
    ) -> None:
        self.model = model
        self.cluster = cluster
        self.rack_distances = rack_distances
        self.timing = timing
        self.tracer = tracer
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
        self._round = SloRound()  # until the engine takes it

    # ------------------------------------------------------------------ #
    # charge sites
    # ------------------------------------------------------------------ #
    def charge_moves(
        self,
        vms: Sequence[int],
        src_hosts: Sequence[int],
        dst_hosts: Sequence[int],
        downtimes: Optional[Sequence[float]] = None,
    ) -> float:
        """Charge one batch of landed moves; returns the minutes charged.

        ``vms[i]`` moved from ``src_hosts[i]`` to ``dst_hosts[i]``;
        ``downtimes[i]`` is its stop-and-copy window in seconds, by default
        that of the timing model's pre-copy timeline for the VM's memory.
        The batch's minutes and latencies are computed as arrays, then the
        charges land in order — VM by VM, downtime before stretch — as one
        :meth:`charge_downtime` and one :meth:`charge_stretch` per VM would.
        """
        vms = np.asarray(vms, dtype=np.int64)
        dst = np.asarray(dst_hosts, dtype=np.int64)
        down = self._downtime(vms, downtimes)
        stretch = self._stretch(vms, src_hosts, dst)
        return self._fold(
            np.repeat(vms, 2),
            np.tile((_DOWNTIME, _STRETCH), len(vms)),
            np.column_stack((down[0], stretch[0])).ravel(),
            np.column_stack((down[1], stretch[1])).ravel(),
            np.repeat(dst, 2),
        )

    def charge_downtime(
        self,
        vm: int,
        dst_host: int,
        timeline: Optional["MigrationTimeline"] = None,
    ) -> float:
        """Charge one migration's stop-and-copy blackout to *vm* (a one-row
        batch): blackout seconds × request rate ÷ 60, so 0 for a VM that
        serves nothing.  ``timeline`` defaults to the timing model's."""
        vms = np.array([vm], dtype=np.int64)
        downtimes = None if timeline is None else [timeline.downtime]
        return self._fold(
            vms, [_DOWNTIME], *self._downtime(vms, downtimes), [dst_host]
        )

    def charge_stretch(self, vm: int, old_host: int, new_host: int) -> float:
        """Charge any dependency-path lengthening caused by a move (a
        one-row batch): the positive rack-distance deltas to each ``G_d``
        neighbour's rack.  Paths that got shorter earn nothing back — the
        SLO ledger is a cost ledger, not a score."""
        vms = np.array([vm], dtype=np.int64)
        return self._fold(
            vms, [_STRETCH], *self._stretch(vms, [old_host], [new_host]), [new_host]
        )

    def charge_round(
        self, now: int, host_load: Optional[np.ndarray] = None
    ) -> float:
        """Close out one round: overload charges plus episode bookkeeping.

        ``host_load`` is the per-host utilisation vector the engine ran
        the round against (``None`` when the caller drives load
        externally — only episode bookkeeping happens then).  Each VM on a
        host past the threshold, host by host, is charged the excess
        fraction of its one-minute round.  Returns the minutes charged.
        """
        charged = 0.0
        if host_load is not None:
            load = np.asarray(host_load, dtype=np.float64)
            thr = self.overload_threshold
            vm_hosts = self.cluster.placement.vm_host
            vms = np.flatnonzero(load[vm_hosts] > thr)
            vms = vms[np.argsort(vm_hosts[vms], kind="stable")]
            hosts = vm_hosts[vms]
            excess = np.minimum(1.0, (load[hosts] - thr) / max(1.0 - thr, 1e-9))
            latency_ms = self.model.latency_target_ms[vms] * (1.0 + excess)
            charged = self._fold(
                vms, np.full(len(vms), _OVERLOAD), excess, latency_ms, hosts
            )
        self._close_round_episodes()
        return charged

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _downtime(self, vms: np.ndarray, downtimes) -> Tuple[np.ndarray, np.ndarray]:
        """Per-VM downtime minutes and request latency (ms) of a batch."""
        rate = self.model.request_rate[vms]
        seconds = np.zeros(len(vms))
        if downtimes is not None:
            seconds[:] = downtimes
        elif self.timing is not None:
            capacity = self.cluster.placement.vm_capacity
            # a VM that serves nothing never needs its timeline solved
            for i in np.flatnonzero(rate > 0.0).tolist():
                seconds[i] = self.timing.rounds_for(int(capacity[vms[i]]))[1].downtime
        minutes = np.where(rate > 0.0, seconds * rate / 60.0, 0.0)
        return minutes, self.model.latency_target_ms[vms] + seconds * 1000.0

    def _stretch(
        self, vms: np.ndarray, src_hosts, dst_hosts
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-VM stretch minutes and request latency (ms) of a batch.

        Each VM's added hops are its positive rack-distance deltas over
        its sorted ``G_d`` neighbours, summed in that order, with the
        neighbours' racks as the placement has them now.
        """
        pl = self.cluster.placement
        src = pl.host_rack[np.asarray(src_hosts, dtype=np.int64)]
        dst = pl.host_rack[np.asarray(dst_hosts, dtype=np.int64)]
        # each VM that changed racks, once per neighbour, ascending
        moved = np.flatnonzero(src != dst)
        indptr, indices = self.cluster.dependencies.csr()
        start = indptr[vms[moved]]
        degree = indptr[vms[moved] + 1] - start
        owner = np.repeat(moved, degree)
        added = np.zeros(len(vms))
        if owner.size:
            at = np.repeat(start - (degree.cumsum() - degree), degree)
            nbrs = indices[at + np.arange(owner.size)]
            nbr_racks = pl.host_rack[pl.vm_host[nbrs]]
            delta = (
                self.rack_distances[dst[owner], nbr_racks]
                - self.rack_distances[src[owner], nbr_racks]
            )
            # unbuffered and in index order: each VM's sequential sum
            np.add.at(added, owner, np.where(delta > 0.0, delta, 0.0))
        minutes = _STRETCH_MINUTES_PER_HOP * added
        latency = self.model.latency_target_ms[vms]
        return minutes, latency + _STRETCH_LATENCY_MS_PER_HOP * added

    def _fold(self, vms, sources, minutes, latency_ms, hosts) -> float:
        """Land a batch of charges as columns; returns the minutes charged.

        *sources* index :data:`VIOLATION_SOURCES`; a charge of no minutes
        is none.  Every running sum adds the charges one at a time in
        charge order (an unbuffered ``np.add.at``, or a ``cumsum`` from
        its running value), and the ``SloViolation`` rows are recorded in
        order, cut by each ``SloBudgetExhausted``.
        """
        minutes = np.asarray(minutes, dtype=np.float64)
        keep = ~(minutes <= 0.0)
        if not keep.any():
            return 0.0
        minutes = minutes[keep]
        vms = np.asarray(vms, dtype=np.int64)[keep]
        sources = np.asarray(sources, dtype=np.int64)[keep]
        tenants = self.model.tenant_code[vms].astype(np.int64)
        before = np.fromiter(self.by_class.values(), float)
        by_class, by_source = before.copy(), np.fromiter(self.by_source.values(), float)
        np.add.at(by_class, tenants, minutes)
        np.add.at(by_source, sources, minutes)
        self.by_class = dict(zip(TENANT_CLASSES, by_class.tolist()))
        self.by_source = dict(zip(VIOLATION_SOURCES, by_source.tolist()))
        self.total_minutes = _add_in_turn(self.total_minutes, minutes)
        slots = tenants * len(VIOLATION_SOURCES) + sources
        for slot in dict.fromkeys(slots.tolist()):  # in first-charge order
            t, source = divmod(slot, len(VIOLATION_SOURCES))
            key = TENANT_CLASSES[t], VIOLATION_SOURCES[source]
            held = self._round.minutes.get(key, 0.0)
            self._round.minutes[key] = _add_in_turn(held, minutes[slots == slot])
        latency = np.asarray(latency_ms, dtype=np.float64)[keep]
        for t in dict.fromkeys(tenants.tolist()):
            self._round.latency_ms.setdefault(TENANT_CLASSES[t], []).append(
                latency[tenants == t]
            )
        self._violated_this_round.update(np.unique(vms).tolist())

        tracing = self.tracer is not None and self.tracer.enabled
        if tracing:
            rows = list(zip(
                vms.tolist(),
                [TENANT_CLASSES[t] for t in tenants.tolist()],
                [VIOLATION_SOURCES[s] for s in sources.tolist()],
                minutes.tolist(),
                np.asarray(hosts)[keep].tolist(),
            ))
        start = 0
        for at, tenant, total in self._crossings(tenants, minutes, before):
            # the tenant spent its budget: noted and traced once, right
            # after the row that crossed it
            self._budget_spent.add(tenant)
            self._round.exhausted.append(tenant)
            if tracing:
                self.tracer.record(SloViolation, *rows[start : at + 1])
                self.tracer.emit(SloBudgetExhausted(
                    tenant=tenant, budget_minutes=self.budget_minutes,
                    total_minutes=total,
                ))
            start = at + 1
        if tracing and start < len(rows):
            self.tracer.record(SloViolation, *rows[start:])
        return _add_in_turn(0.0, minutes)

    def _crossings(self, tenants, minutes, before) -> List[Tuple[int, str, float]]:
        """``(charge index, tenant, running total)`` where each tenant with
        budget left first reaches it in this batch, in charge order."""
        budget = self.budget_minutes
        if budget <= 0.0:
            return []
        out = []
        for t in np.unique(tenants).tolist():
            tenant = TENANT_CLASSES[t]
            if tenant in self._budget_spent:
                continue
            mine = np.flatnonzero(tenants == t)
            running = np.cumsum(np.concatenate(([before[t]], minutes[mine])))[1:]
            hit = np.flatnonzero(~(running < budget))
            if hit.size:
                out.append((int(mine[hit[0]]), tenant, float(running[hit[0]])))
        return sorted(out)

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
    def take_round(self) -> SloRound:
        """The charges since the last take; the next charge starts anew."""
        taken, self._round = self._round, SloRound()
        return taken

    def episode_lengths(self, include_open: bool = True) -> List[int]:
        """Violation-episode lengths (rounds), closed first."""
        out = list(self._episode_lengths)
        if include_open:
            out.extend(self._open_episodes.values())
        return out

    def episode_quantile(self, q: float) -> float:
        """Interpolated *q*-quantile of episode lengths (0.0 when none);
        ``q`` outside ``[0, 1]`` raises ``ObservabilityError``."""
        return quantile(sorted(self.episode_lengths()), q)

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


def _add_in_turn(start: float, values: np.ndarray) -> float:
    """*start* plus each of *values* in order, one addition at a time."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])
