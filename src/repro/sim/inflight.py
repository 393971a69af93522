"""In-flight migrations: live-migration duration in the round engine.

The base engine commits migrations instantaneously and approximates the
migration window with a cooldown.  This module models Fig. 2 properly:

* when a migration is accepted, the **destination capacity is reserved
  immediately** (the Reservation stage) while the VM keeps running — and
  consuming capacity — at the source (pre-copy runs with the VM live);
* the move **completes after the six-stage timeline elapses**, measured
  in management rounds; only then does the placement change and the
  source capacity free up;
* a VM in flight can neither migrate again nor accept a second
  reservation.

During the window the fleet genuinely holds 2× the VM's capacity — the
real cost of live migration the paper's ``C_r`` abstracts away.

Admission against the holds is Alg. 4's job: a
:class:`~repro.migration.request.ReceiverRegistry` built with the tracker
refuses in-flight VMs and hold-blocked hosts, and its commit starts the
accepted moves here, a round's at once (:meth:`InFlightTracker.start_many`)
when every start passes.  :meth:`InFlightTracker.start` keeps its own
capacity check as a safety net, and ``start_many`` the same check once
per destination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.costs.precopy import MigrationTimeline, precopy_timeline
from repro.errors import ConfigurationError, MigrationError, ReproError
from repro.migration.request import _ONE_WRITE

__all__ = ["MigrationTiming", "InFlightTracker"]


@dataclass(frozen=True)
class MigrationTiming:
    """How VM size maps to migration duration (see :mod:`repro.costs.precopy`).

    Every field is finite; all but ``dirty_fraction`` are positive, and
    ``dirty_fraction`` is non-negative.  A ``dirty_fraction`` of 1 or more
    is legal: that pre-copy cannot converge, which :meth:`rounds_for`
    reports as a :class:`~repro.errors.MigrationError`.
    """

    mem_per_capacity_mb: float = 128.0
    dirty_fraction: float = 0.08
    bandwidth_mbps: float = 125.0
    round_seconds: float = 60.0
    downtime_target: float = 0.06

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigurationError(
                    f"MigrationTiming.{f.name} must be a finite number, got {value!r}"
                )
            if f.name == "dirty_fraction" and value < 0:
                raise ConfigurationError(
                    f"MigrationTiming.dirty_fraction must be >= 0, got {value!r}"
                )
            if f.name != "dirty_fraction" and value <= 0:
                raise ConfigurationError(
                    f"MigrationTiming.{f.name} must be > 0, got {value!r}"
                )

    @functools.lru_cache(maxsize=None)
    def rounds_for(self, capacity: int) -> Tuple[int, MigrationTimeline]:
        """Rounds the migration of a *capacity*-sized VM occupies (>= 1).

        Memoized per ``(timing, capacity)``: the timing is frozen and the
        timeline it returns is immutable, so every caller shares one solve.
        """
        tl = precopy_timeline(
            memory=capacity * self.mem_per_capacity_mb,
            dirty_rate=self.dirty_fraction * self.bandwidth_mbps,
            bandwidth=self.bandwidth_mbps,
            downtime_target=self.downtime_target,
        )
        return max(1, math.ceil(tl.total / self.round_seconds)), tl


@dataclass
class _InFlight:
    vm: int
    src_host: int
    dst_host: int
    complete_round: int
    timeline: MigrationTimeline


class InFlightTracker:
    """Tracks migrations between acceptance and completion."""

    def __init__(self, cluster: Cluster, timing: MigrationTiming) -> None:
        self.cluster = cluster
        self.timing = timing
        self._active: Dict[int, _InFlight] = {}  # vm -> record
        self._holds: Dict[int, int] = {}  # dst host -> reserved capacity

    # ------------------------------------------------------------------ #
    @property
    def vms_in_flight(self) -> frozenset:
        return frozenset(self._active)

    def __contains__(self, vm: int) -> bool:
        """Whether *vm* is in flight: one dict probe, no set built."""
        return vm in self._active

    def hold_on(self, host: int) -> int:
        """Capacity currently reserved on *host* by in-flight arrivals."""
        return self._holds.get(host, 0)

    def destination(self, vm: int) -> int:
        """The host *vm* is in flight to, or -1."""
        rec = self._active.get(vm)
        return -1 if rec is None else rec.dst_host

    def start(self, vm: int, dst_host: int, now: int) -> int:
        """Begin a migration; returns its completion round.

        The destination hold is taken immediately; the placement is not
        touched until :meth:`complete_due`.
        """
        if vm in self._active:
            raise MigrationError(f"vm {vm} is already in flight")
        pl = self.cluster.placement
        need = int(pl.vm_capacity[vm])
        free = pl.free_capacity(dst_host) - self.hold_on(dst_host)
        if free < need:
            raise MigrationError(
                f"host {dst_host} lacks {need} free (has {free}) for vm {vm}"
            )
        rounds, tl = self.timing.rounds_for(need)
        rec = _InFlight(
            vm=vm,
            src_host=int(pl.vm_host[vm]),
            dst_host=dst_host,
            complete_round=now + rounds,
            timeline=tl,
        )
        self._active[vm] = rec
        self._holds[dst_host] = self.hold_on(dst_host) + need
        return rec.complete_round

    def start_many(self, vms: Sequence[int], dst_hosts: Sequence[int], now: int) -> bool:
        """Begin each ``vms[i]`` → ``dst_hosts[i]`` migration, in order, when
        each :meth:`start` in turn would pass: known, distinct VMs, none in
        flight; each known destination's arrivals within its free room less
        its hold; every pre-copy timeline solving.  Else nothing changes and
        ``False`` is returned."""
        pl = self.cluster.placement
        active, holds = self._active, self._holds
        if len(set(vms)) < len(vms) or not active.keys().isdisjoint(vms):
            return False
        if not all(0 <= vm < pl.num_vms for vm in vms):
            return False
        need = pl.vm_capacity[vms].tolist()
        arriving: Dict[int, int] = {}
        for host, c in zip(dst_hosts, need):
            arriving[host] = arriving.get(host, 0) + c
        if not all(0 <= host < pl.num_hosts for host in arriving) or any(
            total > pl.free_capacity(host) - holds.get(host, 0)
            for host, total in arriving.items()
        ):
            return False
        try:
            timed = {c: self.timing.rounds_for(c) for c in set(need)}
        except ReproError:  # a pre-copy that cannot converge, say
            return False
        for vm, src, host, c in zip(vms, pl.vm_host[vms].tolist(), dst_hosts, need):
            rounds, tl = timed[c]
            active[vm] = _InFlight(vm, src, host, now + rounds, tl)
        for host, total in arriving.items():
            holds[host] = holds.get(host, 0) + total
        return True

    def abort(self, vm: int) -> _InFlight:
        """Cancel *vm*'s in-flight migration, releasing its destination hold.

        The placement is untouched (the VM never left its source), so an
        abort is a pure rollback of the Reservation stage.  Returns the
        cancelled record; raises :class:`MigrationError` if *vm* is not in
        flight.
        """
        rec = self._active.pop(vm, None)
        if rec is None:
            raise MigrationError(f"vm {vm} is not in flight")
        need = int(self.cluster.placement.vm_capacity[vm])
        self._holds[rec.dst_host] -= need
        if self._holds[rec.dst_host] <= 0:
            del self._holds[rec.dst_host]
        return rec

    def complete_due(self, now: int) -> List[_InFlight]:
        """Finish every migration whose window has elapsed, in VM order.

        Returns the completed records: each keeps its VM, source and
        destination host and pre-copy timeline, so bookkeeping after the
        landing (e.g. the SLO accountant) needs no second walk.  The
        placement mutates here (the Fig. 2 Activation stage): in one
        :meth:`~repro.cluster.placement.Placement.migrate_many` write when
        every landing passes, else one :meth:`Placement.migrate` at a time.
        """
        due = [rec for _, rec in sorted(self._active.items()) if rec.complete_round <= now]
        pl = self.cluster.placement
        vms = [rec.vm for rec in due]
        one_write = len(due) >= _ONE_WRITE and pl.migrate_many(
            vms, [rec.dst_host for rec in due]
        )
        holds = self._holds
        for rec, need in zip(due, pl.vm_capacity[vms].tolist()):
            holds[rec.dst_host] -= need
            if holds[rec.dst_host] <= 0:
                del holds[rec.dst_host]
            del self._active[rec.vm]
            if not one_write:
                pl.migrate(rec.vm, rec.dst_host)
        return due
