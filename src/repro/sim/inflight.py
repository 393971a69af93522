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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.costs.precopy import MigrationTimeline, precopy_timeline
from repro.errors import ConfigurationError, MigrationError, ProtocolError
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["MigrationTiming", "InFlightTracker", "TimedReceiverRegistry"]


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
        placement mutates here (the Fig. 2 Activation stage).
        """
        done: List[_InFlight] = []
        pl = self.cluster.placement
        for vm in sorted(self._active):
            rec = self._active[vm]
            if rec.complete_round <= now:
                need = int(pl.vm_capacity[vm])
                self._holds[rec.dst_host] -= need
                if self._holds[rec.dst_host] <= 0:
                    del self._holds[rec.dst_host]
                del self._active[vm]
                pl.migrate(vm, rec.dst_host)
                done.append(rec)
        return done


class TimedReceiverRegistry(ReceiverRegistry):
    """Alg. 4 receiver that starts timed migrations instead of instant moves.

    ACK semantics are unchanged (FCFS, capacity, conflict graph), but the
    capacity check additionally subtracts in-flight holds, requests for
    in-flight VMs are rejected outright, and ``commit_round`` hands the
    reservations to the :class:`InFlightTracker` rather than migrating.
    """

    def __init__(
        self,
        cluster: Cluster,
        tracker: InFlightTracker,
        *,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(cluster, tracer=tracer)
        self.tracker = tracker
        self._now = 0

    def set_round(self, now: int) -> None:
        self._now = now

    def request(self, vm: int, dst_host: int, dst_rack: int):
        if vm in self.tracker:
            return self._verdict(
                RequestOutcome.REJECT, vm, dst_host, dst_rack, "in-flight"
            )
        pl = self.cluster.placement
        if 0 <= dst_host < pl.num_hosts:
            # fold the in-flight holds into the capacity check by
            # pre-promising them for the duration of this request
            extra = self.tracker.hold_on(dst_host)
            if extra:
                free = (
                    pl.free_capacity(dst_host)
                    - self._promised.get(dst_host, 0)
                    - extra
                )
                if 0 <= vm < pl.num_vms and free < int(pl.vm_capacity[vm]):
                    return self._verdict(
                        RequestOutcome.REJECT, vm, dst_host, dst_rack,
                        "capacity-hold",
                    )
        return super().request(vm, dst_host, dst_rack)

    def commit_round(self) -> List[Tuple[int, int]]:
        """Start (not finish) every accepted migration; returns the pairs.

        Atomic like the base class: a failing :meth:`InFlightTracker.start`
        aborts every migration already started this commit before the error
        propagates.
        """
        started: List[Tuple[int, int]] = []
        try:
            for res in self._reservations:
                self.tracker.start(res.vm, res.host, self._now)
                started.append((res.vm, res.host))
        except Exception as exc:
            self._record_commits(started)
            for vm, _host in reversed(started):
                self.tracker.abort(vm)
            self.reset_round()
            raise ProtocolError(
                f"timed commit aborted; {len(started)} started migrations "
                "cancelled"
            ) from exc
        self._record_commits(started)
        self.reset_round()
        return started

    def commit_round_tolerant(
        self,
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, str]]]:
        """Start what can be started; report per-reservation failures.

        Degraded-mode variant for fault-injection runs: a reservation that
        cannot start (non-convergent pre-copy, destination died) is skipped
        and reported instead of aborting the round.
        """
        started: List[Tuple[int, int]] = []
        failed: List[Tuple[int, int, str]] = []
        for res in self._reservations:
            try:
                self.tracker.start(res.vm, res.host, self._now)
            except (MigrationError, ConfigurationError) as exc:
                failed.append((res.vm, res.host, str(exc)))
                continue
            started.append((res.vm, res.host))
        self._record_commits(started)
        self.reset_round()
        return started, failed
