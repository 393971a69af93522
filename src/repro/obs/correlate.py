"""Lifecycle correlation: causal trace ids across a migration attempt.

The flat event stream answers *what* happened; this module answers *which
attempt* each event belongs to.  A :class:`LifecycleStitcher` rides inside
every enabled tracer's ``emit`` path and stamps two fields onto events:

* ``trace_id`` — the causal chain the event belongs to.  Rack-level
  events (``AlertDelivered``, ``PrioritySelected``, ``FlowRerouted``,
  ``MatchingSolved``) share one *alert-group* id per ``(round, rack)``;
  per-VM protocol events (``RequestSent`` → ``RequestAcked`` /
  ``RequestRejected`` / ``RequestTimedOut`` → ``MigrationCommitted`` →
  ``MigrationAborted`` / ``MigrationLanded``) share one *attempt* id per
  migration attempt; fault events get one id per fault firing.
* ``parent_id`` — on attempt events, the alert-group id of the
  ``PrioritySelected`` invocation that put the VM into the migration set
  (``None`` for attempts minted outside Alg. 2, e.g. emergency
  evacuations off a crashed host).

Id grammar (stable, parseable by the ``repro trace`` CLI):

* alert group:  ``r<round>.k<rack>``
* VM attempt:   ``r<minted_round>.v<vm>``
* fault firing: ``r<round>.f.<fault_kind>.<target>``

Stamping happens at **emit time**, never at event construction: shims
emit in deterministic rack order, so the id sequence is a function of the
seed alone.  An attempt id outlives its round
when the migration is in flight (timed engine): the id minted at
selection sticks until ``MigrationLanded``/``MigrationAborted`` closes
the attempt, which is exactly what lets the CLI measure alert→landed
latency in rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.obs.events import (
    AlertDelivered,
    FallbackTransition,
    FaultInjected,
    FlowRerouted,
    HostCrashed,
    MatchingSolved,
    MigrationAborted,
    MigrationCommitted,
    MigrationLanded,
    ModelSelected,
    PrioritySelected,
    RequestAcked,
    RequestRejected,
    RequestSent,
    RequestTimedOut,
    SloBudgetExhausted,
    SloViolation,
    TraceEvent,
)

__all__ = ["LifecycleStitcher", "UNSTAMPED"]


@dataclass
class _Attempt:
    """One open migration attempt (selection → terminal event)."""

    trace_id: str
    parent_id: Optional[str]
    minted_round: Optional[int]
    committed: bool = False


class LifecycleStitcher:
    """Stamps ``trace_id``/``parent_id`` onto events as they are emitted.

    Purely observational: it mutates only the two correlation fields of
    events that are already being recorded, so the tracer-on decision
    path is untouched and the tracer-off path never constructs one.
    """

    def __init__(self) -> None:
        self._round: Optional[int] = None
        self._attempts: Dict[int, _Attempt] = {}

    # ------------------------------------------------------------------ #
    def begin_round(self, index: int) -> None:
        self._round = index

    def _group(self, rack: int) -> str:
        return f"r{self._round}.k{rack}"

    def _mint(self, vm: int, parent: Optional[str]) -> _Attempt:
        attempt = _Attempt(
            trace_id=f"r{self._round}.v{vm}",
            parent_id=parent,
            minted_round=self._round,
        )
        self._attempts[vm] = attempt
        return attempt

    def _select(self, vm: int, parent: str) -> None:
        """A PRIORITY invocation put *vm* into the migration set.

        Mints a fresh attempt unless one is already open for this round
        (two Alg. 2 invocations can select the same VM — first mint wins)
        or the VM is in flight (frozen VMs can still appear in
        ``PrioritySelected.selected``; their committed attempt must keep
        its id until the landing closes it).
        """
        attempt = self._attempts.get(vm)
        if attempt is not None and (
            attempt.committed or attempt.minted_round == self._round
        ):
            return
        self._mint(vm, parent)

    def _attempt_for(self, vm: int) -> _Attempt:
        """The VM's open attempt, minted on first sight if absent.

        First-sight minting covers chains that start outside Alg. 2 —
        emergency evacuations off a crashed host send REQUESTs for VMs no
        PRIORITY ever selected.
        """
        attempt = self._attempts.get(vm)
        if attempt is None:
            attempt = self._mint(vm, None)
        return attempt

    def _close(self, vm: int) -> None:
        self._attempts.pop(vm, None)

    # ------------------------------------------------------------------ #
    def stamp(self, event: TraceEvent) -> None:
        """Assign correlation ids to one event (idempotent per event).

        One dict probe on the event's exact type; a kind on neither
        :data:`_STAMPERS` nor :data:`UNSTAMPED` would go unstamped, and
        ``tests/obs/test_correlate.py`` fails until it picks one.
        """
        stamper = _STAMPERS.get(type(event))
        if stamper is not None:
            stamper(self, event)

    def _stamp_group(self, event) -> None:
        event.trace_id = self._group(event.rack)

    def _stamp_priority(self, event: PrioritySelected) -> None:
        gid = event.trace_id = self._group(event.rack)
        for vm in event.selected:
            self._select(int(vm), gid)

    def _stamp_matching(self, event: MatchingSolved) -> None:
        if event.rack is not None:
            event.trace_id = self._group(event.rack)

    def _stamp_attempt(self, event) -> _Attempt:
        attempt = self._attempt_for(event.vm)
        event.trace_id = attempt.trace_id
        event.parent_id = attempt.parent_id
        return attempt

    def _stamp_commit(self, event: MigrationCommitted) -> None:
        self._stamp_attempt(event).committed = True

    def _stamp_close(self, event) -> None:
        self._stamp_attempt(event)
        self._close(event.vm)

    def _stamp_fault(self, event: FaultInjected) -> None:
        event.trace_id = f"r{self._round}.f.{event.fault_kind}.{event.target}"

    def _stamp_crash(self, event: HostCrashed) -> None:
        event.trace_id = f"r{self._round}.f.host_crash.{event.host}"


_STAMPERS: Dict[type, Callable[[LifecycleStitcher, Any], None]] = {
    AlertDelivered: LifecycleStitcher._stamp_group,
    PrioritySelected: LifecycleStitcher._stamp_priority,
    FlowRerouted: LifecycleStitcher._stamp_group,
    MatchingSolved: LifecycleStitcher._stamp_matching,
    RequestSent: LifecycleStitcher._stamp_attempt,
    RequestAcked: LifecycleStitcher._stamp_attempt,
    RequestRejected: LifecycleStitcher._stamp_attempt,
    RequestTimedOut: LifecycleStitcher._stamp_attempt,
    MigrationCommitted: LifecycleStitcher._stamp_commit,
    MigrationLanded: LifecycleStitcher._stamp_close,
    MigrationAborted: LifecycleStitcher._stamp_close,
    FaultInjected: LifecycleStitcher._stamp_fault,
    HostCrashed: LifecycleStitcher._stamp_crash,
}
"""Event type -> how it is stamped; matched on the exact type."""

UNSTAMPED = (ModelSelected, FallbackTransition, SloViolation, SloBudgetExhausted)
"""Kinds that belong to no causal chain and keep ``trace_id`` unset."""
