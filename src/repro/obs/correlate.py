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
from typing import Dict, Optional

from repro.obs.events import (
    AlertDelivered,
    FaultInjected,
    FlowRerouted,
    HostCrashed,
    MatchingSolved,
    MigrationAborted,
    MigrationCommitted,
    MigrationLanded,
    PrioritySelected,
    RequestAcked,
    RequestRejected,
    RequestSent,
    RequestTimedOut,
    TraceEvent,
)

__all__ = ["LifecycleStitcher"]


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
        """Assign correlation ids to one event (idempotent per event)."""
        if isinstance(event, AlertDelivered):
            event.trace_id = self._group(event.rack)
        elif isinstance(event, PrioritySelected):
            gid = self._group(event.rack)
            event.trace_id = gid
            for vm in event.selected:
                self._select(int(vm), gid)
        elif isinstance(event, FlowRerouted):
            event.trace_id = self._group(event.rack)
        elif isinstance(event, MatchingSolved):
            if event.rack is not None:
                event.trace_id = self._group(event.rack)
        elif isinstance(
            event, (RequestSent, RequestAcked, RequestRejected, RequestTimedOut)
        ):
            attempt = self._attempt_for(event.vm)
            event.trace_id = attempt.trace_id
            event.parent_id = attempt.parent_id
        elif isinstance(event, MigrationCommitted):
            attempt = self._attempt_for(event.vm)
            attempt.committed = True
            event.trace_id = attempt.trace_id
            event.parent_id = attempt.parent_id
        elif isinstance(event, (MigrationLanded, MigrationAborted)):
            attempt = self._attempt_for(event.vm)
            event.trace_id = attempt.trace_id
            event.parent_id = attempt.parent_id
            self._close(event.vm)
        elif isinstance(event, FaultInjected):
            event.trace_id = f"r{self._round}.f.{event.fault_kind}.{event.target}"
        elif isinstance(event, HostCrashed):
            event.trace_id = f"r{self._round}.f.host_crash.{event.host}"
        # ModelSelected and future kinds: no chain, leave unstamped
