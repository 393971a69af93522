"""Lifecycle correlation: causal trace ids across a migration attempt.

The flat event stream answers *what* happened; this module answers *which
attempt* each event belongs to.  A :class:`LifecycleStitcher` is a pass
over an enabled tracer's row log, run when the log is read, that writes
two fields into each row:

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

Ids are a function of the rows in emission order and of the round
boundaries between them (``<round>`` is the index of the last
``begin_round`` before the row, whatever the row's own ``round``), so
stamping them when the log is read gives exactly the ids stamping at emit
would have: shims emit in deterministic rack order, so the id sequence is
a function of the seed alone.  An alert-group id is minted once per
``(round, rack)`` and shared by every event of that group.  An attempt id
outlives its round when the migration is in flight (timed engine): the id
minted at selection sticks until ``MigrationLanded``/``MigrationAborted``
closes the attempt, which is exactly what lets the CLI measure
alert→landed latency in rounds.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
)

__all__ = ["LifecycleStitcher", "UNSTAMPED"]

# a row is its event's field values in ``dataclasses.fields`` order:
# ``round``, ``trace_id``, ``parent_id``, then the kind's own fields
_TRACE, _PARENT = 1, 2

_Attempt = Tuple[str, Optional[str], Optional[int], bool]
"""One open migration attempt (selection → terminal event): its trace id,
parent id, minted round and whether it is committed."""

Rule = Tuple[str, int, Optional[int]]
"""How one kind's rows are stamped: the rule name from :data:`_STAMPERS`
and the row offsets of the fields it reads."""


class LifecycleStitcher:
    """Writes ``trace_id``/``parent_id`` into a row log, one pass per read.

    Purely observational: it runs over rows already recorded and writes
    only their two correlation slots, so the decision path never sees it,
    and it builds no event object.  Its state (this round's groups, the
    open attempts) carries over from one pass to the next, so stitching a
    log piecewise gives the ids of one pass at the end.
    """

    def __init__(self) -> None:
        self._round: Optional[int] = None
        self._attempts: Dict[int, _Attempt] = {}
        # this round's alert-group ids, one minted per rack
        self._groups: Dict[int, str] = {}

    def begin_round(self, index: int) -> None:
        self._round = index
        self._groups.clear()

    @staticmethod
    def rule(cls: type) -> Optional[Rule]:
        """How a row of exactly kind *cls* is stamped, or ``None`` for a
        kind that is left unstamped (looked up once per kind)."""
        entry = _STAMPERS.get(cls)
        if entry is None:
            return None
        names = [f.name for f in fields(cls)]
        how, key, *second = entry
        return how, names.index(key), names.index(second[0]) if second else None

    def stitch(
        self,
        codes: Sequence[int],
        starts: Sequence[int],
        values: List[Any],
        rules: Sequence[Optional[Rule]],
        begin: int,
        end: int,
        marks: Sequence[Tuple[int, int]],
    ) -> None:
        """Stamp rows ``begin:end`` of a row log in place.

        ``codes[i]`` is row *i*'s kind code (an index into *rules*) and
        ``starts[i]`` its first index into *values*; *marks* are the
        ``(row, round)`` of every ``begin_round`` since the last pass, in
        order, each at a row in ``begin..end``.
        """
        for at, index in marks:
            self._rows(codes, starts, values, rules, begin, at)
            self.begin_round(index)
            begin = at
        self._rows(codes, starts, values, rules, begin, end)

    def _rows(self, codes, starts, values, rules, begin: int, end: int) -> None:
        """Stamp rows ``begin:end``, all of the current round."""
        rnd, groups, attempts = self._round, self._groups, self._attempts
        for code, start in zip(codes[begin:end], starts[begin:end]):
            rule = rules[code]
            if rule is None:
                continue
            how, at, extra = rule
            key = values[start + at]
            if how == "group":
                if key is None:  # a centralized MatchingSolved has no rack
                    continue
                gid = groups.get(key)
                if gid is None:
                    gid = groups[key] = f"r{rnd}.k{key}"
                values[start + _TRACE] = gid
                if extra is not None:
                    # PRIORITY put each selected VM into the migration set:
                    # mint a fresh attempt unless one is already open for
                    # this round (two Alg. 2 invocations can select the
                    # same VM — first mint wins) or it is committed (a
                    # frozen in-flight VM keeps its id until it lands)
                    for vm in values[start + extra]:
                        vm = int(vm)
                        attempt = attempts.get(vm)
                        if attempt is None or not (attempt[3] or attempt[2] == rnd):
                            attempts[vm] = (f"r{rnd}.v{vm}", gid, rnd, False)
            elif how == "fault":
                kind = "host_crash" if extra is None else values[start + extra]
                values[start + _TRACE] = f"r{rnd}.f.{kind}.{key}"
            else:
                # a protocol event stamps its VM's open attempt, minted on
                # first sight: chains can start outside Alg. 2 (emergency
                # evacuations off a crashed host)
                attempt = attempts.get(key)
                if attempt is None:
                    attempt = attempts[key] = (f"r{rnd}.v{key}", None, rnd, False)
                values[start + _TRACE] = attempt[0]
                values[start + _PARENT] = attempt[1]
                if how == "commit":  # the id now outlives the round
                    attempts[key] = attempt[:3] + (True,)
                elif how == "close":
                    del attempts[key]


_STAMPERS: Dict[type, tuple] = {
    # kind: (rule, the field it keys on, the field of its second read)
    AlertDelivered: ("group", "rack"),
    PrioritySelected: ("group", "rack", "selected"),
    FlowRerouted: ("group", "rack"),
    MatchingSolved: ("group", "rack"),
    RequestSent: ("attempt", "vm"),
    RequestAcked: ("attempt", "vm"),
    RequestRejected: ("attempt", "vm"),
    RequestTimedOut: ("attempt", "vm"),
    MigrationCommitted: ("commit", "vm"),
    MigrationLanded: ("close", "vm"),
    MigrationAborted: ("close", "vm"),
    FaultInjected: ("fault", "target", "fault_kind"),
    HostCrashed: ("fault", "host"),
}
"""Event type -> how its rows are stamped; matched on the exact type."""

UNSTAMPED = (ModelSelected, FallbackTransition, SloViolation, SloBudgetExhausted)
"""Kinds that belong to no causal chain and keep ``trace_id`` unset."""
