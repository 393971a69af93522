"""Typed trace events — the vocabulary of the Sheriff decision story.

Every observable decision the simulator takes maps to exactly one event
class; the full schema (fields, emitting site, ordering guarantees) is
documented in ``docs/observability.md``.  Events are plain dataclasses so
they serialize to JSON with :meth:`TraceEvent.as_dict` and stay cheap to
construct — they are only built when a tracer is enabled.

The ``round`` field is stamped by the tracer (see
:meth:`repro.obs.tracer.RecordingTracer.emit`) from the engine's
``begin_round`` call, so emitting sites deep inside the migration
machinery never need to thread the round index explicitly.  The hot sites
build no event at all: they record the same field values as rows or
columns (:meth:`repro.obs.tracer.RecordingTracer.record`,
:meth:`~repro.obs.tracer.RecordingTracer.columns`), which the tracer keeps
in typed columns chosen from these annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "TraceEvent",
    "AlertDelivered",
    "PrioritySelected",
    "MatchingSolved",
    "RequestSent",
    "RequestAcked",
    "RequestRejected",
    "MigrationCommitted",
    "MigrationLanded",
    "FlowRerouted",
    "ModelSelected",
    "FallbackTransition",
    "FaultInjected",
    "HostCrashed",
    "RequestTimedOut",
    "MigrationAborted",
    "SloViolation",
    "SloBudgetExhausted",
    "EVENT_TYPES",
]


@dataclass
class TraceEvent:
    """Base class for every trace event.

    ``round`` is the management-round index the event belongs to; ``None``
    means the event happened outside a round (e.g. offline forecasting).

    ``trace_id`` correlates one migration attempt's causal chain
    (alert → PRIORITY → REQUEST → commit → landing); ``parent_id`` links
    a chain to the rack-level alert group that spawned it.  Both are
    stamped into the tracer's rows by its
    :class:`~repro.obs.correlate.LifecycleStitcher` when the log is read —
    emitting sites never compute ids, and ``emit`` leaves them unset on
    the caller's event.
    """

    round: Optional[int] = None
    trace_id: Optional[str] = None
    parent_id: Optional[str] = None

    @property
    def kind(self) -> str:
        """Event type name, stable across refactors (the class name)."""
        return type(self).__name__

    def as_dict(self) -> dict:
        """JSON-ready representation: ``{"event": kind, ...fields}``.

        The correlation fields (``trace_id``/``parent_id``) are included
        only when stamped, so an unstamped event keeps the schema-1 row
        shape.
        """
        out = {"event": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.name in ("trace_id", "parent_id"):
                continue
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


_RACK, _MAGNITUDE, _HOST, _SWITCH = map(
    attrgetter, ("rack", "magnitude", "host", "switch")
)
_KIND_NAME = attrgetter("kind._name_")  # an enum member's name, read in C


@dataclass
class AlertDelivered(TraceEvent):
    """An ALERT message reached its shim (engine dispatch)."""

    rack: int = -1
    alert_kind: str = ""
    magnitude: float = 0.0
    host: Optional[int] = None
    switch: Optional[int] = None

    @staticmethod
    def values_of(alert) -> tuple:
        """The delivery record of one ALERT as its own field values, in
        ``dataclasses.fields`` order (a row for ``Tracer.record``).

        *alert* is anything with ``rack``, ``kind`` (an enum, recorded by
        ``name``), ``magnitude``, ``host`` and ``switch``.
        """
        return (
            alert.rack,
            alert.kind.name,
            float(alert.magnitude),
            alert.host,
            alert.switch,
        )

    @staticmethod
    def columns_of(alerts) -> tuple:
        """The delivery records of *alerts* as one column per own field,
        for ``Tracer.columns``: :meth:`values_of` of each, the racks and
        magnitudes as ``int64`` / ``float64`` arrays."""
        n = len(alerts)
        return (
            np.fromiter(map(_RACK, alerts), np.int64, n),
            list(map(_KIND_NAME, alerts)),
            np.fromiter(map(_MAGNITUDE, alerts), np.float64, n),
            list(map(_HOST, alerts)),
            list(map(_SWITCH, alerts)),
        )

    @classmethod
    def of(cls, alert) -> "AlertDelivered":
        """The delivery record of one ALERT, not yet stamped."""
        return cls(None, None, None, *cls.values_of(alert))


@dataclass
class PrioritySelected(TraceEvent):
    """One PRIORITY (Alg. 2) invocation finished."""

    rack: int = -1
    factor: str = ""
    budget: Optional[int] = None
    candidates: int = 0
    selected: Tuple[int, ...] = ()


@dataclass
class MatchingSolved(TraceEvent):
    """One Kuhn–Munkres (or greedy-fallback) solve inside VMMIGRATION.

    ``elapsed_s`` is this one problem's own solve time; a first matching
    solved in the round's stacked call reads its own seconds from the
    kernel, never a share of the batch.
    """

    rack: Optional[int] = None
    rows: int = 0
    cols: int = 0
    matched: int = 0
    iteration: int = 0
    fallback: bool = False
    elapsed_s: float = 0.0


@dataclass
class RequestSent(TraceEvent):
    """Sender side: a REQUEST(vm → dst_host) left the shim."""

    vm: int = -1
    dst_host: int = -1
    dst_rack: int = -1
    src_rack: Optional[int] = None


@dataclass
class RequestAcked(TraceEvent):
    """Receiver side: the destination delegation ACKed the REQUEST."""

    vm: int = -1
    dst_host: int = -1
    dst_rack: int = -1


@dataclass
class RequestRejected(TraceEvent):
    """Receiver side: REJECT (or IGNORED), with the Alg. 4 reason."""

    vm: int = -1
    dst_host: int = -1
    dst_rack: int = -1
    reason: str = ""


@dataclass
class MigrationCommitted(TraceEvent):
    """A reserved migration was committed (instant engines: placement
    mutated; timed engines: the live-migration window started)."""

    vm: int = -1
    dst_host: int = -1


@dataclass
class MigrationLanded(TraceEvent):
    """The VM is running at its destination (instant commit or the end of
    its Fig. 2 live-migration window)."""

    vm: int = -1
    dst_host: int = -1


@dataclass
class FlowRerouted(TraceEvent):
    """A shim's FLOWREROUTE pass finished for one round."""

    rack: int = -1
    rerouted: int = 0
    failed: int = 0
    flows: Tuple[int, ...] = ()
    hot_switches: Tuple[int, ...] = ()


@dataclass
class ModelSelected(TraceEvent):
    """Dynamic model selection (Eq. 14) answered with a pool member."""

    model: str = ""
    step: int = 0
    prediction: float = 0.0


@dataclass
class FallbackTransition(TraceEvent):
    """The worst-case fallback governor switched alerting modes.

    ``mode`` is the mode *entered* (``"reactive"`` when trailing forecast
    error crossed the bound, ``"predictive"`` on recovery);
    ``trailing_error`` is the windowed mean absolute forecast error that
    drove the decision.
    """

    mode: str = ""
    trailing_error: float = 0.0
    at_round: int = -1


@dataclass
class FaultInjected(TraceEvent):
    """A scheduled fault fired (see :mod:`repro.faults`)."""

    fault_kind: str = ""
    target: int = -1
    detail: str = ""


@dataclass
class HostCrashed(TraceEvent):
    """A host died: who escaped (emergency evacuation) and who did not."""

    host: int = -1
    evacuated: Tuple[int, ...] = ()
    lost: Tuple[int, ...] = ()


@dataclass
class RequestTimedOut(TraceEvent):
    """Sender side: a REQUEST exhausted its retries without a reply."""

    vm: int = -1
    dst_host: int = -1
    dst_rack: int = -1
    attempts: int = 0


@dataclass
class MigrationAborted(TraceEvent):
    """An accepted migration was rolled back before landing."""

    vm: int = -1
    dst_host: int = -1
    reason: str = ""


@dataclass
class SloViolation(TraceEvent):
    """One VM accrued SLO-violation-minutes from one source this round.

    ``source`` names the charge origin: ``"overload"`` (the VM sat out a
    round on a host above the SLO overload threshold), ``"downtime"``
    (the stop-and-copy window of its live migration, weighted by the
    VM's request rate) or ``"stretch"`` (a placement change lengthened
    its dependency paths).
    """

    vm: int = -1
    tenant: str = ""
    source: str = ""
    minutes: float = 0.0
    host: Optional[int] = None


@dataclass
class SloBudgetExhausted(TraceEvent):
    """A tenant class spent its whole SLO error budget (emitted once)."""

    tenant: str = ""
    budget_minutes: float = 0.0
    total_minutes: float = 0.0


EVENT_TYPES: List[type] = [
    AlertDelivered,
    PrioritySelected,
    MatchingSolved,
    RequestSent,
    RequestAcked,
    RequestRejected,
    MigrationCommitted,
    MigrationLanded,
    FlowRerouted,
    ModelSelected,
    FallbackTransition,
    FaultInjected,
    HostCrashed,
    RequestTimedOut,
    MigrationAborted,
    SloViolation,
    SloBudgetExhausted,
]
