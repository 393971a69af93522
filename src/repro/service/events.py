"""Typed service events — the vocabulary of the Sheriff event bus.

These are *control-plane* notifications for observers: the engine
announces that a round opened, a rack was planned and the round closed;
the serve-mode driver announces shed alerts and lifecycle changes.
Nothing in the round reads them back — the serve driver, metric bridges
and audits subscribe on ``sim.bus`` instead of reaching into the engine.
Per-decision facts (each alert delivered, each REQUEST and its verdict,
each commit, each injected fault) live in the *observability* trace
events of :mod:`repro.obs.events`; the two vocabularies share no class
name, and a service event summarizes many trace events (one
:class:`RackPlanned` per shim vs one ``PrioritySelected`` per Alg. 2
invocation).

All events are frozen dataclasses: once published they are immutable,
so every subscriber sees the same value regardless of dispatch order.
The full taxonomy (fields, publisher, ordering guarantees) is
documented in ``docs/service.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

__all__ = [
    "ServiceEvent",
    "RoundOpened",
    "AlertShed",
    "RackPlanned",
    "RoundClosed",
    "ServiceStateChanged",
    "SERVICE_EVENT_TYPES",
]


@dataclass(frozen=True)
class ServiceEvent:
    """Base class of every bus event.

    ``round`` is the management-round index the event belongs to;
    ``None`` means the event happened outside any round (service
    lifecycle, shed decisions while the planner is busy).
    """

    round: Optional[int] = None

    @property
    def kind(self) -> str:
        """Stable event-type name (the class name)."""
        return type(self).__name__

    def as_dict(self) -> dict:
        """JSON-ready representation: ``{"event": kind, ...fields}``."""
        out = {"event": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


@dataclass(frozen=True)
class RoundOpened(ServiceEvent):
    """The engine opened a management round (ingest window closed)."""

    alerts: int = 0


@dataclass(frozen=True)
class AlertShed(ServiceEvent):
    """Backpressure: an alert was dropped because the ingest queue was
    full (see ``ServeSettings.shed_policy``)."""

    rack: int = -1
    policy: str = ""
    queue_depth: int = 0


@dataclass(frozen=True)
class RackPlanned(ServiceEvent):
    """One shim finished Alg. 1 for the round (plan + execute)."""

    rack: int = -1
    alerts_processed: int = 0
    selected: Tuple[int, ...] = ()
    requested: int = 0
    acked: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class RoundClosed(ServiceEvent):
    """A management round fully completed (summary recorded)."""

    alerts: int = 0
    migrations: int = 0
    total_cost: float = 0.0
    degraded: bool = False


@dataclass(frozen=True)
class ServiceStateChanged(ServiceEvent):
    """The serve-mode driver changed lifecycle state
    (``starting`` → ``serving`` → ``draining`` → ``stopped``)."""

    state: str = ""


SERVICE_EVENT_TYPES: List[type] = [
    RoundOpened,
    AlertShed,
    RackPlanned,
    RoundClosed,
    ServiceStateChanged,
]
