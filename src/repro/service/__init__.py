"""The service core (see ``docs/service.md``).

* :mod:`repro.service.round` — the management round: one
  :class:`RoundState` and the eight stage functions of
  :data:`ROUND_STAGES` that ``SheriffSimulation.run_round`` calls in
  order;
* :mod:`repro.service.events` — the five typed bus events
  (``RoundOpened``, ``RackPlanned``, ``RoundClosed`` from the engine;
  ``AlertShed``, ``ServiceStateChanged`` from the serve driver);
* :mod:`repro.service.bus` — the deterministic in-process
  :class:`EventBus` (typed, subscription-order dispatch), the
  observer tap those events are published on;
* :mod:`repro.service.ingest` — continuous alert sources for serve
  mode (seeded trace replay, JSONL streams);
* :mod:`repro.service.server` — the asyncio always-on driver behind
  ``repro serve`` (bounded-queue backpressure, ``/healthz`` +
  ``/metrics``, graceful drain).

Re-exports resolve lazily (PEP 562) so that ``repro.sim.engine`` can
import :mod:`repro.service.round` without dragging in the asyncio
server — which itself imports the engine — keeping the import graph
cycle-free (``make lint`` checks this).
"""

from typing import TYPE_CHECKING

_LAZY_EXPORTS = {
    "ServiceEvent": "repro.service.events",
    "RoundOpened": "repro.service.events",
    "AlertShed": "repro.service.events",
    "RackPlanned": "repro.service.events",
    "RoundClosed": "repro.service.events",
    "ServiceStateChanged": "repro.service.events",
    "SERVICE_EVENT_TYPES": "repro.service.events",
    "EventBus": "repro.service.bus",
    "Subscription": "repro.service.bus",
    "RoundState": "repro.service.round",
    "ROUND_STAGES": "repro.service.round",
    "ReplayAlertSource": "repro.service.ingest",
    "JsonlAlertSource": "repro.service.ingest",
    "ServeSettings": "repro.service.server",
    "SheriffService": "repro.service.server",
}

__all__ = sorted(_LAZY_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static names for type checkers
    from repro.service.bus import EventBus, Subscription
    from repro.service.events import (
        SERVICE_EVENT_TYPES,
        AlertShed,
        RackPlanned,
        RoundClosed,
        RoundOpened,
        ServiceEvent,
        ServiceStateChanged,
    )
    from repro.service.ingest import JsonlAlertSource, ReplayAlertSource
    from repro.service.round import ROUND_STAGES, RoundState
    from repro.service.server import ServeSettings, SheriffService


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
