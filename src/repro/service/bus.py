"""A deterministic in-process event bus.

The bus is the service core's observer tap (see ``docs/service.md``):
publishers hand it :class:`~repro.service.events.ServiceEvent` values,
subscribers receive them synchronously, and the dispatch order is a
pure function of (subscription order, publish order) — no threads, no
wall clock, no randomness, so an audit that subscribes to a seeded run
sees the same stream run after run.  Nothing the engine decides depends
on a subscriber: with none attached, ``publish`` counts the event and
returns.

Semantics
---------
* **Typed subscription.**  ``subscribe(EventType, handler)`` receives
  every published event that is an instance of ``EventType`` (subclass
  match included, so subscribing to :class:`ServiceEvent` observes
  everything).
* **Subscription order.**  An event's handlers run in the order they
  subscribed.  An event published from inside a handler is dispatched
  right there, before the publishing handler returns.
* **Counting.**  ``counts`` tallies published events by kind (cheap,
  always on); to keep the events themselves, subscribe a
  ``list.append`` to :class:`ServiceEvent`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Type

from repro.service.events import ServiceEvent

__all__ = ["EventBus", "Subscription"]

Handler = Callable[[ServiceEvent], None]


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; supports cancel."""

    __slots__ = ("bus", "event_type", "handler", "active")

    def __init__(
        self, bus: "EventBus", event_type: Type[ServiceEvent], handler: Handler
    ) -> None:
        self.bus = bus
        self.event_type = event_type
        self.handler = handler
        self.active = True

    def cancel(self) -> None:
        """Stop receiving events (idempotent)."""
        if self.active:
            self.bus._subscriptions.remove(self)
            self.active = False


class EventBus:
    """Deterministic synchronous pub/sub over typed service events."""

    def __init__(self) -> None:
        self._subscriptions: List[Subscription] = []
        self.counts: Counter = Counter()
        """Published events tallied by ``kind`` (always maintained)."""

    # ------------------------------------------------------------------ #
    def subscribe(
        self, event_type: Type[ServiceEvent], handler: Handler
    ) -> Subscription:
        """Register *handler* for events of *event_type* (and subclasses).

        Handlers run in subscription order.  Returns a
        :class:`Subscription` whose ``cancel()`` detaches the handler.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, ServiceEvent)):
            raise TypeError(f"subscribe() needs a ServiceEvent type, got {event_type!r}")
        sub = Subscription(self, event_type, handler)
        self._subscriptions.append(sub)
        return sub

    def subscriber_count(self, event_type: Type[ServiceEvent]) -> int:
        """Handlers that would see an event of exactly *event_type*."""
        return sum(issubclass(event_type, s.event_type) for s in self._subscriptions)

    # ------------------------------------------------------------------ #
    def publish(self, event: ServiceEvent) -> None:
        """Publish *event* to every matching handler, in subscription order.

        The handlers are the ones subscribed when the call starts; one
        cancelled by an earlier handler of the same event is skipped.
        """
        if not isinstance(event, ServiceEvent):
            raise TypeError(f"publish() needs a ServiceEvent, got {event!r}")
        self.counts[event.kind] += 1
        for sub in tuple(self._subscriptions):
            if sub.active and isinstance(event, sub.event_type):
                sub.handler(event)
