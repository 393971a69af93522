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
* **Priority.**  Handlers for one event run in descending ``priority``;
  ties break by subscription order.
* **Run-to-completion.**  An event's handlers all finish before the
  next event dispatches.  Events published *from inside* a handler are
  queued FIFO and dispatched after the current event completes — a
  handler never observes a half-dispatched cascade.
* **Counting.**  ``counts`` tallies published events by kind (cheap,
  always on); to keep the events themselves, subscribe a
  ``list.append`` to :class:`ServiceEvent`.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Callable, Deque, Dict, List, Tuple, Type

from repro.service.events import ServiceEvent

__all__ = ["EventBus", "Subscription"]

Handler = Callable[[ServiceEvent], None]


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; supports cancel."""

    __slots__ = ("bus", "event_type", "key", "active")

    def __init__(
        self,
        bus: "EventBus",
        event_type: Type[ServiceEvent],
        key: Tuple[int, int],
    ) -> None:
        self.bus = bus
        self.event_type = event_type
        self.key = key
        self.active = True

    def cancel(self) -> None:
        """Stop receiving events (idempotent)."""
        if self.active:
            self.bus._unsubscribe(self)
            self.active = False


class EventBus:
    """Deterministic synchronous pub/sub over typed service events."""

    def __init__(self) -> None:
        # event_type -> ordered list of (sort_key, handler, subscription);
        # sort_key = (-priority, seq) so plain list-sort gives dispatch order
        self._subscribers: Dict[
            Type[ServiceEvent], List[Tuple[Tuple[int, int], Handler, Subscription]]
        ] = {}
        # event_type -> merged+sorted dispatch list; rebuilt lazily after
        # any subscribe/unsubscribe (dispatch order is unchanged — the
        # cache just avoids re-merging the MRO on every publish)
        self._dispatch_cache: Dict[
            Type[ServiceEvent], List[Tuple[Tuple[int, int], Handler, Subscription]]
        ] = {}
        self._queue: Deque[ServiceEvent] = deque()
        self._dispatching = False
        self._seq = 0
        self.counts: Counter = Counter()
        """Published events tallied by ``kind`` (always maintained)."""

    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        event_type: Type[ServiceEvent],
        handler: Handler,
        *,
        priority: int = 0,
    ) -> Subscription:
        """Register *handler* for events of *event_type* (and subclasses).

        Higher *priority* handlers run earlier; equal priorities run in
        subscription order.  Returns a :class:`Subscription` whose
        ``cancel()`` detaches the handler.
        """
        if not (isinstance(event_type, type) and issubclass(event_type, ServiceEvent)):
            raise TypeError(f"subscribe() needs a ServiceEvent type, got {event_type!r}")
        self._seq += 1
        key = (-priority, self._seq)
        sub = Subscription(self, event_type, key)
        self._subscribers.setdefault(event_type, []).append((key, handler, sub))
        self._dispatch_cache.clear()
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        entries = self._subscribers.get(sub.event_type, [])
        self._subscribers[sub.event_type] = [e for e in entries if e[2] is not sub]
        self._dispatch_cache.clear()

    def subscriber_count(self, event_type: Type[ServiceEvent]) -> int:
        """Handlers that would see an event of exactly *event_type*."""
        return len(self._handlers_for(event_type))

    # ------------------------------------------------------------------ #
    def publish(self, event: ServiceEvent) -> None:
        """Publish *event*; dispatches synchronously (run-to-completion).

        When called from inside a handler, the event is queued and
        dispatched after the in-flight event's handlers finish.
        """
        if not isinstance(event, ServiceEvent):
            raise TypeError(f"publish() needs a ServiceEvent, got {event!r}")
        self.counts[event.kind] += 1
        if not self._subscribers:
            # nobody listening: the event would queue, drain and dispatch
            # to an empty handler list — skip the machinery entirely
            return
        self._queue.append(event)
        if not self._dispatching:
            self._drain()

    def _handlers_for(
        self, event_type: Type[ServiceEvent]
    ) -> List[Tuple[Tuple[int, int], Handler, Subscription]]:
        cached = self._dispatch_cache.get(event_type)
        if cached is not None:
            return cached
        merged: List[Tuple[Tuple[int, int], Handler, Subscription]] = []
        for klass in event_type.__mro__:
            if klass in self._subscribers:
                merged.extend(self._subscribers[klass])
        merged.sort(key=lambda entry: entry[0])
        self._dispatch_cache[event_type] = merged
        return merged

    def _drain(self) -> None:
        self._dispatching = True
        try:
            while self._queue:
                event = self._queue.popleft()
                for _, handler, sub in self._handlers_for(type(event)):
                    if sub.active:
                        handler(event)
        finally:
            self._dispatching = False
