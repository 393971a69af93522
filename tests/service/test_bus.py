"""EventBus semantics: typed dispatch in subscription order."""

import pytest

import repro.obs.events as trace_events
from repro.service.bus import EventBus
from repro.service.events import (
    SERVICE_EVENT_TYPES,
    AlertShed,
    RoundClosed,
    RoundOpened,
    ServiceEvent,
)


def _opened(n=0):
    return RoundOpened(round=n, alerts=0)


class TestSubscription:
    def test_typed_delivery(self):
        bus = EventBus()
        got = []
        bus.subscribe(RoundOpened, got.append)
        bus.publish(_opened())
        bus.publish(RoundClosed(round=0, alerts=0, migrations=0, total_cost=0.0))
        assert [e.kind for e in got] == ["RoundOpened"]

    def test_base_class_subscription_sees_everything(self):
        bus = EventBus()
        got = []
        bus.subscribe(ServiceEvent, got.append)
        bus.publish(_opened())
        bus.publish(AlertShed(rack=1, policy="drop-oldest", queue_depth=4))
        assert [e.kind for e in got] == ["RoundOpened", "AlertShed"]

    def test_cancel_detaches(self):
        bus = EventBus()
        got = []
        sub = bus.subscribe(RoundOpened, got.append)
        bus.publish(_opened(0))
        sub.cancel()
        sub.cancel()  # idempotent
        bus.publish(_opened(1))
        assert len(got) == 1
        assert bus.subscriber_count(RoundOpened) == 0

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)

    def test_publish_rejects_non_events(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.publish("RoundOpened")


class TestOrdering:
    def test_base_and_exact_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(ServiceEvent, lambda e: calls.append("any"))
        bus.subscribe(RoundOpened, lambda e: calls.append("exact"))
        bus.subscribe(ServiceEvent, lambda e: calls.append("any again"))
        bus.publish(_opened())
        assert calls == ["any", "exact", "any again"]
        assert bus.subscriber_count(RoundOpened) == 3
        assert bus.subscriber_count(RoundClosed) == 2

    def test_publish_from_a_handler_dispatches_at_once(self):
        # an event published from a handler reaches its handlers before
        # the publishing handler returns
        bus = EventBus()
        calls = []

        def cascade(event):
            calls.append("open:first")
            bus.publish(
                RoundClosed(round=0, alerts=0, migrations=0, total_cost=0.0)
            )
            calls.append("open:first done")

        bus.subscribe(RoundOpened, cascade)
        bus.subscribe(RoundOpened, lambda e: calls.append("open:second"))
        bus.subscribe(RoundClosed, lambda e: calls.append("closed"))
        bus.publish(_opened())
        assert calls == ["open:first", "closed", "open:first done", "open:second"]

    def test_handlers_are_the_ones_subscribed_when_publish_starts(self):
        bus = EventBus()
        calls = []
        late = []

        def first(event):
            calls.append("first")
            second.cancel()
            bus.subscribe(RoundOpened, late.append)

        bus.subscribe(RoundOpened, first)
        second = bus.subscribe(RoundOpened, lambda e: calls.append("second"))
        bus.publish(_opened(0))
        assert calls == ["first"] and late == []
        bus.publish(_opened(1))
        assert [e.round for e in late] == [1]


class TestRecording:
    def test_counts_always_on(self):
        bus = EventBus()
        bus.publish(_opened(0))
        bus.publish(_opened(1))
        assert bus.counts["RoundOpened"] == 2


def test_service_and_trace_vocabularies_share_no_name():
    # a bus event summarizes, a trace event records the per-decision fact;
    # one class name must never mean both
    trace_names = {c.__name__ for c in trace_events.TraceEvent.__subclasses__()}
    assert "RequestSent" in trace_names
    assert len(SERVICE_EVENT_TYPES) == 5
    assert not {c.__name__ for c in SERVICE_EVENT_TYPES} & trace_names
