"""EventBus semantics: typed dispatch, priority, run-to-completion."""

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
    def test_priority_then_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(RoundOpened, lambda e: calls.append("low"), priority=-5)
        bus.subscribe(RoundOpened, lambda e: calls.append("first"), priority=10)
        bus.subscribe(RoundOpened, lambda e: calls.append("a"), priority=0)
        bus.subscribe(RoundOpened, lambda e: calls.append("b"), priority=0)
        bus.publish(_opened())
        assert calls == ["first", "a", "b", "low"]

    def test_base_and_exact_subscribers_merge_by_priority(self):
        bus = EventBus()
        calls = []
        bus.subscribe(ServiceEvent, lambda e: calls.append("any"), priority=0)
        bus.subscribe(RoundOpened, lambda e: calls.append("exact"), priority=1)
        bus.publish(_opened())
        assert calls == ["exact", "any"]

    def test_run_to_completion(self):
        # an event published from a handler dispatches after the current
        # event's remaining handlers — never interleaved
        bus = EventBus()
        calls = []

        def cascade(event):
            calls.append("open:first")
            bus.publish(
                RoundClosed(round=0, alerts=0, migrations=0, total_cost=0.0)
            )

        bus.subscribe(RoundOpened, cascade, priority=1)
        bus.subscribe(RoundOpened, lambda e: calls.append("open:second"))
        bus.subscribe(RoundClosed, lambda e: calls.append("closed"))
        bus.publish(_opened())
        assert calls == ["open:first", "open:second", "closed"]


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
