"""Tracer implementations and event payload shapes."""

import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cli import main
from repro.obs.events import (
    EVENT_TYPES,
    AlertDelivered,
    MatchingSolved,
    PrioritySelected,
    RequestRejected,
)
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    Tracer,
    load_trace,
)

CHAOS_TRACE_SHA256 = (
    "38716b87f871462b3ebe8f5ceacfcd1d858380334aec23f049faec9a848361c7"
)
CHAOS_SLO_TRACE_SHA256 = (
    "a2bffee010485461fb7d331b35b540d7d1d7ba0d7ed1011c40fd1fa5c77f3d76"
)


def _chaos_rows(tmp_path, *extra):
    """The seeded chaos JSONL rows, minus the one wall-clock field."""
    path = tmp_path / "chaos.jsonl"
    rc = main(
        [
            "chaos", "--size", "4", "--rounds", "8", "--seed", "2015",
            *extra, "--trace", str(path),
        ]
    )
    assert rc == 0
    rows = load_trace(path)
    for row in rows:
        row.pop("elapsed_s", None)
    return rows


def _sha256(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _forbidden(self, *args, **kwargs):
    raise AssertionError(f"built a {type(self).__name__}")


class TestNullTracer:
    def test_disabled_singleton(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert isinstance(NULL_TRACER, Tracer)

    def test_emit_is_noop(self):
        NULL_TRACER.emit(AlertDelivered(rack=0, alert_kind="SERVER", magnitude=0.5))
        NULL_TRACER.begin_round(3)


class TestRecordingTracer:
    def test_records_in_order(self):
        t = RecordingTracer()
        assert t.enabled is True
        a = AlertDelivered(rack=0, alert_kind="SERVER", magnitude=0.5)
        b = RequestRejected(vm=1, dst_host=4, dst_rack=1, reason="capacity")
        t.emit(a)
        t.emit(b)
        # emit leaves the ids unset on the caller's events; a read stamps
        assert a.trace_id is None and b.trace_id is None
        stamped_b = replace(b, trace_id="rNone.v1")
        assert t.events == [replace(a, trace_id="rNone.k0"), stamped_b]
        assert t.kinds() == ["AlertDelivered", "RequestRejected"]
        assert t.of_kind("RequestRejected") == [stamped_b]

    def test_record_writes_rows_without_events(self, monkeypatch):
        t = RecordingTracer()
        t.begin_round(5)
        monkeypatch.setattr(RequestRejected, "__init__", _forbidden)
        t.record(RequestRejected, (1, 4, 1, "capacity"), (2, 6, 1, "capacity"))
        assert t.kinds() == ["RequestRejected"] * 2
        monkeypatch.undo()
        assert t.events == [
            RequestRejected(5, "r5.v1", None, 1, 4, 1, "capacity"),
            RequestRejected(5, "r5.v2", None, 2, 6, 1, "capacity"),
        ]
        t.record(RequestRejected)  # no rows, no record
        assert len(t.events) == 2

    def test_begin_round_stamps_events(self):
        t = RecordingTracer()
        t.begin_round(0)
        t.emit(AlertDelivered(rack=0, alert_kind="SERVER", magnitude=0.5))
        t.begin_round(1)
        t.emit(AlertDelivered(rack=1, alert_kind="SERVER", magnitude=0.6))
        assert [e.round for e in t.events] == [0, 1]

    def test_clear(self):
        t = RecordingTracer()
        t.emit(AlertDelivered(rack=0, alert_kind="SERVER", magnitude=0.5))
        t.clear()
        assert t.events == [] and len(t.events) == 0 and t.kinds() == []
        t.emit(AlertDelivered(rack=2, alert_kind="SERVER", magnitude=0.5))
        assert [e.rack for e in t.events] == [2]


class TestTraceLogView:
    """``RecordingTracer.events`` is a read-only view over stored rows."""

    def _tracer(self):
        """A four-event log and the events a read gives back, stamped."""
        t = RecordingTracer()
        t.begin_round(4)
        events = [
            AlertDelivered(rack=1, alert_kind="SERVER", magnitude=0.5, host=3),
            PrioritySelected(rack=1, factor="ONE", budget=1, candidates=2, selected=(7,)),
            RequestRejected(vm=7, dst_host=9, dst_rack=2, reason="capacity"),
            AlertDelivered(rack=2, alert_kind="LOCAL_TOR", magnitude=0.8),
        ]
        for e in events:
            t.emit(e)
        ids = [("r4.k1", None), ("r4.k1", None), ("r4.v7", "r4.k1"), ("r4.k2", None)]
        return t, [
            replace(e, trace_id=trace, parent_id=parent)
            for e, (trace, parent) in zip(events, ids)
        ]

    def test_sequence_contract(self):
        t, events = self._tracer()
        log = t.events
        assert len(log) == 4
        assert log == events and log == t.events
        assert log[-1] == events[-1] and log[-4] == events[0]
        assert log[1:3] == events[1:3] and log[::-1] == events[::-1]
        assert list(log) == events
        assert log.index(events[2]) == 2 and events[1] in log
        with pytest.raises(IndexError):
            log[4]
        assert log != events[:3] and log != "not a log"

    def test_reads_build_fresh_equal_objects(self):
        t, events = self._tracer()
        assert t.events[0] == events[0]
        assert t.events[0] is not t.events[0]
        assert [e.trace_id for e in t.events] == [
            "r4.k1", "r4.k1", "r4.v7", "r4.k2"
        ]
        assert t.events[2].parent_id == "r4.k1"

    def test_a_record_is_a_snapshot_taken_at_emit_time(self):
        t = RecordingTracer()
        event = AlertDelivered(rack=0, alert_kind="SERVER", magnitude=0.5)
        t.emit(event)
        event.magnitude = 9.0
        event.rack = 5
        assert (t.events[0].rack, t.events[0].magnitude) == (0, 0.5)

    def test_a_preset_round_is_kept(self):
        t = RecordingTracer()
        t.begin_round(3)
        t.emit(AlertDelivered(round=1, rack=0, alert_kind="SERVER"))
        t.emit(AlertDelivered(rack=0, alert_kind="SERVER"))
        assert [e.round for e in t.events] == [1, 3]

    def test_kinds_and_of_kind_build_no_other_kind(self, monkeypatch):
        t, events = self._tracer()
        for cls in (AlertDelivered, PrioritySelected, RequestRejected):
            monkeypatch.setattr(cls, "__init__", _forbidden)
        assert t.kinds() == [
            "AlertDelivered", "PrioritySelected", "RequestRejected", "AlertDelivered"
        ]
        monkeypatch.undo()
        monkeypatch.setattr(AlertDelivered, "__init__", _forbidden)
        monkeypatch.setattr(PrioritySelected, "__init__", _forbidden)
        assert t.of_kind("RequestRejected") == [events[2]]
        assert t.of_kind("MigrationLanded") == []

    def test_deliveries_in_one_call_equal_one_emit_per_alert(self, tmp_path):
        alerts = [
            Alert(kind=AlertKind.SERVER, rack=1, magnitude=np.float64(0.7), host=4),
            Alert(kind=AlertKind.OUTER_SWITCH, rack=1, magnitude=0.9, switch=12),
            Alert(kind=AlertKind.LOCAL_TOR, rack=3, magnitude=0.8),
        ]
        assert [AlertDelivered.of(a) for a in alerts] == [
            AlertDelivered(rack=1, alert_kind="SERVER", magnitude=0.7, host=4),
            AlertDelivered(rack=1, alert_kind="OUTER_SWITCH", magnitude=0.9, switch=12),
            AlertDelivered(rack=3, alert_kind="LOCAL_TOR", magnitude=0.8),
        ]
        rows = [AlertDelivered.values_of(a) for a in alerts]
        batch, single = RecordingTracer(), RecordingTracer()
        for t in (batch, single):
            t.begin_round(2)
        batch.record(AlertDelivered, *rows)
        for alert in alerts:
            single.emit(AlertDelivered.of(alert))
        assert batch.events == single.events == [
            replace(AlertDelivered.of(a), round=2, trace_id=gid)
            for a, gid in zip(alerts, ("r2.k1", "r2.k1", "r2.k3"))
        ]
        assert [type(e.magnitude) for e in batch.events] == [float] * 3
        assert [e.trace_id for e in batch.events] == ["r2.k1", "r2.k1", "r2.k3"]
        paths = (tmp_path / "batch.jsonl", tmp_path / "single.jsonl")
        for path, batched in zip(paths, (True, False)):
            with JsonlTracer.open(path) as t:
                t.begin_round(2)
                if batched:
                    t.record(AlertDelivered, *rows)
                else:
                    for alert in alerts:
                        t.emit(AlertDelivered.of(alert))
        assert paths[0].read_text() == paths[1].read_text()
        assert [row["trace_id"] for row in load_trace(paths[0])] == [
            "r2.k1", "r2.k1", "r2.k3"
        ]
        NULL_TRACER.record(AlertDelivered, *rows)

    def test_the_chaos_trace_is_pinned(self, tmp_path, capsys):
        # recorded on the tree before the row log and the batched
        # dispatch: the JSONL stream minus the one wall-clock field
        rows = _chaos_rows(tmp_path)
        assert len(rows) == 609
        assert _sha256(rows) == CHAOS_TRACE_SHA256

    def test_the_chaos_trace_with_slo_rows_is_pinned(self, tmp_path, capsys):
        # recorded before the ledger charged a landing batch in one call
        # and before ids were stamped at read: the same run with the SLO
        # ledger on adds its SloViolation rows
        rows = _chaos_rows(tmp_path, "--slo")
        assert len(rows) == 677
        assert sum(row["event"] == "SloViolation" for row in rows) == 68
        assert _sha256(rows) == CHAOS_SLO_TRACE_SHA256


class TestJsonlTracer:
    def test_writes_one_json_object_per_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer.open(path) as t:
            t.begin_round(7)
            t.emit(
                PrioritySelected(
                    rack=2, factor="ALPHA", budget=3, candidates=5, selected=(1, 4)
                )
            )
            t.emit(
                MatchingSolved(
                    rack=2,
                    rows=3,
                    cols=9,
                    matched=3,
                    iteration=1,
                    fallback=False,
                    elapsed_s=0.001,
                )
            )
            assert len(t.events) == 2  # held until the round ends
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # schema header + two events
        header = json.loads(lines[0])
        assert header == {"schema_version": 2}
        first = json.loads(lines[1])
        assert first["event"] == "PrioritySelected"
        assert first["round"] == 7
        assert first["selected"] == [1, 4]  # tuples serialize as lists
        assert first["trace_id"] == "r7.k2"
        second = json.loads(lines[2])
        assert second["event"] == "MatchingSolved"
        assert second["fallback"] is False

    def test_holds_one_round_and_writes_it_at_the_boundary(self):
        stream = io.StringIO()
        t = JsonlTracer(stream)  # a caller-owned stream
        t.begin_round(0)
        t.emit(AlertDelivered(rack=1, alert_kind="SERVER", magnitude=0.5))
        assert stream.getvalue().count("\n") == 1  # the header; round 0 held
        assert len(t.events) == 1
        t.begin_round(1)
        assert len(t.events) == 0 and stream.getvalue().count("\n") == 2
        t.record(RequestRejected, (7, 9, 2, "capacity"))
        t.close()  # writes the last round, leaves the stream open
        rows = [json.loads(line) for line in stream.getvalue().splitlines()[1:]]
        assert rows == [
            {"event": "AlertDelivered", "round": 0, "trace_id": "r0.k1", "rack": 1,
             "alert_kind": "SERVER", "magnitude": 0.5, "host": None, "switch": None},
            {"event": "RequestRejected", "round": 1, "trace_id": "r1.v7", "vm": 7,
             "dst_host": 9, "dst_rack": 2, "reason": "capacity"},
        ]

    def test_load_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTracer.open(path) as t:
            t.begin_round(0)
            t.emit(AlertDelivered(rack=1, alert_kind="SERVER", magnitude=0.9))
        events = load_trace(path)
        assert len(events) == 1
        assert events[0]["event"] == "AlertDelivered"
        assert events[0]["round"] == 0

    def test_load_trace_accepts_headerless_schema_1(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text('{"event": "AlertDelivered", "rack": 0}\n')
        assert load_trace(path)[0]["rack"] == 0

    def test_load_trace_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"schema_version": 99}\n')
        import pytest

        with pytest.raises(ValueError):
            load_trace(path)


class TestEventShapes:
    def test_every_event_type_round_trips_through_as_dict(self):
        # every documented type constructs, has a stable kind and a
        # JSON-serializable payload
        kinds = set()
        for cls in EVENT_TYPES:
            event = cls()
            d = event.as_dict()
            assert d["event"] == event.kind == cls.__name__
            json.dumps(d)  # must not raise
            kinds.add(event.kind)
        assert len(kinds) == len(EVENT_TYPES) == 17
