"""Tracer implementations and event payload shapes."""

import hashlib
import io
import json
import sys
from dataclasses import fields, replace
from typing import Optional, Tuple, get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alerts.alert import Alert, AlertKind
from repro.cli import main
from repro.obs.events import (
    EVENT_TYPES,
    AlertDelivered,
    MatchingSolved,
    MigrationLanded,
    PrioritySelected,
    RequestAcked,
    RequestRejected,
    RequestSent,
    SloBudgetExhausted,
    SloViolation,
)
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    Ragged,
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
        NULL_TRACER.columns(MigrationLanded, [1], [2])
        NULL_TRACER.interleave([0], (MigrationLanded, ([1], [2])))
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

    def test_an_index_reads_the_row_the_iteration_gives(self):
        # three blocks of rows, a kind first seen in the last block, preset
        # heads and round boundaries on either side of the block starts
        t = RecordingTracer()
        for r in range(3):
            t.begin_round(r)
            t.columns(MigrationLanded, list(range(3000)), [r] * 3000)
            t.emit(AlertDelivered(round=9, rack=r, alert_kind="SERVER"))
        t.record(RequestRejected, (7, 9, 2, "capacity"))
        events = list(t.events)
        assert len(events) == 9004
        for i in (0, 4095, 4096, 6001, 8191, 8192, 9002, 9003, -1, -9004):
            assert t.events[i] == events[i], i
        assert t.events[-2].round == 9 and t.events[-1].vm == 7

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


# --------------------------------------------------------------------- #
# the column store: every kind round-trips through every way in
# --------------------------------------------------------------------- #
_INT = st.integers(-(2**63), 2**63 - 1)
_VALUES = {
    int: _INT,
    float: st.floats(allow_nan=False),
    bool: st.booleans(),
    str: st.text(max_size=6),
    Optional[int]: st.none() | _INT,
    Tuple[int, ...]: st.lists(_INT, max_size=3).map(tuple),
}


def _own_fields(cls):
    return [f.name for f in fields(cls)][3:]


def _rows(cls, max_size=10):
    hints = get_type_hints(cls)
    row = st.tuples(*(_VALUES[hints[name]] for name in _own_fields(cls)))
    return st.lists(row, min_size=1, max_size=max_size)


def _as_array(cls, name, values):
    """A column as the numpy input a hot site would give."""
    hint = get_type_hints(cls)[name]
    if hint == Tuple[int, ...]:
        ptr = np.cumsum([0, *map(len, values)])
        return Ragged(np.array([v for t in values for v in t], dtype=np.int64), ptr)
    if hint == Optional[int] and None in values or hint is str:
        return np.array(values, dtype=object)
    dtype = {int: np.int64, Optional[int]: np.int64, float: np.float64, bool: np.bool_}
    return np.array(values, dtype=dtype[hint])


def _columns(rows):
    return [list(col) for col in zip(*rows)]


def _json(events):
    return [json.dumps(e.as_dict()) for e in events]


class TestColumnStore:
    """Each way into the store reads back the rows as written."""

    @pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda c: c.__name__)
    def test_every_kind_round_trips_through_every_entry_point(self, cls):
        @settings(
            max_examples=25, deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(rows=_rows(cls))
        def check(rows):
            expected = [cls(3, None, None, *row) for row in rows]
            cols = _columns(rows)
            names = _own_fields(cls)
            writes = {
                "record": lambda t: t.record(cls, *rows),
                "columns": lambda t: t.columns(cls, *cols),
                "numpy": lambda t: t.columns(
                    cls, *(_as_array(cls, n, c) for n, c in zip(names, cols))
                ),
                "interleave": lambda t: t.interleave(
                    [0] * len(rows), (cls, cols)
                ),
                "emit": lambda t: [t.emit(replace(e, round=None)) for e in expected],
            }
            reads = {}
            for way, write in writes.items():
                t = RecordingTracer()
                t.begin_round(3)
                write(t)
                reads[way] = list(t.events)
            reference = reads.pop("emit")
            # the ids are the stitcher's; every other field is the row's
            assert [replace(e, trace_id=None, parent_id=None) for e in reference] == expected
            assert _json(replace(e, trace_id=None, parent_id=None) for e in reference) == _json(expected)
            for way, events in reads.items():
                assert events == reference, way
                assert _json(events) == _json(reference), way

        check()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        script=st.lists(
            st.sampled_from([PrioritySelected, MatchingSolved, RequestSent, RequestAcked])
            .flatmap(lambda cls: _rows(cls, 1).map(lambda rows: (cls, rows[0]))),
            max_size=20,
        ),
        numpy=st.booleans(),
    )
    def test_an_interleave_is_its_rows_recorded_in_order(self, script, numpy):
        kinds = list(dict.fromkeys(cls for cls, _ in script))
        order = [kinds.index(cls) for cls, _ in script]
        blocks = []
        for cls in kinds:
            cols = _columns([row for c, row in script if c is cls])
            if numpy:
                cols = [_as_array(cls, n, c) for n, c in zip(_own_fields(cls), cols)]
            blocks.append((cls, cols))
        batch, single = RecordingTracer(), RecordingTracer()
        for t in (batch, single):
            t.begin_round(1)
        batch.interleave(np.array(order, dtype=np.int64), *blocks)
        for cls, row in script:
            single.record(cls, row)
        assert batch.kinds() == single.kinds()
        assert list(batch.events) == list(single.events)
        assert _json(batch.events) == _json(single.events)

    def test_malformed_columns_are_refused_before_any_row_is_written(self):
        t = RecordingTracer()
        t.record(MigrationLanded, (1, 2))
        with pytest.raises(TypeError):
            t.columns(MigrationLanded, [1, 2])  # one column of two
        with pytest.raises(ValueError):
            t.columns(MigrationLanded, [1, 2], [3])  # ragged columns
        with pytest.raises(ValueError):
            t.interleave([0, 1], (MigrationLanded, ([1], [2])))  # no block 1
        with pytest.raises(ValueError):
            t.interleave(  # the second block has one row, order names none
                [0, 0], (MigrationLanded, ([1, 2], [3, 4])),
                (RequestAcked, ([5], [6], [7])),
            )
        with pytest.raises(TypeError):
            t.record(MigrationLanded, (1, 2, 3))
        for selected in (
            Ragged([7], [0, 2]),  # the last pointer runs past the values
            Ragged(np.array([7, 8]), np.array([2, 1])),  # pointers fall
            Ragged([7], [-1, 1]),  # a pointer before the values
            Ragged([], []),  # no pointer at all
        ):
            with pytest.raises(ValueError):
                t.columns(PrioritySelected, [1], ["ONE"], [1], [2], selected)
        assert t.events == [MigrationLanded(None, "rNone.v1", None, 1, 2)]
        t.record(PrioritySelected, (1, "ONE", 1, 2, (8, 9)))
        assert t.events[-1].selected == (8, 9)


class TestTypeContract:
    """A value outside its field's annotation reads back exactly as it was
    written (its column becomes a list), never converted."""

    @pytest.mark.parametrize(
        "value", [True, False, None, np.int64(5), np.int32(-3), 2.0, "7"],
        ids=repr,
    )
    @pytest.mark.parametrize("way", ["record", "columns", "emit"])
    def test_an_int_field_keeps_what_it_was_given(self, value, way):
        t = RecordingTracer()
        t.record(MigrationLanded, (4, 9))
        row = (value, 1)
        if way == "record":
            t.record(MigrationLanded, row, (8, 2))
        elif way == "columns":
            t.columns(MigrationLanded, [value, 8], [1, 2])
        else:
            t.emit(MigrationLanded(None, None, None, *row))
            t.record(MigrationLanded, (8, 2))
        got = [e.vm for e in t.of_kind("MigrationLanded")]
        assert got == [4, value, 8]
        assert [type(v) for v in got] == [int, type(value), int]

    def test_every_typed_column_keeps_an_off_type_value(self):
        cases = [
            (SloBudgetExhausted, ("gold", 30, 12.5)),  # an int in a float field
            (SloBudgetExhausted, ("gold", np.float64(0.5), 1.0)),  # numpy float
            (MatchingSolved, (1, 2, 3, 2, 1, 1, 0.1)),  # an int in a bool field
            (MatchingSolved, (True, 2, 3, 2, 1, False, 0.1)),  # bool, Optional[int]
            (RequestRejected, (1, 2, 3, 5)),  # an int in a str field
            (PrioritySelected, (1, "ONE", 1, 2, [7])),  # a list in a tuple field
            (PrioritySelected, (1, "ONE", 1, 2, (True,))),  # a bool in a tuple
        ]
        for cls, row in cases:
            t = RecordingTracer()
            t.record(cls, row)
            (event,) = t.events
            values = tuple(getattr(event, n) for n in _own_fields(cls))
            assert values == row
            assert list(map(type, values)) == list(map(type, row)), (cls, row)

    @pytest.mark.parametrize("way", ["record", "columns", "emit"])
    def test_a_str_subclass_is_not_read_back_as_the_table_string(self, way):
        t = RecordingTracer()
        t.record(RequestRejected, (7, 9, 2, "capacity"))
        reason = np.str_("capacity")
        if way == "record":
            t.record(RequestRejected, (8, 9, 2, reason))
        elif way == "columns":
            t.columns(RequestRejected, [8], [9], [2], [reason])
        else:
            t.emit(RequestRejected(vm=8, dst_host=9, dst_rack=2, reason=reason))
        got = [e.reason for e in t.events]
        assert got == ["capacity", "capacity"]
        assert [type(v) for v in got] == [str, np.str_]

    def test_an_array_column_is_its_tolist(self):
        t = RecordingTracer()
        t.columns(
            MatchingSolved, np.array([1]), np.array([2], dtype=np.int32),
            np.array([3]), np.array([2]), np.array([1]), np.array([True]),
            np.array([0.25], dtype=np.float32),
        )
        (event,) = t.events
        assert event == MatchingSolved(None, "rNone.k1", None, 1, 2, 3, 2, 1, True, 0.25)
        assert (type(event.rows), type(event.fallback), type(event.elapsed_s)) == (
            int, bool, float,
        )


class TestStoreSize:
    @pytest.mark.parametrize("way", ["record", "interleave"])
    def test_a_request_log_holds_at_most_40_bytes_a_row(self, way):
        # a flat log of value pointers and row offsets takes ~62 B a row
        # for these rows before its value objects; typed columns take ~31
        t = RecordingTracer()
        t.begin_round(0)
        n = 5_000
        vms, hosts, racks = np.arange(n), np.arange(n) % 97, np.arange(n) % 13
        if way == "record":
            for vm, host, rack in zip(vms.tolist(), hosts.tolist(), racks.tolist()):
                t.record(RequestSent, (vm, host, rack, rack + 1))
                t.record(RequestAcked, (vm, host, rack))
        else:
            for part in np.array_split(np.arange(n), 10):
                pair = (vms[part], hosts[part], racks[part])
                t.interleave(
                    np.tile([0, 1], part.size), (RequestSent, (*pair, racks[part] + 1)),
                    (RequestAcked, pair),
                )
        assert len(t.events) == 2 * n
        held = sum(sys.getsizeof(buf) for buf in t._buffers())
        assert held / (2 * n) <= 40, held / (2 * n)

    def test_a_written_round_leaves_the_store_empty(self):
        t = JsonlTracer(io.StringIO())
        t.begin_round(0)
        t.record(RequestRejected, (7, 9, 2, "capacity"))
        t.columns(PrioritySelected, [1], ["ONE"], [1], [2], Ragged([7], [0, 1]))
        t.emit(SloViolation(vm=3, tenant="gold", source="stretch", minutes=0.5))
        assert any(len(buf) for buf in t._buffers())
        t.begin_round(1)  # writes round 0 and drops it
        assert [len(buf) for buf in t._buffers()] == [0] * len(list(t._buffers()))
