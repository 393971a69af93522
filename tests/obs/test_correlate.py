"""Lifecycle correlation: ids stamped for the stored rows when they are read."""

import dataclasses
import inspect
import io
import json
from itertools import groupby

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SheriffConfig
from repro.obs import events as events_module
from repro.obs.correlate import _STAMPERS, UNSTAMPED
from repro.obs.events import (
    EVENT_TYPES,
    AlertDelivered,
    FaultInjected,
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
    SloViolation,
)
from repro.obs.tracer import JsonlTracer, RecordingTracer
from repro.sim.engine import SheriffSimulation
from repro.sim.inflight import MigrationTiming
from repro.sim.scenario import inject_fraction_alerts
from tests.obs.test_integration import _cluster

_PROTOCOL = {
    "RequestSent",
    "RequestAcked",
    "RequestRejected",
    "RequestTimedOut",
    "MigrationCommitted",
    "MigrationLanded",
    "MigrationAborted",
}


def _read(*script):
    """Emit *script* (an ``int`` is a ``begin_round``) and read it back."""
    t = RecordingTracer()
    for step in script:
        if isinstance(step, int):
            t.begin_round(step)
        else:
            t.emit(step)
    return list(t.events)


def _own(event):
    """An event's own field values: the row ``Tracer.record`` takes."""
    return dataclasses.astuple(event)[3:]


class TestStitcherUnit:
    def test_rack_events_share_the_alert_group_id(self):
        alert = AlertDelivered(rack=5, alert_kind="SERVER", magnitude=0.9)
        prio = PrioritySelected(rack=5, factor="ALPHA", selected=(7,))
        read = _read(3, alert, prio)
        assert [e.trace_id for e in read] == ["r3.k5", "r3.k5"]
        # emit stamps only the round on the caller's event, never an id
        assert alert.round == prio.round == 3
        assert alert.trace_id is None and prio.trace_id is None
        # a group is one round's: the next round mints the rack a new id
        ids = [e.trace_id for e in _read(0, dataclasses.replace(alert), 1, alert)]
        assert ids == ["r0.k5", "r1.k5"]

    def test_selection_mints_attempt_with_group_parent(self):
        *_, sent = _read(
            2,
            PrioritySelected(rack=1, factor="ALPHA", selected=(9,)),
            RequestSent(vm=9, dst_host=4, dst_rack=2),
        )
        assert sent.trace_id == "r2.v9"
        assert sent.parent_id == "r2.k1"

    def test_unselected_vm_mints_on_first_sight_without_parent(self):
        # emergency evacuations send REQUESTs no PRIORITY ever selected
        (sent,) = _read(4, RequestSent(vm=3, dst_host=1, dst_rack=0))
        assert sent.trace_id == "r4.v3"
        assert sent.parent_id is None

    def test_committed_attempt_survives_reselection(self):
        # frozen in-flight VMs still appear in PrioritySelected.selected;
        # their open attempt keeps its id until the landing closes it
        *_, landed = _read(
            0,
            PrioritySelected(rack=0, factor="ALPHA", selected=(5,)),
            RequestSent(vm=5, dst_host=2, dst_rack=1),
            RequestAcked(vm=5, dst_host=2, dst_rack=1),
            MigrationCommitted(vm=5, dst_host=2),
            1,
            PrioritySelected(rack=0, factor="ALPHA", selected=(5,)),
            MigrationLanded(vm=5, dst_host=2),
        )
        assert landed.trace_id == "r0.v5"
        assert landed.parent_id == "r0.k0"

    def test_closed_attempt_reopens_fresh_next_round(self):
        *_, sent = _read(
            0,
            PrioritySelected(rack=0, factor="ALPHA", selected=(5,)),
            MigrationLanded(vm=5, dst_host=2),
            3,
            PrioritySelected(rack=0, factor="ALPHA", selected=(5,)),
            RequestSent(vm=5, dst_host=9, dst_rack=2),
        )
        assert sent.trace_id == "r3.v5"

    def test_fault_events_get_fault_ids(self):
        fault, crash = _read(
            6,
            FaultInjected(fault_kind="shim_down", target=2, detail="until-round-8"),
            HostCrashed(host=11),
        )
        assert fault.trace_id == "r6.f.shim_down.2"
        assert crash.trace_id == "r6.f.host_crash.11"

    def test_uncorrelated_kinds_stay_unstamped(self):
        (ev,) = _read(0, ModelSelected(model="arima", step=3, prediction=0.5))
        assert ev.trace_id is None
        assert "trace_id" not in ev.as_dict()

    def test_ids_come_from_the_boundary_not_a_preset_round(self):
        # a preset ``round`` is kept on the row; the ids use the round of
        # the last begin_round, as stamping at emit did
        prio, sent = _read(
            7,
            PrioritySelected(round=2, rack=1, factor="ALPHA", selected=(4,)),
            RequestSent(vm=4, dst_host=0, dst_rack=0),
        )
        assert (prio.round, prio.trace_id) == (2, "r7.k1")
        assert (sent.trace_id, sent.parent_id) == ("r7.v4", "r7.k1")

    def test_a_read_stitches_without_building_events(self, monkeypatch):
        t = RecordingTracer()
        t.begin_round(1)
        t.emit(PrioritySelected(rack=0, factor="ALPHA", selected=(5,)))
        t.record(RequestSent, (5, 2, 1, 0))

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in EVENT_TYPES:
            monkeypatch.setattr(cls, "__init__", forbidden)
        assert t.of_kind("NoSuchKind") == []  # a read: the rows are stamped
        monkeypatch.undo()
        assert [e.trace_id for e in t.events] == ["r1.k0", "r1.v5"]


class TestStampTable:
    """Each kind's row rule is one probe on the exact type: every kind chooses."""

    def _kinds(self):
        return {
            cls
            for _, cls in inspect.getmembers(events_module, inspect.isclass)
            if issubclass(cls, events_module.TraceEvent)
            and cls is not events_module.TraceEvent
        }

    def test_every_event_kind_is_stamped_or_listed_unstamped(self):
        stamped, unstamped = set(_STAMPERS), set(UNSTAMPED)
        assert not stamped & unstamped
        missing = self._kinds() - stamped - unstamped
        assert not missing, (
            f"new trace event kinds {sorted(c.__name__ for c in missing)}: "
            "add a stamper to repro.obs.correlate._STAMPERS or list them in UNSTAMPED"
        )
        assert stamped | unstamped == self._kinds()

    def test_listed_unstamped_kinds_keep_no_ids(self):
        script = [1]
        for cls in UNSTAMPED:
            required = [
                f.name
                for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ]
            script.append(cls(**dict.fromkeys(required, 0)))
        for ev in _read(*script):
            assert ev.trace_id is None and ev.parent_id is None


# --------------------------------------------------------------------- #
# reading at any point gives the ids of one read at the end
# --------------------------------------------------------------------- #
_VMS = st.integers(0, 3)
_RACKS = st.integers(0, 2)
_ROUNDS = st.none() | st.integers(0, 5)
_EVENTS = st.one_of(
    st.builds(AlertDelivered, round=_ROUNDS, rack=_RACKS, alert_kind=st.just("SERVER")),
    st.builds(
        PrioritySelected,
        round=_ROUNDS,
        rack=_RACKS,
        factor=st.just("ONE"),
        selected=st.lists(_VMS, max_size=2).map(tuple),
    ),
    st.builds(MatchingSolved, round=_ROUNDS, rack=st.none() | _RACKS),
    *(
        st.builds(cls, round=_ROUNDS, vm=_VMS)
        for cls in (
            RequestSent, RequestAcked, RequestRejected, RequestTimedOut,
            MigrationCommitted, MigrationLanded, MigrationAborted, SloViolation,
        )
    ),
    st.builds(
        FaultInjected, round=_ROUNDS, fault_kind=st.just("switch_fail"), target=_RACKS
    ),
    st.builds(HostCrashed, round=_ROUNDS, host=_VMS),
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("round"), st.integers(0, 5)),
        st.tuples(st.just("emit"), _EVENTS),
        st.tuples(st.just("record"), st.lists(_EVENTS, min_size=1, max_size=3)),
        st.just(("read",)),
        st.just(("clear",)),
    ),
    max_size=40,
)


class TestReadTimeStitching:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(ops=_OPS)
    def test_ids_do_not_depend_on_when_the_log_is_read(self, ops):
        # ``read`` reads the log (stitching what is new); ``clear`` stamps
        # and drops it.  Another tracer fed the same calls and read once at
        # the end, and a JsonlTracer, must give the same events and ids.
        piecewise, once = RecordingTracer(), RecordingTracer()
        stream = io.StringIO()
        tracers = (piecewise, once, JsonlTracer(stream))
        reads, base = [], 0  # base: index in ``once`` of piecewise's row 0
        for op in ops:
            if op[0] == "round":
                for t in tracers:
                    t.begin_round(op[1])
            elif op[0] == "emit":
                for t in tracers:
                    # emit stamps the round onto its event: one copy each
                    t.emit(dataclasses.replace(op[1]))
            elif op[0] == "record":
                for kind, events in groupby(op[1], type):
                    rows = [_own(e) for e in events]
                    for t in tracers:
                        t.record(kind, *rows)
            elif op[0] == "read":
                reads.append((base, list(piecewise.events)))
            else:
                piecewise.clear()
                base = len(once.events)  # len stamps nothing
        tracers[2].close()
        final = list(once.events)
        assert list(piecewise.events) == final[base:]
        for start, seen in reads:
            assert seen == final[start : start + len(seen)]
        header, *lines = stream.getvalue().splitlines()
        assert json.loads(header) == {"schema_version": 2}
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(e.as_dict())) for e in final
        ]


class TestEndToEndCorrelation:
    def test_every_protocol_event_is_stamped(self):
        tracer = RecordingTracer()
        cluster = _cluster(seed=11, fill=0.7, skew=1.0)
        sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
        for r in range(4):
            alerts, vma = inject_fraction_alerts(cluster, 0.3, time=r, seed=70 + r)
            sim.run_round(alerts, vma)
        protocol = [e for e in tracer.events if e.kind in _PROTOCOL]
        assert protocol, "run produced no protocol events"
        assert all(e.trace_id is not None for e in protocol)

    def test_attempt_chain_is_consistent_across_rounds(self):
        # timed migrations: the id minted at selection must still be on
        # the landing emitted rounds later
        tracer = RecordingTracer()
        cluster = _cluster(seed=11, fill=0.7, skew=1.0)
        sim = SheriffSimulation(
            cluster,
            SheriffConfig(tracer=tracer, migration_timing=MigrationTiming()),
        )
        for r in range(6):
            alerts, vma = inject_fraction_alerts(cluster, 0.3, time=r, seed=70 + r)
            sim.run_round(alerts, vma)
        landings = tracer.of_kind("MigrationLanded")
        assert landings, "run produced no landings"
        commits = {
            (e.vm, e.trace_id) for e in tracer.of_kind("MigrationCommitted")
        }
        for landed in landings:
            assert (landed.vm, landed.trace_id) in commits
