"""Lifecycle correlation: id minting, stamping, and chain integrity."""

import dataclasses
import inspect

from repro.config import SheriffConfig
from repro.obs import events as events_module
from repro.obs.correlate import _STAMPERS, UNSTAMPED, LifecycleStitcher
from repro.obs.events import (
    AlertDelivered,
    FaultInjected,
    MigrationCommitted,
    MigrationLanded,
    ModelSelected,
    PrioritySelected,
    RequestAcked,
    RequestSent,
)
from repro.obs.tracer import RecordingTracer
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


class TestStitcherUnit:
    def test_rack_events_share_the_alert_group_id(self):
        s = LifecycleStitcher()
        s.begin_round(3)
        alert = AlertDelivered(rack=5, alert_kind="SERVER", magnitude=0.9)
        prio = PrioritySelected(rack=5, factor="ALPHA", selected=(7,))
        s.stamp(alert)
        s.stamp(prio)
        assert alert.trace_id == prio.trace_id == "r3.k5"

    def test_selection_mints_attempt_with_group_parent(self):
        s = LifecycleStitcher()
        s.begin_round(2)
        s.stamp(PrioritySelected(rack=1, factor="ALPHA", selected=(9,)))
        sent = RequestSent(vm=9, dst_host=4, dst_rack=2)
        s.stamp(sent)
        assert sent.trace_id == "r2.v9"
        assert sent.parent_id == "r2.k1"

    def test_unselected_vm_mints_on_first_sight_without_parent(self):
        # emergency evacuations send REQUESTs no PRIORITY ever selected
        s = LifecycleStitcher()
        s.begin_round(4)
        sent = RequestSent(vm=3, dst_host=1, dst_rack=0)
        s.stamp(sent)
        assert sent.trace_id == "r4.v3"
        assert sent.parent_id is None

    def test_committed_attempt_survives_reselection(self):
        # frozen in-flight VMs still appear in PrioritySelected.selected;
        # their open attempt keeps its id until the landing closes it
        s = LifecycleStitcher()
        s.begin_round(0)
        s.stamp(PrioritySelected(rack=0, factor="ALPHA", selected=(5,)))
        s.stamp(RequestSent(vm=5, dst_host=2, dst_rack=1))
        s.stamp(RequestAcked(vm=5, dst_host=2, dst_rack=1))
        s.stamp(MigrationCommitted(vm=5, dst_host=2))
        s.begin_round(1)
        s.stamp(PrioritySelected(rack=0, factor="ALPHA", selected=(5,)))
        landed = MigrationLanded(vm=5, dst_host=2)
        s.stamp(landed)
        assert landed.trace_id == "r0.v5"

    def test_closed_attempt_reopens_fresh_next_round(self):
        s = LifecycleStitcher()
        s.begin_round(0)
        s.stamp(PrioritySelected(rack=0, factor="ALPHA", selected=(5,)))
        s.stamp(MigrationLanded(vm=5, dst_host=2))
        s.begin_round(3)
        s.stamp(PrioritySelected(rack=0, factor="ALPHA", selected=(5,)))
        sent = RequestSent(vm=5, dst_host=9, dst_rack=2)
        s.stamp(sent)
        assert sent.trace_id == "r3.v5"

    def test_fault_events_get_fault_ids(self):
        s = LifecycleStitcher()
        s.begin_round(6)
        ev = FaultInjected(fault_kind="shim_down", target=2, detail="until-round-8")
        s.stamp(ev)
        assert ev.trace_id == "r6.f.shim_down.2"

    def test_uncorrelated_kinds_stay_unstamped(self):
        s = LifecycleStitcher()
        s.begin_round(0)
        ev = ModelSelected(model="arima", step=3, prediction=0.5)
        s.stamp(ev)
        assert ev.trace_id is None
        assert "trace_id" not in ev.as_dict()


class TestStampTable:
    """``stamp`` is one probe on the exact event type: every kind chooses."""

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
        s = LifecycleStitcher()
        s.begin_round(1)
        for cls in UNSTAMPED:
            required = [
                f.name
                for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING
            ]
            ev = cls(**dict.fromkeys(required, 0))
            s.stamp(ev)
            assert ev.trace_id is None and ev.parent_id is None


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
