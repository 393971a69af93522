"""The round's column pass decides exactly what the per-rack loop decides.

``ShimManager.process_round`` plans the clean leading racks of a round as
columns (``request_prefix``: one ``ReceiverRegistry.admit``, one
``RoundReports.add_rows``) and every rack from the first other one on by
itself: a rack with SERVER alerts only from the plan stage's picks, any
other through ``plan_rack``.  A port that is not a ``ReceiverRegistry``
takes no column pass, so an engine whose port is a pass-through test
double — it forwards each REQUEST to the engine's own registry — and
whose shim is told every rack is mixed plans every rack one at a time
through ``plan_rack``, Alg. 1 included: the reference.

Hypothesis drives both engines through the same random rounds with the
conflicts the column rules must catch — destinations shared by several
racks, dependent VMs, crashed hosts and their lost VMs, frozen VMs, ToR
racks part-way through the rack order, down shims, in-flight holds — with
a tracer and a bus subscriber attached, and holds equal, round by round:
the verdicts with their reasons and order, every ``RoundReports`` column,
the trace rows, the ``RackPlanned`` events, the metrics and the final
placement.  The column side plans as columns and commits in one write
however few its racks and landings, so the small fabric takes both.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.cluster.snapshot import FleetSnapshot
from repro.config import SheriffConfig
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.migration import manager, request, vmmigration
from repro.migration.reports import _RAGGED, _ROW
from repro.obs.tracer import RecordingTracer
from repro.service.events import RackPlanned
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.sim.inflight import MigrationTiming
from repro.topology import build_fattree
from tests.property.test_parallel_properties import summary_fields

COLUMNS = list(_ROW) + [name for ptr, values in _RAGGED for name in (ptr, *values)]


class PassThrough:
    """A port that forwards each REQUEST to the registry it wraps."""

    def __init__(self, inner):
        self.inner = inner

    def request(self, vm, host, rack):
        return self.inner.request(vm, host, rack)


@st.composite
def scenarios(draw):
    """A cluster seed, its faults and each round's alerts and extras."""
    rounds = draw(st.integers(3, 6))
    # each host crashes and each shim goes down at most once
    crashed = draw(st.lists(st.integers(0, 23), max_size=2, unique=True))
    down = draw(st.lists(st.integers(0, 7), max_size=2, unique=True))
    faults = [
        FaultSpec(kind, target=target, at_round=draw(st.integers(0, rounds - 1)),
                  duration=2 if kind is FaultKind.SHIM_DOWN else None)
        for kind, targets in ((FaultKind.HOST_CRASH, crashed), (FaultKind.SHIM_DOWN, down))
        for target in targets
    ]
    plan = [
        (
            draw(st.sampled_from([0.1, 0.25, 0.5])),  # alerting fraction
            draw(st.one_of(st.none(), st.integers(0, 7))),  # a ToR rack
            draw(st.booleans()),  # freeze the first alert's pick
        )
        for _ in range(rounds)
    ]
    return {
        "seed": draw(st.integers(0, 10**6)),
        "fill": draw(st.sampled_from([0.55, 0.7, 0.8])),
        "degree": draw(st.sampled_from([1.0, 3.0, 5.0])),
        "timed": draw(st.booleans()),
        "faults": faults,
        "plan": plan,
    }


def every_rack_mixed(shim):
    """Send each rack of a round through ``plan_rack``: its *mixed* (the
    last argument) becomes every rack (the second)."""
    real = shim.process_round

    def process_round(*args):
        return real(*args[:-1], set(args[1]))

    shim.process_round = process_round


def run(scenario, per_rack):
    """Both engines' run of *scenario*: what every round decided."""
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=scenario["fill"],
        skew=0.7,
        seed=scenario["seed"],
        dependency_degree=scenario["degree"],
        delay_sensitive_fraction=0.1,
    )
    tracer = RecordingTracer()
    sim = SheriffSimulation(
        cluster,
        SheriffConfig(
            tracer=tracer,
            fault_schedule=FaultSchedule(scenario["faults"]),
            # a slow link: moves stay in flight and hold their destinations
            migration_timing=(
                MigrationTiming(bandwidth_mbps=20.0) if scenario["timed"] else None
            ),
        ),
    )
    if per_rack:
        sim._port = PassThrough(sim.receivers)
        every_rack_mixed(sim.shim)
    planned = []
    sim.bus.subscribe(RackPlanned, planned.append)
    pl = cluster.placement
    rounds = []
    for r, (fraction, tor, freeze) in enumerate(scenario["plan"]):
        alerts, vma = inject_fraction_alerts(
            cluster, fraction, time=r, seed=scenario["seed"] + r
        )
        if tor is not None:
            alerts.append(Alert(kind=AlertKind.LOCAL_TOR, rack=tor, magnitude=0.9, time=r))
            for vm in pl.vms_in_rack(tor)[:3].tolist():
                vma.setdefault(vm, 0.5)
        if freeze and alerts and alerts[0].kind is AlertKind.SERVER:
            winner = FleetSnapshot(pl).host_winners(vma)[0][alerts[0].host]
            if winner >= 0:
                sim._last_move[winner] = r
        summary = sim.run_round(alerts, vma)
        rounds.append(
            (
                summary_fields(summary),
                {name: getattr(summary.reports, name).tolist() for name in COLUMNS},
            )
        )
    events = [e.as_dict() for e in tracer.events]
    for e in events:
        e.pop("elapsed_s", None)
    verdicts = [
        (e["event"], e["vm"], e["dst_host"], e.get("reason"))
        for e in events
        if e["event"] in ("RequestAcked", "RequestRejected")
    ]
    return {
        "rounds": rounds,
        "verdicts": verdicts,
        "events": events,
        "planned": planned,
        "metrics": sim.metrics.as_dict(),
        "placement": pl.vm_host.tolist(),
        "lost": sorted(pl.lost_vms),
    }


def run_both(scenario):
    """The reference run, then the column run with its planned-row count."""
    want = run(scenario, per_rack=True)
    counted = Counter()
    real = manager.request_prefix

    def counting(*args, **kwargs):
        planned = real(*args, **kwargs)
        counted["columns"] += planned
        return planned

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(manager, "request_prefix", counting)
        # the small fabric's rounds take the columns and the one-write commit
        mp.setattr(vmmigration, "_COLUMN_RACKS", 1)
        mp.setattr(request, "_ONE_WRITE", 1)
        got = run(scenario, per_rack=False)
    return want, got, counted["columns"]


def assert_same(want, got):
    for key in ("rounds", "verdicts", "events", "planned", "metrics", "placement", "lost"):
        assert got[key] == want[key], key


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_column_pass_equals_the_per_rack_loop(scenario):
    want, got, _ = run_both(scenario)
    assert_same(want, got)


def test_the_draws_reach_both_paths_and_every_refusal():
    """A fixed scenario plans racks both ways and draws every refusal the
    engine can (a VM in flight is frozen, so it is never asked for)."""
    scenario = {
        "seed": 7,
        "fill": 0.8,
        "degree": 5.0,
        "timed": True,
        "faults": [
            FaultSpec(FaultKind.HOST_CRASH, target=5, at_round=1),
            FaultSpec(FaultKind.SHIM_DOWN, target=3, at_round=2, duration=2),
        ],
        "plan": [(0.5, None, True), (0.5, 4, False), (0.25, 2, True), (0.5, None, False)]
        * 2,
    }
    want, got, columns = run_both(scenario)
    assert_same(want, got)
    per_rack_rows = sum(len(cols["rack"]) for _, cols in got["rounds"])
    assert 0 < columns < per_rack_rows
    reasons = {reason for kind, _, _, reason in got["verdicts"] if reason}
    assert {"capacity", "capacity-hold", "dependency-conflict"} <= reasons
    kinds = {e["event"] for e in got["events"]}
    assert {"HostCrashed", "MigrationLanded"} <= kinds
    assert any(summary["degraded"] for summary, _ in got["rounds"])
