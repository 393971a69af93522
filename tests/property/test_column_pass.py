"""The round's column pass decides exactly what the per-rack loop decides.

``ShimManager.process_round`` plans a round's racks as columns
(``request_racks``: one ``ReceiverRegistry.admit``, one
``RoundReports.add_rows``) except those whose verdicts the sequential
loop could change — a mixed rack, a refused one, one a retry could
place, and one asking for a host in the region of an earlier such rack —
which plan by themselves, in rack order: a rack with SERVER alerts only
from the plan stage's picks, any other through ``plan_rack``.  A round
whose racks are all mixed takes no column pass, so an engine whose shim
is told every rack is mixed, and whose port is a pass-through test double
— it forwards each REQUEST to the engine's own port — plans every rack
one at a time through ``plan_rack``, Alg. 1 included: the reference.
Through the lossy channel the column pass stops at the first rack that
plans on its own, a rack with an unanswered REQUEST included, and the
racks after it take a pass of their own; the lossy arm draws the loss
probability and the retries (the down shims are the scenario's) and also
holds the channel's counts and its stream position equal.

Hypothesis drives both engines through the same random rounds with the
conflicts the column rules must catch — destinations shared by several
racks, refused racks mid-order with clean racks after them inside and
outside their regions (a k = 6 fabric's pods of three), dependent VMs,
crashed hosts and their lost VMs, frozen VMs, ToR racks part-way
through the rack order, down shims, in-flight holds — with
a tracer and a bus subscriber attached, and holds equal, round by round:
the verdicts with their reasons and order, every ``RoundReports`` column,
the trace rows, the ``RackPlanned`` events, the metrics and the final
placement.  The column side plans as columns and commits in one write
however few its racks and landings, so the small fabric takes both.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.cluster.snapshot import FleetSnapshot
from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.faults.channel import ChannelPolicy, UnreliableChannel
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
def scenarios(draw, lossy=False):
    """A cluster seed, its faults and each round's alerts and extras; with
    *lossy*, a lossy channel's policy."""
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
        # k = 6: three racks a pod, so a rack's region overlaps the regions
        # of the racks after it (k = 4's pod of two never does)
        "k": draw(st.sampled_from([4, 6])),
        "seed": draw(st.integers(0, 10**6)),
        "fill": draw(st.sampled_from([0.55, 0.7, 0.8])),
        "degree": draw(st.sampled_from([1.0, 3.0, 5.0])),
        "timed": draw(st.booleans()),
        "faults": faults,
        "plan": plan,
        "channel": ChannelPolicy(
            loss_probability=draw(st.sampled_from([0.05, 0.2, 0.5])),
            max_retries=draw(st.integers(0, 3)),
            seed=draw(st.integers(0, 2**16)),
        ) if lossy else None,
    }


def every_rack_mixed(shim):
    """Send each rack of a round through ``plan_rack``: its *mixed* (the
    last argument) becomes every rack (the second)."""
    real = shim.process_round

    def process_round(*args):
        return real(*args[:-1], set(args[1]))

    shim.process_round = process_round


def engine(scenario, per_rack):
    """One of the two engines of *scenario*, its tracer and the
    ``RackPlanned`` events it publishes."""
    cluster = build_cluster(
        build_fattree(scenario["k"]),
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
            channel_policy=scenario.get("channel"),
        ),
    )
    if per_rack:
        sim._port = PassThrough(sim._port)
        every_rack_mixed(sim.shim)
    planned = []
    sim.bus.subscribe(RackPlanned, planned.append)
    return sim, tracer, planned


def run(scenario, per_rack):
    """Both engines' run of *scenario*: what every round decided."""
    sim, tracer, planned = engine(scenario, per_rack)
    cluster = sim.cluster
    pl = cluster.placement
    channel = sim.channel
    taken = []  # each round's (retries, timeouts, rollbacks) and stream position
    if channel is not None:
        take_counts = channel.take_counts

        def counted():
            counts = take_counts()
            taken.append((counts, channel._taken + channel._pos))
            return counts

        channel.take_counts = counted
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
        "channel": taken,
    }


def run_both(scenario, drive=run):
    """*drive*'s reference run, then its column run with what its rounds
    planned as columns: the racks, those after a rack that planned on its
    own, those with no picks, and the racks only the region rule held
    back; how many racks planned on their own; and how many lossy passes
    read an unanswered REQUEST."""
    want = drive(scenario, per_rack=True)
    seen = Counter()
    real, own_racks = manager.request_racks, vmmigration._own_racks

    def counting(stack, receivers, reports, racks, plan_one, **kwargs):
        own = []

        def tracked(rack):
            own.append(rack)
            seen["own"] += 1
            plan_one(rack)

        real(stack, receivers, reports, racks, tracked, **kwargs)
        columns = [rack for rack in racks if rack not in own]
        seen["columns"] += len(columns)
        seen["after_own"] += sum(bool(own) and rack > own[0] for rack in columns)
        seen["no_picks"] += sum(not stack.vms.get(rack) for rack in columns)

    def held_by_region(stack, *args):
        got = own_racks(stack, *args)
        table, widths = stack.regions
        bare = replace(stack, regions=(table, np.zeros_like(widths)))
        seen["region"] += int((got & ~own_racks(bare, *args)).sum())
        return got

    answered = UnreliableChannel.answered

    def reading(channel, dst_racks):
        attempts, draws = answered(channel, dst_racks)
        seen["unanswered"] += int((attempts < 0).any())
        return attempts, draws

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(manager, "request_racks", counting)
        mp.setattr(vmmigration, "_own_racks", held_by_region)
        mp.setattr(UnreliableChannel, "answered", reading)
        # the small fabric's rounds take the columns and the one-write commit
        mp.setattr(vmmigration, "_COLUMN_RACKS", 1)
        mp.setattr(request, "_ONE_WRITE", 1)
        got = drive(scenario, per_rack=False)
    return want, got, seen


def assert_same(want, got):
    for key in (
        "rounds", "verdicts", "events", "planned", "metrics", "placement", "lost",
        "channel",
    ):
        assert got[key] == want[key], key


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_column_pass_equals_the_per_rack_loop(scenario):
    want, got, _ = run_both(scenario)
    assert_same(want, got)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(lossy=True))
def test_column_pass_under_loss_equals_the_per_rack_loop(scenario):
    want, got, _ = run_both(scenario)
    assert_same(want, got)


def test_the_draws_reach_both_paths_and_every_refusal():
    """A fixed scenario plans racks both ways and draws every refusal the
    engine can (a VM in flight is frozen, so it is never asked for)."""
    scenario = {
        "k": 4,
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
    want, got, seen = run_both(scenario)
    assert_same(want, got)
    per_rack_rows = sum(len(cols["rack"]) for _, cols in got["rounds"])
    assert 0 < seen["columns"] < per_rack_rows
    reasons = {reason for kind, _, _, reason in got["verdicts"] if reason}
    assert {"capacity", "capacity-hold", "dependency-conflict"} <= reasons
    kinds = {e["event"] for e in got["events"]}
    assert {"HostCrashed", "MigrationLanded"} <= kinds
    assert any(summary["degraded"] for summary, _ in got["rounds"])


def test_a_refused_rack_holds_back_only_the_racks_its_region_reaches():
    """On a k = 6 fabric (three racks a pod) a round plans columns after a
    rack that planned on its own, holds a clean rack back by the region
    rule alone, and records a rack with no picks as a column row; both
    engines still decide alike."""
    scenario = {
        "k": 6,
        "seed": 2,
        "fill": 0.8,
        "degree": 3.0,
        "timed": False,
        "faults": [],
        "plan": [(0.25, None, False), (0.5, None, False), (0.25, None, False)],
    }
    want, got, seen = run_both(scenario)
    assert_same(want, got)
    assert seen["after_own"] > 0
    assert seen["region"] > 0
    assert seen["no_picks"] > 0


def test_a_lossy_pass_stops_at_an_unanswered_request_and_passes_again():
    """Through a lossy channel, with a shim down and moves in flight, a
    column pass reads an unanswered REQUEST (its rack plans on its own),
    a later pass plans columns after it, and both engines decide alike,
    timeouts and lease expiries included."""
    scenario = {
        "k": 6,
        "seed": 0,
        "fill": 0.7,
        "degree": 3.0,
        "timed": True,
        "faults": [FaultSpec(FaultKind.SHIM_DOWN, target=4, at_round=1, duration=2)],
        "plan": [
            (0.5, None, False), (0.25, 3, False), (0.5, None, True), (0.5, None, False),
        ],
        "channel": ChannelPolicy(loss_probability=0.3, max_retries=1, seed=0),
    }
    want, got, seen = run_both(scenario)
    assert_same(want, got)
    assert seen["unanswered"] > 0
    assert seen["columns"] > 0 and seen["after_own"] > 0
    retries, timeouts, rollbacks = map(sum, zip(*(c for c, _ in got["channel"])))
    assert retries > 0 and timeouts > 0 and rollbacks > 0


def test_a_rack_that_raises_keeps_the_column_rows_reserved_before_it():
    """A SERVER alert for a host outside its rack makes ``plan_rack`` raise
    part-way through a round; the round's record still holds every rack
    planned before it, the column racks among them, as the per-rack loop's
    record does."""
    scenario = {
        "k": 6, "seed": 2, "fill": 0.8, "degree": 3.0, "timed": False, "faults": [],
    }

    def stray_alert_round(scenario, per_rack):
        sim, _, planned = engine(scenario, per_rack)
        alerts, vma = inject_fraction_alerts(sim.cluster, 0.5, time=0, seed=2)
        racks = sorted({a.rack for a in alerts})
        rack = racks[len(racks) // 2]
        host = int(sim.cluster.placement.hosts_in_rack(racks[0])[0])
        alerts.append(
            Alert(kind=AlertKind.SERVER, rack=rack, host=host, magnitude=0.9)
        )
        with pytest.raises(ConfigurationError, match="outside rack"):
            sim.run_round(alerts, vma)
        return {
            "planned": planned,
            "metrics": sim.metrics.as_dict(),
            "before": [r for r in racks if r < rack],
        }

    want, got, seen = run_both(scenario, drive=stray_alert_round)
    assert got == want
    assert [e.rack for e in got["planned"]] == got["before"]
    # the own racks before the one that raised, and column racks besides
    assert len(got["planned"]) > seen["own"] - 1
