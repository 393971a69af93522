"""The eight-stage round is byte-identical to the seed engine, and its bus
is an observer tap: three engine events, no subscriber, no decision read
back.

``golden_seed_engine.json`` holds captures of the interleaved per-rack
loop: ``workers0``, ``chaos_w0`` (faults + lossy channel) and
``timed_w0`` (timed migrations) from the pre-service monolithic
``run_round``; ``slo_scoring``, ``bcube4`` and ``degraded_k4``
(everything opt-in at once, tracer included) from the last commit that
still had a planner matrix, at its ``workers=0`` setting; ``mixed_k4``
(flows and SLO scoring, fed hand-built LOCAL_TOR + OUTER_SWITCH + SERVER
alerts, so β picks, reroutes and predicted damage are non-zero).  The one
remaining round must reproduce every RoundSummary field, the final
placement hash and — where a tracer runs — the event stream exactly.
Each variant also pins what the summaries leave out: every per-rack
report (``reports_sha256``), the registry's Prometheus text, key
order included (``metrics_sha256``), and the per-round ``--metrics-stream``
rows (``metrics_stream_sha256``, each line re-dumped with sorted keys, so
the key order of a round's window is free but its keys and values are
not).
"""

import dataclasses
import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.cluster.snapshot import FleetSnapshot
from repro.config import SheriffConfig
from repro.errors import SimulationError
from repro.faults import ChannelPolicy, FaultKind, FaultSchedule, FaultSpec
from repro.migration.reports import RoundReports
from repro.migration.request import ReceiverRegistry
from repro.obs.events import (
    MigrationCommitted,
    MigrationLanded,
    PrioritySelected,
    RequestAcked,
    RequestSent,
    SloViolation,
)
from repro.obs.export import prometheus_text
from repro.obs.tracer import RecordingTracer
from repro.service.events import SERVICE_EVENT_TYPES, ServiceEvent
from repro.service.round import ROUND_STAGES
from repro.sim.engine import SheriffSimulation
from repro.sim.inflight import MigrationTiming
from repro.sim.scenario import inject_fraction_alerts
from repro.topology import build_bcube, build_fattree

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_seed_engine.json").read_text()
)

ROUNDS = 6
SEED = 2015
ALERT_FRACTION = 0.08


def _cluster(variant: str = "workers0"):
    topology = build_bcube(4) if variant == "bcube4" else build_fattree(4)
    return build_cluster(
        topology,
        hosts_per_rack=4,
        fill_fraction=0.5,
        skew=1.1,
        seed=SEED,
        delay_sensitive_fraction=0.1 if variant == "degraded_k4" else 0.0,
    )


def _config(variant: str) -> SheriffConfig:
    channel = ChannelPolicy(loss_probability=0.1, max_retries=3, seed=SEED)
    if variant in ("workers0", "bcube4"):
        return SheriffConfig(balance_weight=25.0)
    if variant == "slo_scoring":
        return SheriffConfig(balance_weight=25.0, scoring="slo")
    if variant == "mixed_k4":
        return SheriffConfig(balance_weight=25.0, with_flows=True, scoring="slo")
    if variant == "chaos_w0":
        return SheriffConfig(
            balance_weight=25.0,
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(
                        FaultKind.SHIM_DOWN, target=1, at_round=2, duration=2
                    ),
                    FaultSpec(FaultKind.HOST_CRASH, target=3, at_round=3),
                ]
            ),
            channel_policy=channel,
        )
    if variant == "degraded_k4":
        # bench/workloads.py::build_degraded_traced at k=4: rack ids are
        # 0..7, so node 8 is an aggregation switch
        return SheriffConfig(
            balance_weight=25.0,
            migration_timing=MigrationTiming(),
            with_flows=True,
            slo=True,
            tracer=RecordingTracer(),
            channel_policy=channel,
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.25),
                    FaultSpec(FaultKind.SWITCH_FAIL, target=8, at_round=1),
                    FaultSpec(FaultKind.SWITCH_RECOVER, target=8, at_round=4),
                    FaultSpec(
                        FaultKind.SHIM_DOWN, target=4, at_round=2, duration=2
                    ),
                ],
                seed=SEED,
            ),
        )
    assert variant == "timed_w0"
    return SheriffConfig(
        balance_weight=25.0,
        migration_timing=MigrationTiming(),
    )


def _mixed_alerts(sim, r, alerts, vma):
    """Round *r*'s SERVER alerts plus one LOCAL_TOR and OUTER_SWITCH ones.

    The ToR alert makes its rack take the β picks (a migration set the
    stacked cost rows do not hold).  On even rounds the switch alert is on
    the first switch of one flow leaving its rack, so the shim has flows to
    reroute; on odd rounds every uplink switch of the rack is hot as well,
    so no reroute can avoid them and each one fails.
    """
    cluster = sim.cluster
    pl = cluster.placement
    tor_rack = r % cluster.num_racks
    flows = sorted(sim.flow_table.flows.values(), key=lambda f: f.flow_id)
    src_racks = sorted({f.src_rack for f in flows})
    sw_rack = src_racks[(3 * r + 1) % len(src_racks)]
    first = next(f.path[1] for f in flows if f.src_rack == sw_rack)
    uplinks = cluster.topology.neighbors(sw_rack).tolist()
    switches = [first] + sorted(set(uplinks) - {first}) if r % 2 else [first]
    alerts = list(alerts) + [
        Alert(kind=AlertKind.LOCAL_TOR, rack=tor_rack, magnitude=0.9, time=r)
    ]
    vma = dict(vma)
    for vm in pl.vms_in_rack(tor_rack).tolist():
        vma.setdefault(vm, 0.8 + 0.01 * (vm % 7))
    for switch in switches:
        alerts.append(
            Alert(
                kind=AlertKind.OUTER_SWITCH,
                rack=sw_rack,
                magnitude=0.85,
                time=r,
                switch=switch,
            )
        )
        for f in sim.flow_table.flows_through(switch, from_rack=sw_rack):
            vma.setdefault(f.vm, 0.75 + 0.01 * (f.vm % 5))
    return alerts, vma


def _run(variant: str, observer=None, stream=None):
    cluster = _cluster(variant)
    sim = SheriffSimulation(
        cluster, _config(variant).replace(metrics_stream=stream)
    )
    if observer is not None:
        sim.bus.subscribe(ServiceEvent, observer)
    for r in range(ROUNDS):
        alerts, vma = inject_fraction_alerts(
            cluster, ALERT_FRACTION, time=r, seed=SEED + r
        )
        if variant == "mixed_k4":
            alerts, vma = _mixed_alerts(sim, r, alerts, vma)
        sim.run_round(alerts, vma)
    sim.close()
    return cluster, sim


def _summary_dicts(sim):
    out = []
    for s in sim.history:
        d = dataclasses.asdict(s)
        d.pop("timings")
        d.pop("reports")
        d.pop("pool", None)
        out.append(d)
    # normalize through JSON exactly like the golden capture did
    return json.loads(json.dumps(out))


def _placement_sha256(cluster):
    return hashlib.sha256(cluster.placement.vm_host.tobytes()).hexdigest()


def _reports_sha256(sim):
    """Every per-rack report of the run, as ``asdict`` rows in round order."""
    rows = [dataclasses.asdict(r) for s in sim.history for r in s.reports]
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=lambda o: o.item()).encode()
    ).hexdigest()


def _metrics_sha256(sim):
    return hashlib.sha256(prometheus_text(sim.metrics).encode()).hexdigest()


def _metrics_stream_sha256(text):
    """The streamed per-round windows, each row's keys sorted."""
    rows = [
        json.dumps(json.loads(line), sort_keys=True) for line in text.splitlines()
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def _events_sha256(tracer):
    """The trace stream minus the one wall-clock field, in emission order."""
    rows = []
    for event in tracer.events:
        row = event.as_dict()
        row.pop("elapsed_s", None)
        rows.append(row)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _slo_summary_sha256(sim):
    """The SLO ledger's own floats: totals, folds and episode quantiles."""
    return hashlib.sha256(
        json.dumps(sim.slo.summary(), sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_bus_scheduler_matches_seed_engine(variant):
    cluster, sim = _run(variant)
    assert not any(sim.bus.subscriber_count(t) for t in SERVICE_EVENT_TYPES)
    golden = GOLDEN[variant]
    assert _summary_dicts(sim) == golden["summaries"]
    assert _placement_sha256(cluster) == golden["placement_sha256"]
    if "events_sha256" in golden:
        assert len(sim.tracer.events) == golden["events"]
        assert _events_sha256(sim.tracer) == golden["events_sha256"]
    if "slo_summary_sha256" in golden:
        assert _slo_summary_sha256(sim) == golden["slo_summary_sha256"]


def test_the_traced_round_builds_no_hot_event(monkeypatch):
    # the hot sites record rows: a traced, SLO-on run completes with these
    # kinds unconstructible, and its log reads back as the golden stream
    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (
        PrioritySelected, RequestSent, RequestAcked, MigrationCommitted,
        MigrationLanded, SloViolation,
    ):
        monkeypatch.setattr(cls, "__init__", forbidden)
    _, sim = _run("degraded_k4")
    monkeypatch.undo()
    golden = GOLDEN["degraded_k4"]
    assert len(sim.tracer.events) == golden["events"]
    assert _events_sha256(sim.tracer) == golden["events_sha256"]
    assert _slo_summary_sha256(sim) == golden["slo_summary_sha256"]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_reports_and_metrics_match_seed_engine(variant):
    # no summary field reads the per-rack ledger or the registry's key
    # order: both are pinned on their own
    _, sim = _run(variant)
    assert _reports_sha256(sim) == GOLDEN[variant]["reports_sha256"]
    assert _metrics_sha256(sim) == GOLDEN[variant]["metrics_sha256"]


@pytest.mark.parametrize("variant", sorted(GOLDEN))
def test_metrics_stream_matches_seed_engine(variant):
    stream = io.StringIO()
    _run(variant, stream=stream)
    assert stream.getvalue().count("\n") == ROUNDS
    assert (
        _metrics_stream_sha256(stream.getvalue())
        == GOLDEN[variant]["metrics_stream_sha256"]
    )


def test_mixed_variant_exercises_every_report_field():
    # the β picks of a ToR alert leave the stacked cost rows; reroutes
    # succeed and fail; the SLO scorer predicts damage
    cluster, sim = _run("mixed_k4")
    reports = [r for s in sim.history for r in s.reports]
    tor_racks = {r % cluster.num_racks for r in range(ROUNDS)}
    assert any(r.rack in tor_racks and r.migration.acked for r in reports)
    assert sum(r.rerouted_flows for r in reports) > 0
    assert sum(r.reroute_failures for r in reports) > 0
    assert sum(r.predicted_slo_damage for r in reports) > 0.0


# each planning counter and the record total it holds, round by round
_PLANNING = (
    ("sheriff_shim_alerts_total", lambda r: r.total("alerts_processed")),
    ("sheriff_flows_rerouted_total", lambda r: r.total("rerouted_flows")),
    ("sheriff_reroute_failures_total", lambda r: r.total("reroute_failures")),
    ("sheriff_requests_sent_total", lambda r: r.total("requested")),
    ("sheriff_requests_acked_total", lambda r: r.total("acked")),
    ("sheriff_requests_rejected_total", lambda r: r.total("rejected")),
    ("sheriff_migration_cost_total", lambda r: r.total("total_cost")),
    ("sheriff_search_space_total", lambda r: r.total("search_space")),
    ("sheriff_unplaced_total", lambda r: len(r.unplaced)),
)


@pytest.mark.parametrize("variant", ["mixed_k4", "degraded_k4"])
def test_the_planning_counters_are_the_records_totals(variant):
    # one copy of each rack's outcome: the record.  The registry holds its
    # round totals, unlabelled, and no quantile
    _, sim = _run(variant)
    for name, total in _PLANNING:
        want = 0.0
        for s in sim.history:
            want += total(s.reports)
        assert sim.metrics.counter(name).value == want, name
    acked = sim.metrics.counter("sheriff_requests_acked_total").value
    assert acked == sum(s.migrations for s in sim.history) > 0
    for name, col in (("matching_size", "matching_size"), ("move_cost", "move_cost")):
        values = [v for s in sim.history for v in getattr(s.reports, col).tolist()]
        hist = sim.metrics.histogram(f"sheriff_{name}")
        want = 0.0
        for v in values:
            want += v
        assert (hist.count, hist.sum) == (len(values), want), name
    assert not [m for m in sim.metrics.instruments() if "rack" in m.labels]
    text = prometheus_text(sim.metrics)
    assert "rack=" not in text and "quantile=" not in text


# each round counter and the summary field whose run total it holds; no
# commit fails in these runs, so each ACKed move (``migrations``) committed
_ROUND = (
    ("sheriff_rounds_total", lambda s: 1),
    ("sheriff_faults_injected_total", lambda s: s.faults),
    ("sheriff_rollbacks_total", lambda s: s.rollbacks),
    ("sheriff_channel_retries_total", lambda s: s.retries),
    ("sheriff_degraded_rounds_total", lambda s: int(s.degraded)),
    ("sheriff_migrations_committed_total", lambda s: s.migrations),
)


@pytest.mark.parametrize("variant", ["degraded_k4", "chaos_w0"])
def test_the_round_counters_are_the_summaries_totals(variant):
    # the round's record is the source: the registry holds its totals
    _, sim = _run(variant)
    for name, field in _ROUND:
        want = sum(field(s) for s in sim.history)
        assert sim.metrics.counter(name).value == want > 0, name
    landed = sim.metrics.counter("sheriff_migrations_landed_total").value
    if sim.inflight is None:
        assert landed == sum(s.migrations for s in sim.history)
    else:  # timed: a move lands when its window has elapsed
        assert landed == sim.tracer.kinds().count("MigrationLanded") > 0
    minutes = {}
    for m in sim.metrics.instruments():
        if m.name == "sheriff_slo_violation_minutes_total":
            tenant = m.labels["tenant"]
            minutes[tenant] = minutes.get(tenant, 0.0) + m.value
    by_class = {}
    for s in sim.history:
        for tenant, value in s.slo_by_class.items():
            by_class.setdefault(tenant, []).append(value)
    assert minutes.keys() == by_class.keys()
    assert (len(minutes) > 1) == (variant == "degraded_k4")
    for tenant, values in by_class.items():
        assert minutes[tenant] == pytest.approx(sum(values)), tenant
    if variant == "degraded_k4":
        # a round's classes in the order the trace saw them first charged
        # (the golden summaries keep their keys sorted)
        charged = [{} for _ in sim.history]
        for row in sim.tracer.of_kind("SloViolation"):
            charged[row.round].setdefault(row.tenant)
        assert [list(s.slo_by_class) for s in sim.history] == [
            list(c) for c in charged
        ]


def test_a_round_that_raises_counts_its_round_and_alerts():
    # the round's one write runs as it ends, raised or not; no summary
    cluster = build_cluster(build_fattree(4), hosts_per_rack=4, seed=1)
    sim = SheriffSimulation(cluster, SheriffConfig())
    alert = Alert(kind=AlertKind.SERVER, rack=7, host=32, magnitude=0.9)
    with pytest.raises(SimulationError, match="unknown host 32"):
        sim.run_round([alert], {})
    assert sim.history == []
    assert sim.metrics.as_dict() == {
        "sheriff_rounds_total": 1.0, "sheriff_alerts_total": 1.0
    }


def test_recording_bus_does_not_perturb_results():
    # observing every event must not change a single decision
    seen = []
    cluster, sim = _run("workers0", observer=seen.append)
    assert _summary_dicts(sim) == GOLDEN["workers0"]["summaries"]
    assert _placement_sha256(cluster) == GOLDEN["workers0"]["placement_sha256"]
    # and what there is to observe is the three engine events, nothing else
    planned = sum(len(s.reports) for s in sim.history)
    assert planned > ROUNDS
    assert Counter(e.kind for e in seen) == sim.bus.counts == {
        "RoundOpened": ROUNDS, "RackPlanned": planned, "RoundClosed": ROUNDS
    }


def test_event_order_is_seed_deterministic():
    runs = [[], []]
    for seen in runs:
        _run("workers0", observer=seen.append)
    assert runs[0] == runs[1]
    assert runs[0]  # the stream is non-trivial


def test_round_is_the_documented_stage_order_and_nothing_wraps_it():
    assert [f.__name__ for f in ROUND_STAGES] == (
        "inject_faults census dispatch land freeze plan commit close".split()
    )
    # no scheduler between the engine and the stages: what ``plan`` raises
    # is what the caller of run_round catches
    cluster = _cluster()
    sim = SheriffSimulation(cluster, _config("workers0"))
    stray = Alert(kind=AlertKind.LOCAL_TOR, rack=cluster.num_racks, magnitude=1.0)
    with pytest.raises(SimulationError, match="unknown rack"):
        sim.run_round([stray], {})


@pytest.mark.parametrize("host", [-1, 32])
def test_server_alert_for_a_host_out_of_range_is_rejected(host):
    # 32 hosts, the last (31) in rack 7: -1 must not wrap onto host 31, and
    # 32 must not reach the host table as a bare IndexError
    cluster = build_cluster(build_fattree(4), hosts_per_rack=4, seed=1)
    pl = cluster.placement
    assert pl.num_hosts == 32 and int(pl.host_rack[31]) == 7
    sim = SheriffSimulation(cluster, SheriffConfig())
    alert = Alert(kind=AlertKind.SERVER, rack=7, host=host, magnitude=0.9)
    before = pl.vm_host.copy()
    with pytest.raises(SimulationError, match=f"unknown host {host}"):
        sim.run_round([alert], {int(vm): 0.9 for vm in pl.vms_on_host(31)})
    assert pl.vm_host.tolist() == before.tolist()


def test_cooldown_ledger_holds_only_the_window():
    # pruned where the frozen set is built: however long the run, the ledger
    # is the moves of the last ``migration_cooldown`` rounds
    _, sim = _run("workers0")
    recent = {
        move[0]
        for s in sim.history[-sim.migration_cooldown :]
        for report in s.reports
        for move in report.migration.moves
    }
    assert set(sim._last_move) == recent
    assert 0 < len(recent) < sum(s.migrations for s in sim.history)


def test_process_round_builds_the_snapshot_it_is_not_given():
    # a snapshot built afresh for each rack from the (round-static)
    # placement, as a shim once built its own when called without one,
    # must decide exactly as the engine's shared per-round snapshot
    runs = []
    for share in (False, True):
        cluster = _cluster("degraded_k4")
        tracer = RecordingTracer()
        sim = SheriffSimulation(
            cluster,
            SheriffConfig(balance_weight=25.0, with_flows=True, tracer=tracer),
        )
        alerts, vma = inject_fraction_alerts(
            cluster, ALERT_FRACTION, time=0, seed=SEED
        )
        by_rack = {}
        for alert in alerts:
            by_rack.setdefault(alert.rack, []).append(alert)
        receivers = ReceiverRegistry(cluster)
        shared = FleetSnapshot(cluster.placement)
        reports = []
        for rack in sorted(by_rack):
            record = RoundReports()
            sim.shim.plan_rack(
                rack,
                by_rack[rack],
                vma,
                receivers,
                frozenset(),
                None,
                shared if share else FleetSnapshot(cluster.placement),
                record,
            )
            reports.append(dataclasses.asdict(record[0]))
        assert any(r["migration"]["acked"] for r in reports)
        runs.append(
            (reports, receivers.commit_round(), _events_sha256(tracer))
        )
    assert runs[0] == runs[1]
