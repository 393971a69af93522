"""``RoundReports.write_metrics`` is the shims' sequential calls, bit for bit.

The plan stage writes a round's per-rack counters and histograms from the
frozen record, one vectorised write per family.  Whatever the calls a shim
used to make one at a time — in row order: its alerts counter, its two
reroute counters, then the eight REQUEST instruments (search space on the
first iteration, one matching size per solve, one move cost per ACK, then
the sent / ACKed + cost / REJECTed / unplaced counts) — did to a registry
and its open scopes, the column write must do too: the Prometheus text
(family and label order included), every value, every histogram's count,
sum, min, max, reservoir and reservoir RNG state, and each scope's totals,
per-label sums and window.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.migration.reports import RoundReports
from repro.obs.export import prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry

common = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

RACKS = 6
COUNTERS = (
    "sheriff_shim_alerts_total",
    "sheriff_flows_rerouted_total",
    "sheriff_reroute_failures_total",
    "sheriff_requests_sent_total",
    "sheriff_requests_acked_total",
    "sheriff_requests_rejected_total",
    "sheriff_migration_cost_total",
    "sheriff_search_space_total",
    "sheriff_unplaced_total",
)
FAMILIES = COUNTERS + ("sheriff_matching_size", "sheriff_move_cost")

costs = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def rows(draw):
    """One shim's row, as Alg. 1 and the REQUEST loop can leave it."""
    row = {"alerts": draw(st.integers(0, 3)), "rerouted": 0, "failed": 0}
    if draw(st.booleans()):
        row["rerouted"], row["failed"] = draw(
            st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
        )
    row["selected"] = list(range(draw(st.integers(0, 3))))
    if not row["selected"]:
        return row
    if draw(st.booleans()):  # no destination hosts: all unplaced, no loop
        row["iterations"], row["matching"], row["moves"] = 0, [], []
        row["requested"] = row["search_space"] = 0
        row["unplaced"] = len(row["selected"])
        return row
    row["iterations"] = draw(st.integers(1, 4))
    # a solve skipped on an empty trim ends the loop without an observation
    n = row["iterations"] - draw(st.integers(0, 1))
    row["matching"] = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    row["moves"] = draw(st.lists(costs, max_size=4))
    row["requested"] = len(row["moves"]) + draw(st.integers(0, 3))
    row["search_space"] = draw(st.integers(1, 40))
    row["unplaced"] = draw(st.integers(0, len(row["selected"])))
    return row


@st.composite
def records(draw):
    """A round: rows of distinct racks in rack order, maybe a late plain
    counter registered while the round planned."""
    racks = sorted(draw(st.sets(st.integers(0, RACKS - 1), max_size=RACKS)))
    return [(rack, draw(rows())) for rack in racks], draw(st.booleans())


def _total(moves):
    out = 0.0
    for c in moves:
        out += c
    return out


def _record(rounds):
    reports = RoundReports()
    for rack, row in rounds:
        reports.add_row(
            rack, row["alerts"], row["rerouted"], row["failed"], 0.0, row["selected"]
        )
        if not row["selected"]:
            continue
        acked = len(row["moves"])
        reports.set_migration(
            row["requested"],
            acked,
            row["requested"] - acked,
            _total(row["moves"]),
            row["search_space"],
            row["iterations"],
            row["selected"][: row["unplaced"]],
            list(range(acked)),
            list(range(acked)),
            row["moves"],
            row["matching"],
        )
    reports.freeze()
    return reports


def _sequential(reg, rounds):
    """The calls ShimManager and request_migrations made, one at a time."""
    for rack, row in rounds:
        if row["alerts"]:
            reg.counter(COUNTERS[0], rack=rack).inc(row["alerts"])
        if row["rerouted"] + row["failed"]:
            reg.counter(COUNTERS[1], rack=rack).inc(row["rerouted"])
            reg.counter(COUNTERS[2], rack=rack).inc(row["failed"])
        if not row["selected"]:
            continue
        sent, ack, rej, cost, space, unplaced = (
            reg.counter(name, rack=rack) for name in COUNTERS[3:]
        )
        match = reg.histogram("sheriff_matching_size", rack=rack)
        move = reg.histogram("sheriff_move_cost", rack=rack)
        if row["iterations"]:
            space.inc(row["search_space"])
        for n in row["matching"]:
            match.observe(n)
        for c in row["moves"]:
            move.observe(c)
        acked = len(row["moves"])
        if row["requested"]:
            sent.inc(row["requested"])
        if acked:
            ack.inc(acked)
            cost.inc(_total(row["moves"]))
        if row["requested"] - acked:
            rej.inc(row["requested"] - acked)
        unplaced.inc(row["unplaced"])


def _scope_state(scope):
    return (
        scope.as_dict(),
        repr([scope.total(name) for name in FAMILIES]),
        [list(scope.by_label(name, "rack").items()) for name in FAMILIES],
    )


def _state(reg, scopes):
    hists = [
        (m.name, m.labels, m.count, m.sum, m.min, m.max, m._reservoir, m._rng.getstate())
        for m in reg.instruments()
        if isinstance(m, Histogram)
    ]
    return (
        prometheus_text(reg),
        repr(list(reg.as_dict().items())),
        repr(hists),
        [_scope_state(s) for s in scopes],
    )


def _run(plan, written):
    """Every round of *plan* inside its own scope, all inside an outer one."""
    reg = MetricsRegistry()
    scopes = []
    with reg.scope() as outer:
        for k, (rounds, late) in enumerate(plan):
            with reg.scope() as scope:
                if written:
                    at = len(reg)
                    if late:
                        reg.counter(f"late_{k}").inc()
                    _record(rounds).write_metrics(reg, at=at)
                else:
                    _sequential(reg, rounds)
                    if late:
                        reg.counter(f"late_{k}").inc()
            scopes.append(scope)
    return _state(reg, [outer] + scopes)


def _check(plan):
    assert _run(plan, written=True) == _run(plan, written=False)
    # the summary's planning totals read the columns: the same sums
    for rounds, _ in plan:
        reg = MetricsRegistry()
        with reg.scope() as scope:
            _sequential(reg, rounds)
        reports = _record(rounds)
        for name, col in zip(COUNTERS[3:8], ("requested", "acked", "rejected")):
            assert reports.total(col) == scope.total(name)
        got, want = reports.total("total_cost"), scope.total(COUNTERS[6])
        assert repr(got) == repr(want) and type(got) is float
        assert reports.total("search_space") == scope.total(COUNTERS[7])
        assert len(reports.unplaced) == scope.total(COUNTERS[8])


@common
@given(plan=st.lists(records(), min_size=1, max_size=4))
def test_column_write_equals_sequential_calls(plan):
    _check(plan)


def _row(**kw):
    row = dict(alerts=1, rerouted=0, failed=0, selected=[0], iterations=1)
    row.update(matching=[1], moves=[2.5], requested=1, search_space=4, unplaced=0)
    row.update(kw)
    return row


def test_a_burst_takes_one_rack_past_the_reservoir():
    # 700 move costs on rack 2 in one round, then more over the next: the
    # reservoir fills, and every later value takes one draw of rack 2's RNG
    burst = [(i * 7919) % 1013 / 7.0 for i in range(700)]
    plan = [
        ([(1, _row()), (2, _row(moves=burst, requested=700))], False),
        ([(2, _row(moves=burst[:40], requested=41))], True),
    ]
    _check(plan)
    reg = MetricsRegistry()
    for rounds, _ in plan:
        _record(rounds).write_metrics(reg)
    hist = reg.histogram("sheriff_move_cost", rack=2)
    assert hist.count == 740 and len(hist._reservoir) == 512
    assert math.isclose(hist.sum, sum(burst) + sum(burst[:40]))


def test_first_sight_interleaves_row_by_row():
    # rack 1 migrates without rerouting; rack 3 is the first to reroute:
    # the reroute families come after all eight REQUEST ones, and rack 1
    # never gets a reroute series
    plan = [([(1, _row()), (3, _row(rerouted=2, failed=1, selected=[]))], False)]
    _check(plan)
    reg = MetricsRegistry()
    _record(plan[0][0]).write_metrics(reg)
    names = list(dict.fromkeys(m.name for m in reg.instruments()))
    assert names == [
        COUNTERS[0], *COUNTERS[3:], "sheriff_matching_size", "sheriff_move_cost",
        COUNTERS[1], COUNTERS[2],
    ]
    assert [m.labels["rack"] for m in reg.instruments() if m.name == COUNTERS[1]] == ["3"]


def test_a_record_with_a_repeated_rack_is_refused():
    # one add per family gives each slot one amount: a second row of the
    # same rack would be lost, so it is refused before anything is written
    reports = RoundReports()
    reports.add_row(1, 1)
    reports.add_row(1, 1)
    reg = MetricsRegistry()
    with pytest.raises(SimulationError, match="one row per rack"):
        reports.write_metrics(reg)
    assert len(reg) == 0
