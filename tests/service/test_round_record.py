"""A round is one record: what the plan stage keeps, builds and publishes.

* ``RoundSummary.reports`` is one columnar ``RoundReports`` per round, so
  what a round leaves behind for the garbage collector does not grow with
  the racks it planned;
* the engine path builds no ``RoundReport`` / ``MigrationStats`` — those
  are views, built when something reads them;
* ``RackPlanned`` is built only when something subscribed to it, while
  ``bus.counts`` counts one per planned rack either way.
"""

import copy
import dataclasses
import gc

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.migration import reports as reports_module
from repro.migration.reports import RoundReports
from repro.service.events import RackPlanned, ServiceEvent
from repro.sim.engine import SheriffSimulation
from repro.sim.scenario import inject_fraction_alerts
from repro.topology import build_fattree

SEED = 2015
ALERT_FRACTION = 0.08


def _sim(k: int):
    cluster = build_cluster(
        build_fattree(k), hosts_per_rack=4, fill_fraction=0.5, seed=SEED
    )
    return cluster, SheriffSimulation(cluster, SheriffConfig(balance_weight=25.0))


def _round(cluster, sim, r):
    alerts, vma = inject_fraction_alerts(cluster, ALERT_FRACTION, time=r, seed=SEED + r)
    return sim.run_round(alerts, vma)


def _run(rounds: int, subscribe_at=None):
    cluster, sim = _sim(4)
    seen = []
    for r in range(rounds):
        if r == subscribe_at:
            sim.bus.subscribe(RackPlanned, seen.append)
        _round(cluster, sim, r)
    return sim, seen


# ---------------------------------------------------------------------- #
def test_a_round_leaves_a_constant_number_of_objects():
    growth = {}
    racks = {}
    for k in (4, 8):
        cluster, sim = _sim(k)
        for r in range(5):  # instruments and caches of first sight
            _round(cluster, sim, r)
        gc.collect()
        before = len(gc.get_objects())
        rounds = 20
        for r in range(5, 5 + rounds):
            _round(cluster, sim, r)
        gc.collect()
        growth[k] = (len(gc.get_objects()) - before) / rounds
        racks[k] = np.mean([len(s.reports) for s in sim.history[5:]])
    # k = 8 plans several times the racks of k = 4 each round; with a few
    # objects per planned rack the growth would follow them
    assert racks[8] > racks[4] + 10
    assert growth[8] <= growth[4] + 3, (growth, racks)


def test_the_engine_path_builds_no_per_rack_report(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-rack report object was built")

    monkeypatch.setattr(reports_module, "RoundReport", forbidden)
    monkeypatch.setattr(reports_module, "MigrationStats", forbidden)
    sim, _ = _run(6)
    assert sum(len(s.reports) for s in sim.history) > 6
    assert sum(int(s.reports.acked.sum()) for s in sim.history) > 0


def test_reports_columns_and_views_agree():
    sim, _ = _run(6)
    for s in sim.history:
        reports = s.reports
        assert isinstance(reports, RoundReports)
        rows = list(reports)
        assert len(rows) == len(reports)
        assert rows[-1] == reports[-1] == reports[len(reports) - 1]
        with pytest.raises(IndexError):
            reports[len(reports)]
        assert [r.rack for r in rows] == reports.rack.tolist()
        assert [r.migration.acked for r in rows] == reports.acked.tolist()
        assert sum(r.migration.total_cost for r in rows) == pytest.approx(
            s.total_cost
        )
        for i, row in enumerate(rows):
            assert type(row.migration.total_cost) is float
            assert all(type(v) is int for v in row.selected_for_migration)
            assert all(
                type(vm) is int and type(host) is int and type(cost) is float
                for vm, host, cost in row.migration.moves
            )
            m0, m1 = reports.moves_ptr[i : i + 2]
            assert len(row.migration.moves) == m1 - m0
        assert not reports.acked.flags.writeable
        # asdict deep-copies the record; the copy reads the same
        copied = dataclasses.asdict(s)["reports"]
        assert copied == reports and copy.deepcopy(reports) == rows


# ---------------------------------------------------------------------- #
def test_bus_counts_do_not_depend_on_a_subscriber():
    quiet, _ = _run(6)
    loud, seen = _run(6, subscribe_at=0)
    everything = []
    cluster, sim = _sim(4)
    sim.bus.subscribe(ServiceEvent, everything.append)
    for r in range(6):
        _round(cluster, sim, r)
    planned = sum(len(s.reports) for s in quiet.history)
    assert quiet.bus.counts == loud.bus.counts == sim.bus.counts
    assert quiet.bus.counts["RackPlanned"] == planned == len(seen)
    assert [e for e in everything if isinstance(e, RackPlanned)] == seen


def test_a_late_subscriber_sees_what_an_early_one_sees():
    early, from_start = _run(6, subscribe_at=0)
    late, from_round_3 = _run(6, subscribe_at=3)
    assert from_round_3 == [e for e in from_start if e.round >= 3]
    assert early.bus.counts == late.bus.counts


def test_each_event_is_its_rounds_reports_row():
    sim, seen = _run(6, subscribe_at=0)
    rows = [
        (s.round_index, i) for s in sim.history for i in range(len(s.reports))
    ]
    assert len(seen) == len(rows)
    for event, (rnd, i) in zip(seen, rows):
        reports = sim.history[rnd].reports
        s0, s1 = reports.selected_ptr[i : i + 2]
        assert event.round == rnd
        assert event.rack == reports.rack[i]
        assert event.alerts_processed == reports.alerts_processed[i]
        assert list(event.selected) == reports.selected[s0:s1].tolist()
        assert event.requested == reports.requested[i]
        assert event.acked == reports.acked[i]
        assert event.rejected == reports.rejected[i]
