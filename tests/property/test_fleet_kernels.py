"""Byte-identity of the vectorized fleet kernels vs the scalar oracles.

PR 2 fixed the contract: optimizations change *where* and *how fast* work
runs, never what it computes.  The fleet kernels (SoA snapshot, stacked
ARIMA forecasting, the selector bank, vectorized ALERT gate, regional cost
slab) each have a live scalar reference path; hypothesis drives generated
fleets, alert streams and move sequences through both and asserts bitwise
agreement.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alerts.alert import Alert, AlertKind, compute_alert, compute_alerts
from repro.alerts import monitor
from repro.alerts.monitor import VMMonitor, fleet_alert_values
from repro.alerts.threshold import AlertConfig
from repro.cluster import Cluster, ShimView, build_cluster
from repro.cluster.host import Host
from repro.cluster.placement import Placement
from repro.cluster.snapshot import FleetSnapshot
from repro.cluster.vm import VM
from repro.config import SheriffConfig
from repro.costs.model import CostModel
from repro.errors import ConvergenceError, ForecastError
from repro.forecast.arima import ARIMA
from repro.forecast.batch import batch_forecast
from repro.forecast.naive import NaiveLast
from repro.forecast.selection import DynamicModelSelector
from repro.forecast.selection import batch_predict_one as fleet_predict_one
from repro.migration.priority import CandidateVM, PriorityFactor, priority_select
from repro.migration.request import ReceiverRegistry
from repro.migration.vmmigration import stack_cost_blocks
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.sim.centralized import CentralizedPlan
from repro.sim.regional import regional_migration_round
from repro.topology import build_bcube, build_fattree

from tests.migration.test_vmmigration import build_cost_block, vmmigration
from tests.property.test_parallel_properties import fresh_cluster, summary_fields
from tests.property.test_regional_slab import (
    ScalarOracleModel,
    assert_shim_reads_equal_oracle,
    build_ragged,
)

common = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------- #
# batched forecasting
# --------------------------------------------------------------------- #
@st.composite
def fitted_fleet(draw):
    """A fleet of fitted ``ARIMA(1, d, 0)`` models, d in {0, 1, 2}."""
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    n_models = draw(st.integers(1, 8))
    models = []
    for _ in range(n_models):
        series = 0.5 + 0.1 * np.cumsum(rng.standard_normal(40))
        d = draw(st.sampled_from([0, 1, 2]))
        m = ARIMA(1, d, 0, include_constant=draw(st.booleans()), maxiter=30)
        try:
            m.fit(series)
        except (ConvergenceError, ForecastError):
            continue
        # advance the O(p+d) state a little so tails differ from the fit
        for v in rng.random(draw(st.integers(0, 3))):
            m.append(float(v))
        models.append(m)
    return models


@common
@given(fitted_fleet(), st.integers(1, 6))
def test_batch_forecast_bitwise_equals_scalar(models, h):
    """Each ``d`` group's columns, forecast as one matrix, are bitwise
    ``[m.forecast(h) for m in models]``."""
    for d in (0, 1, 2):
        group = [m for m in models if m.d == d]
        if not group:
            continue
        got = batch_forecast(
            np.array([m.const_ for m in group]),
            np.array([m.phi_[0] for m in group]),
            np.array([m._w_tail[-1] for m in group]),
            np.array([m._heads for m in group]).reshape(len(group), d),
            h,
        )
        assert got.shape == (len(group), h)
        for m, f in zip(group, got):
            assert f.tobytes() == m.forecast(h).tobytes()


# --------------------------------------------------------------------- #
# fleet selector rounds: batched vs scalar predict/observe cycles
# --------------------------------------------------------------------- #
def _selector_fleet(seed, n_sel):
    """Two identical fleets of fitted selectors (mixed ARIMA + naive pool)."""
    def build():
        rng = np.random.default_rng(seed)
        fleet = []
        for _ in range(n_sel):
            series = np.clip(
                0.5 + 0.1 * np.cumsum(rng.standard_normal(30)), 0.0, 1.0
            )
            sel = DynamicModelSelector(
                {
                    "arima110": lambda: ARIMA(1, 1, 0, maxiter=30),
                    "naive": NaiveLast,
                },
                period=4,
                refit_every=1000,
                max_history=40,  # bounded: the fleet read banks them
            )
            try:
                sel.fit(series)
            except ConvergenceError:
                return None
            fleet.append(sel)
        return fleet
    return build(), build()


@common
@given(st.integers(0, 10**6), st.integers(1, 5), st.integers(2, 8))
def test_fleet_selector_rounds_bitwise(seed, n_sel, n_rounds):
    """Multi-round predict/observe: banked fleet == scalar loop, bitwise.

    The fleet stays in its bank for every round — the Eq. (14) windows
    shorter than and saturated at ``period`` are scored there — and is
    compared member by member once taken back at the end.
    """
    batched, scalar = _selector_fleet(seed, n_sel)
    if batched is None:
        return
    obs = np.random.default_rng(seed + 1).random((n_rounds, n_sel))
    for r in range(n_rounds):
        pa = fleet_predict_one(batched)
        pb = [s.predict_one() for s in scalar]
        assert pa == pb
        assert all(a._bank is not None for a in batched)
        for i, (a, b) in enumerate(zip(batched, scalar)):
            a.observe(float(obs[r, i]))
            b.observe(float(obs[r, i]))
    fleet_predict_one(batched)
    for b in scalar:
        b.predict_one()
    for a, b in zip(batched, scalar):
        assert a.best_model_name() == b.best_model_name()  # takes the row back
        assert a._last_pred == b._last_pred
        for name in a.names:
            assert list(a._errors[name]) == list(b._errors[name])


@common
@given(st.integers(0, 10**6))
def test_fleet_selector_ragged_windows_bitwise(seed):
    """Uneven error windows are scored by length inside the bank — and agree.

    One member's window is desynced after its row was taken back; the
    next read banks it again, ragged.
    """
    batched, scalar = _selector_fleet(seed, 2)
    if batched is None:
        return
    obs = np.random.default_rng(seed + 1).random((6, 2))
    for r in range(3):
        fleet_predict_one(batched)
        for s in scalar:
            s.predict_one()
        for i, (a, b) in enumerate(zip(batched, scalar)):
            a.observe(float(obs[r, i]))
            b.observe(float(obs[r, i]))
    # desync one member's window in both fleets identically, after a release
    batched[0].best_model_name()
    assert batched[0]._bank is None
    batched[0]._errors["naive"].popleft()
    scalar[0]._errors["naive"].popleft()
    for r in range(3, 6):
        assert fleet_predict_one(batched) == [s.predict_one() for s in scalar]
        assert batched[0]._bank is not None
        for i, (a, b) in enumerate(zip(batched, scalar)):
            a.observe(float(obs[r, i]))
            b.observe(float(obs[r, i]))
    for a, b in zip(batched, scalar):
        assert a.best_model_name() == b.best_model_name()
        for name in a.names:
            assert list(a._errors[name]) == list(b._errors[name])


# --------------------------------------------------------------------- #
# fleet ALERT values: the vectorised read side vs one monitor at a time
# --------------------------------------------------------------------- #
_MIXED_CONFIGS = [
    AlertConfig(threshold=0.6),  # one step: the fast rows
    AlertConfig(threshold=0.6, horizon=2),
    AlertConfig(threshold=0.8),
    AlertConfig(threshold=0.8, horizon=2),
]


def _mixed_monitors(seed):
    rng = np.random.default_rng(seed)
    monitors = []
    with pytest.MonkeyPatch.context() as mp:  # fast refits
        mp.setattr(monitor, "PERIOD", 4)
        mp.setattr(monitor, "REFIT_EVERY", 5)
        for config in _MIXED_CONFIGS + _MIXED_CONFIGS[:2]:
            history = np.clip(
                rng.uniform(0.3, 0.8) + 0.05 * rng.standard_normal((30, 4)), 0.0, 1.0
            )
            monitors.append(VMMonitor(history, config))
    # pokes before the first fleet read, so before any selector is banked
    monitors[-2]._selectors[1].tracer = RecordingTracer()  # answers scalar
    del monitors[-1]._selectors[2]._models["naive"]  # a member dropped at refit
    del monitors[0]._selectors[3]._models["naive"]  # ... and one in the bank
    return monitors


@common
@given(st.integers(0, 10**6), st.integers(2, 7))
def test_fleet_alert_values_mixed_fleet_bitwise(seed, n_rounds):
    """Horizons 1 and 2, a traced selector inside a one-step monitor
    and dropped members: values, round after round (refits included), and
    the ``_last_pred`` side effects of the last read are the scalar loop's."""
    try:
        batched, scalar = _mixed_monitors(seed), _mixed_monitors(seed)
    except ConvergenceError:
        return
    rows = np.random.default_rng(seed + 1).random((n_rounds, len(batched), 4))
    for r in range(n_rounds):
        got = fleet_alert_values(batched)
        want = [m.alert_value() for m in scalar]
        assert got.tolist() == want
        if r == n_rounds - 1:
            break
        for i, (a, b) in enumerate(zip(batched, scalar)):
            a.observe(rows[r, i])
            b.observe(rows[r, i])
    assert batched[0]._selectors[3]._bank is not None
    for a, b in zip(batched, scalar):
        for sa, sb in zip(a._selectors, b._selectors):
            assert sa.best_model_name() == sb.best_model_name()  # takes it back
            assert sa._last_pred == sb._last_pred
            assert sa._last_best == sb._last_best


# --------------------------------------------------------------------- #
# vectorized ALERT gate
# --------------------------------------------------------------------- #
@common
@given(
    st.integers(0, 10**6),
    st.integers(1, 40),
    st.integers(1, 6),
    st.floats(0.05, 1.0),
)
def test_compute_alerts_bitwise_equals_per_row(seed, n, r, threshold):
    rng = np.random.default_rng(seed)
    # overshoots and negatives exercise the clip exactly like forecasters do
    profiles = rng.uniform(-0.3, 1.4, size=(n, r))
    got = compute_alerts(profiles, threshold)
    assert got.shape == (n,)
    for i in range(n):
        assert float(got[i]) == compute_alert(profiles[i], threshold)


@common
@given(st.integers(0, 10**6), st.integers(1, 20))
def test_compute_alerts_per_row_thresholds(seed, n):
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(0.0, 1.2, size=(n, 4))
    thresholds = rng.uniform(0.1, 1.0, size=n)
    got = compute_alerts(profiles, thresholds)
    for i in range(n):
        assert float(got[i]) == compute_alert(profiles[i], float(thresholds[i]))


# --------------------------------------------------------------------- #
# SoA snapshot vs the Placement scalar queries
# --------------------------------------------------------------------- #
@common
@given(st.integers(0, 10**6))
def test_snapshot_matches_placement_queries(seed):
    cluster = fresh_cluster(seed)
    pl = cluster.placement
    # a few mutations so the snapshot is not just the initial layout
    rng = np.random.default_rng(seed)
    for _ in range(5):
        vm = int(rng.integers(0, cluster.num_vms))
        host = int(rng.integers(0, pl.num_hosts))
        try:
            pl.migrate(vm, host)
        except Exception:
            continue
    snap = FleetSnapshot(pl)
    hosts = np.arange(pl.num_hosts)
    np.testing.assert_array_equal(
        snap.free_capacity(hosts),
        np.asarray([pl.free_capacity(int(h)) for h in hosts]),
    )
    assert snap._rack_csr is None  # the rack index is built on first use
    for rack in range(pl.num_racks):
        np.testing.assert_array_equal(snap.vms_in_rack(rack), pl.vms_in_rack(rack))
    # PRIORITY candidate records: the scalar definition, one VM at a time
    alerts = {
        int(v): float(rng.random())
        for v in rng.choice(cluster.num_vms, size=cluster.num_vms // 3, replace=False)
    }
    ids = rng.integers(0, cluster.num_vms, size=10)
    scalar = [
        CandidateVM(
            vm_id=int(v),
            capacity=int(pl.vm_capacity[v]),
            value=float(pl.vm_value[v]),
            alert=float(alerts.get(int(v), 0.0)),
            delay_sensitive=bool(pl.vm_delay_sensitive[v]),
        )
        for v in ids
    ]
    assert snap.candidates(ids, alerts) == scalar


def _scalar_host_pick(pl, host, alerts):
    """Alg. 1's SERVER branch as it was: records, filter, priority_select."""
    cands = [
        CandidateVM(
            vm_id=int(v),
            capacity=int(pl.vm_capacity[v]),
            value=float(pl.vm_value[v]),
            alert=float(alerts.get(int(v), 0.0)),
            delay_sensitive=bool(pl.vm_delay_sensitive[v]),
        )
        for v in pl.vms_on_host(host)
    ]
    cands = [c for c in cands if c.alert > 0]
    chosen = priority_select(cands, PriorityFactor.ONE, budget=1)
    return (chosen[0].vm_id if chosen else -1), len(cands)


@common
@given(st.integers(0, 10**6))
def test_host_winners_equal_priority_select(seed):
    # few distinct alerts / capacities / values, so that every level of the
    # tie-break (alert, capacity, value, id) decides some host
    rng = np.random.default_rng(seed)
    n_hosts, n_vms = 8, 60
    vm_host = rng.integers(0, n_hosts - 1, size=n_vms)  # the last host is empty
    vms = [
        VM(
            vm_id=i,
            capacity=int(rng.integers(1, 3)),
            value=float(rng.integers(1, 3)),
            # host 0 holds delay-sensitive VMs only
            delay_sensitive=bool(vm_host[i] == 0 or rng.random() < 0.2),
        )
        for i in range(n_vms)
    ]
    hosts = [Host(host_id=h, rack=h // 2, capacity=1000) for h in range(n_hosts)]
    pl = Placement(vms, hosts, vm_host)
    levels = [0.0, float("nan"), 0.4, 0.4, 0.9]
    alerts = {
        int(v): levels[int(rng.integers(0, len(levels)))]
        for v in rng.permutation(n_vms)[: n_vms * 2 // 3]
        if pl.vm_host[v] != 1  # host 1 has VMs, none of them alerted
    }
    snap = FleetSnapshot(pl)
    winners, counts = snap.host_winners(alerts)
    assert snap.host_winners(alerts)[0] is winners  # one table per dict
    for host in range(n_hosts):
        assert (winners[host], counts[host]) == _scalar_host_pick(pl, host, alerts)
    assert winners[0] == -1 and (counts[1], counts[n_hosts - 1]) == (0, 0)
    assert snap.host_winners({}) == ([-1] * n_hosts, [0] * n_hosts)


# --------------------------------------------------------------------- #
# stacked Alg. 3 inputs vs one build_cost_block per rack
# --------------------------------------------------------------------- #
_FABRICS = {
    "fattree4": lambda: build_fattree(4),
    "bcube4": lambda: build_bcube(4),
    "ragged": build_ragged,  # widths 3, 3, 2, 2 and an empty region
}


def _assert_blocks_equal(got, want):
    assert got.vms == want.vms
    if want.hosts.size == 0:
        # an empty region: Alg. 3 reads no matrix of such a block
        assert got.hosts.size == 0
        return
    for name in ("hosts", "host_racks", "true_cost", "cost", "first_min"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == np.ascontiguousarray(b).tobytes(), name


@pytest.mark.parametrize("fabric", ["fattree4", "bcube4", "ragged"])
@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("measured", [False, True])
@pytest.mark.parametrize("scoring", ["network", "slo"])
def test_stacked_blocks_equal_build_cost_block(fabric, warm, measured, scoring):
    """The round's stacked blocks equal per-rack blocks built on the scalar
    oracle, whether the stack reads slab rows an earlier stack filled
    (hits) or computes them itself (misses)."""
    cluster = build_cluster(
        _FABRICS[fabric](), hosts_per_rack=3, fill_fraction=0.55, skew=0.8, seed=11
    )
    pl = cluster.placement
    sim = SheriffSimulation(cluster, SheriffConfig(scoring=scoring))
    rng = np.random.default_rng(3)
    host_load = rng.random(pl.num_hosts) if measured else None
    # rack 1 sees no live destination: its rows are all-inf, first_min -1
    doomed = sim.managers[1].shim.candidate_hosts()
    pl.host_alive[doomed] = False
    picks = {
        rack: pl.vms_in_rack(rack)[: 1 + rack % 3].tolist()
        for rack in range(cluster.num_racks)
    }
    picks[0] = []  # a rack whose picks were all frozen gets no block
    snapshot = FleetSnapshot(pl)
    kwargs = dict(
        balance_weight=25.0, host_load=host_load, slo_scorer=sim.slo_scorer
    )
    stats = sim.cost_model.cache_stats
    if warm:
        stack_cost_blocks(cluster, sim.cost_model, picks, snapshot, **kwargs)
        stats.update(hits=0, misses=0)
    blocks = stack_cost_blocks(cluster, sim.cost_model, picks, snapshot, **kwargs)
    assert (stats["misses"] == 0) if warm else (stats["hits"] == 0)
    assert sorted(blocks) == [r for r in sorted(picks) if picks[r]]
    for rack, block in blocks.items():
        shim = sim.managers[rack].shim
        want = build_cost_block(
            cluster,
            ScalarOracleModel(cluster),
            picks[rack],
            shim.candidate_hosts(),
            snapshot=snapshot,
            **kwargs,
        )
        _assert_blocks_equal(block, want)
        if block.hosts.size:
            assert (block.first_min >= 0).tolist() == np.isfinite(
                block.cost
            ).any(axis=1).tolist()
    if doomed.size:
        assert (blocks[1].first_min == -1).all()
        assert np.isinf(blocks[1].cost).all()
    assert not stack_cost_blocks(cluster, sim.cost_model, {0: []}, snapshot)


def _planned_run(cluster_seed, stacked, monkeypatch):
    """Three rounds with SERVER, ToR and frozen picks; what they decided."""
    built = []  # migration sets a shim built its own block for

    def own_block(cluster, cost_model, picks, snapshot, **kwargs):
        # a shim's fallback: a one-rack stack, or (rack by rack) the oracle
        ((rack, vms),) = picks.items()
        built.append(vms)
        if stacked:
            return stack_cost_blocks(cluster, cost_model, picks, snapshot, **kwargs)
        hosts = ShimView(cluster, rack).candidate_hosts()
        return {
            rack: build_cost_block(
                cluster, cost_model, vms, hosts, snapshot=snapshot, **kwargs
            )
        }

    if not stacked:
        # every shim builds its own block: Alg. 3 rack by rack
        monkeypatch.setattr(
            "repro.service.round.stack_cost_blocks", lambda *a, **k: {}
        )
    monkeypatch.setattr("repro.migration.manager.stack_cost_blocks", own_block)
    cluster = fresh_cluster(cluster_seed)
    tracer = RecordingTracer()
    sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
    pl = cluster.placement
    for r in range(3):
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=r, seed=cluster_seed + r)
        # a ToR alert appends beta picks the stack cannot hold
        rack = alerts[0].rack
        alerts.append(Alert(kind=AlertKind.LOCAL_TOR, rack=rack, magnitude=0.9, time=r))
        vma.update({int(v): 0.5 for v in pl.vms_in_rack(rack)[:4] if int(v) not in vma})
        # and the first host's winner is inside its migration window
        winner = FleetSnapshot(pl).host_winners(vma)[0][alerts[1].host]
        if winner >= 0:
            sim._last_move[winner] = r
        sim.run_round(alerts, vma)
    events = [e.as_dict() for e in tracer.events]
    for e in events:
        e.pop("elapsed_s", None)
    summaries = [summary_fields(s) for s in sim.history]
    planned = sum(bool(rep.selected_for_migration) for s in sim.history for rep in s.reports)
    # with the stack only a ToR rack builds a block (when its beta picks
    # add to its SERVER picks); without it, every planning rack does
    assert (0 < len(built) <= 3) if stacked else (len(built) == planned > 3)
    return summaries, events, sim.metrics.as_dict(), pl.vm_host.tolist()


@common
@given(st.integers(0, 10**6))
def test_stacked_plan_equals_rack_by_rack(seed):
    with pytest.MonkeyPatch.context() as mp:
        stacked = _planned_run(seed, True, mp)
    with pytest.MonkeyPatch.context() as mp:
        rack_by_rack = _planned_run(seed, False, mp)
    assert stacked == rack_by_rack
    assert any(e["event"] == "PrioritySelected" and e["factor"] == "BETA" for e in stacked[1])


# --------------------------------------------------------------------- #
# the Figs. 11–14 round vs one oracle VMMIGRATION per rack
# --------------------------------------------------------------------- #
def _oracle_regional_round(
    cluster, cost_model, candidates, *, apply, balance_weight, tracer, metrics
):
    """Rack by rack, in rack order: the scalar block, the REQUEST loop, a
    metrics write per rack — the regional round's per-rack composition."""
    plan = CentralizedPlan()
    pl = cluster.placement
    by_rack = {}
    for vm in dict.fromkeys(int(v) for v in candidates):
        by_rack.setdefault(int(pl.host_rack[pl.vm_host[vm]]), []).append(vm)
    receivers = ReceiverRegistry(cluster, tracer=tracer)
    for rack in sorted(by_rack):
        stats = vmmigration(
            cluster,
            cost_model,
            by_rack[rack],
            ShimView(cluster, rack).candidate_hosts(),
            receivers,
            balance_weight=balance_weight,
            tracer=tracer,
            metrics=metrics,
            rack=rack,
        )
        plan.search_space += stats.search_space
        plan.total_cost += stats.total_cost
        plan.moves.extend(stats.moves)
        plan.unplaced.extend(stats.unplaced)
    if apply:
        receivers.commit_round()
    else:
        receivers.reset_round()
    return plan


def _regional_run(planner, fabric, seed, apply, balance_weight):
    cluster = build_cluster(
        _FABRICS[fabric](), hosts_per_rack=3, fill_fraction=0.55, skew=0.8, seed=seed
    )
    pl = cluster.placement
    rng = np.random.default_rng(seed)
    # one dead destination host, and candidates with duplicates
    pl.host_alive[int(rng.integers(0, pl.num_hosts))] = False
    candidates = rng.integers(0, cluster.num_vms, size=cluster.num_vms // 3).tolist()
    tracer, metrics = RecordingTracer(), MetricsRegistry()
    plan = planner(
        cluster,
        CostModel(cluster),
        candidates,
        apply=apply,
        balance_weight=balance_weight,
        tracer=tracer,
        metrics=metrics,
    )
    events = [e.as_dict() for e in tracer.events]
    for e in events:
        e.pop("elapsed_s", None)
    return plan, events, metrics.as_dict(), pl.vm_host.tolist()


@common
@given(
    st.sampled_from(sorted(_FABRICS)),
    st.integers(0, 10**6),
    st.booleans(),
    st.sampled_from([0.0, 25.0]),
)
def test_regional_round_equals_per_rack_oracle(fabric, seed, apply, balance_weight):
    got = _regional_run(regional_migration_round, fabric, seed, apply, balance_weight)
    want = _regional_run(_oracle_regional_round, fabric, seed, apply, balance_weight)
    plan, events, metrics, placement = got
    assert plan.moves == want[0].moves
    assert plan.total_cost == want[0].total_cost
    assert plan.search_space == want[0].search_space
    assert plan.unplaced == want[0].unplaced
    assert (events, metrics, placement) == want[1:]
    assert any(e["event"] == "RequestSent" for e in events)


# --------------------------------------------------------------------- #
# batched cost-matrix kernel vs the scalar Eq. (1) kernel
# --------------------------------------------------------------------- #
@common
@given(st.integers(0, 10**6))
def test_cost_rows_dense_dependencies_take_scalar_path(seed):
    # degree >= 8 crosses numpy's pairwise-summation block: the stacked
    # kernel must take the oracle's own source-rack sum for that row
    cluster = fresh_cluster(seed)
    deps = cluster.dependencies
    hub = 0
    for other in range(1, min(cluster.num_vms, 12)):
        if other not in deps.neighbors(hub):
            deps.add_pair(hub, other)
    assert len(deps.neighbors(hub)) >= 8
    assert_shim_reads_equal_oracle(cluster, [CostModel(cluster)], CostModel(cluster))


@common
@given(st.integers(0, 10**6))
def test_query_then_query_hits_without_recompute(seed):
    cluster = fresh_cluster(seed)
    cm = CostModel(cluster)
    assert_shim_reads_equal_oracle(cluster, [cm], CostModel(cluster))
    assert cm.cache_stats["misses"] == cluster.num_vms
    assert cm.cache_stats["hits"] == 0
    assert_shim_reads_equal_oracle(cluster, [cm], CostModel(cluster))
    assert cm.cache_stats["hits"] == cluster.num_vms
    assert cm.cache_stats["misses"] == cluster.num_vms


# --------------------------------------------------------------------- #
# the slab across generations vs the scalar oracle
# --------------------------------------------------------------------- #
@common
@given(st.integers(0, 10**6), st.integers(1, 12))
def test_incremental_cost_model_equals_rebuilt(seed, n_moves):
    cluster = fresh_cluster(seed)
    pl = cluster.placement
    warm = CostModel(cluster)
    oracle = CostModel(cluster)
    rng = np.random.default_rng(seed)
    assert_shim_reads_equal_oracle(cluster, [warm], oracle)
    for _ in range(n_moves):
        vm = int(rng.integers(0, cluster.num_vms))
        host = int(rng.integers(0, pl.num_hosts))
        try:
            pl.migrate(vm, host)
        except Exception:
            continue
        assert_shim_reads_equal_oracle(cluster, [warm], oracle)


@common
@given(st.integers(0, 10**6))
def test_incremental_cost_model_across_lost_restore(seed):
    cluster = fresh_cluster(seed)
    pl = cluster.placement
    warm = CostModel(cluster)
    oracle = CostModel(cluster)
    assert_shim_reads_equal_oracle(cluster, [warm], oracle)
    assert warm._slot_of[0] >= 0
    pl.mark_lost(0)
    warm.sync_cache()
    assert warm._slot_of[0] == -1  # a lost VM has no slot
    pl.restore_lost(0)
    assert_shim_reads_equal_oracle(cluster, [warm], oracle)
