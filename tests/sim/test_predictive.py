"""PredictiveManager and engine cooldown/steering tests.

:class:`ObjectPredictiveManager` is the object-per-host form of the
predictive manager — one ``ARIMA`` per host, advanced by ``append`` and
forecast one model at a time — kept here as the oracle the columnar
:class:`~repro.sim.reactive.PredictiveManager` must equal bit for bit.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.errors import ConfigurationError, ForecastError, ReproError
from repro.forecast import base
from repro.forecast.arima import AR1_EDGE, ARIMA
from repro.sim import SheriffConfig, SheriffSimulation
from repro.sim.reactive import DemandDrivenWorkload, PredictiveManager
from repro.sim.scenario import inject_fraction_alerts
from repro.topology import build_fattree
from repro.traces.workload import WorkloadStream

from tests.refit_faults import fail_refits
from tests.regions import region


def make_env(ramp_hosts=(), horizon=100, warm=40, seed=5):
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=2,
        fill_fraction=0.55,
        seed=seed,
        dependency_degree=0.0,
        delay_sensitive_fraction=0.0,
    )
    rng = np.random.default_rng(seed)
    pl = cluster.placement
    streams = {}
    for vm in range(cluster.num_vms):
        host = int(pl.vm_host[vm])
        ramps = [(0, warm + 15, 10, 0.9)] if host in ramp_hosts else []
        streams[vm] = WorkloadStream.generate(
            horizon,
            base_level=0.45,
            diurnal_amplitude=0.05,
            burst_rate=0.0,
            wander_sigma=0.004,
            ramps=ramps,
            seed=int(rng.integers(0, 2**31)),
        )
    return cluster, DemandDrivenWorkload(cluster, streams)



class ObjectPredictiveManager:
    """The predictive manager with one forecaster object per host: the oracle.

    Same inputs and outputs as :class:`PredictiveManager`; each host's
    model is an ``ARIMA(1, 1, 0)`` object advanced by ``append`` every
    round and forecast by its own ``forecast``.
    """

    def __init__(
        self, workload, threshold=0.9, *, horizon=2, min_history=12, refit_every=10
    ):
        self.workload = workload
        self.threshold = threshold
        self.horizon = horizon
        self.min_history = min_history
        self.refit_every = refit_every
        n_hosts = workload.cluster.num_hosts
        self._loads = np.empty((n_hosts, 64))
        self._t = 0
        self._start = np.zeros(n_hosts, dtype=np.int64)
        self._models: Dict[int, object] = {}
        self._since_fit = np.full(n_hosts, refit_every, dtype=np.int64)
        self._last_assignment: Optional[np.ndarray] = None
        self.last_predicted: Optional[np.ndarray] = None

    def observe(self, t):
        pl = self.workload.cluster.placement
        current_assignment = pl.vm_host
        if self._last_assignment is not None:
            changed_vms = np.nonzero(self._last_assignment != current_assignment)[0]
            if changed_vms.size:
                self._reset(self._last_assignment[changed_vms])
                self._reset(current_assignment[changed_vms])
        self._last_assignment = current_assignment.copy()
        load = self.workload.host_load(t)
        if self._t == self._loads.shape[1]:
            self._loads = np.concatenate((self._loads, np.empty_like(self._loads)), axis=1)
        self._loads[:, self._t] = load
        self._t += 1
        self._since_fit += 1
        values = load.tolist()
        for h, model in self._models.items():
            model.append(values[h])

    def _reset(self, hosts):
        self._start[hosts] = self._t
        self._since_fit[hosts] = self.refit_every
        for h in hosts.tolist():
            self._models.pop(h, None)

    def _history(self, host):
        return self._loads[host, self._start[host] : self._t]

    def _refit(self, hosts):
        hosts = hosts.tolist()
        models = [ARIMA(1, 1, 0, maxiter=40) for _ in hosts]
        self._since_fit[hosts] = 0
        failures = base.warm_fit(models, [self._history(h) for h in hosts])
        for h, model, failure in zip(hosts, models, failures):
            if failure is None:
                self._models[h] = model

    def _predict(self, host):
        hist = self._history(host)
        if hist.shape[0] < self.min_history:
            return float(hist[-1]) if hist.shape[0] else 0.0
        model = self._models.get(host)
        if model is None:
            return float(hist[-1])
        try:
            f = model.forecast(self.horizon)
        except (ReproError, ValueError, np.linalg.LinAlgError):
            return float(hist[-1])
        return float(np.clip(np.max(f), 0.0, 1.0))

    def alerts_at(self, t) -> Tuple[List[Alert], Dict[int, float]]:
        due = np.flatnonzero(
            (self._t - self._start >= self.min_history)
            & (self._since_fit >= self.refit_every)
        )
        if due.size:
            self._refit(due)
        pl = self.workload.cluster.placement
        util = self.workload.vm_utilization(t)
        current = self.workload.host_load(t)
        predicted = np.array([self._predict(h) for h in range(pl.num_hosts)])
        self.last_predicted = predicted
        alerts: List[Alert] = []
        vm_alerts: Dict[int, float] = {}
        for host in range(pl.num_hosts):
            worst = max(float(predicted[host]), float(current[host]))
            if not worst > self.threshold:
                continue
            alerts.append(
                Alert(
                    kind=AlertKind.SERVER,
                    rack=int(pl.host_rack[host]),
                    magnitude=max(worst, 1e-3),
                    host=host,
                    time=t,
                )
            )
            for vm in pl.vms_on_host(host):
                if not pl.vm_delay_sensitive[vm]:
                    vm_alerts[int(vm)] = float(min(1.0, util[vm]))
        return alerts, vm_alerts


class TestPredictiveManager:
    def test_validation(self):
        cluster, wl = make_env()
        with pytest.raises(ConfigurationError):
            PredictiveManager(wl, threshold=0.0)
        with pytest.raises(ConfigurationError):
            PredictiveManager(wl, horizon=0)
        with pytest.raises(ConfigurationError):
            PredictiveManager(wl, min_history=2)

    @pytest.mark.parametrize("min_history", [6, 9])
    def test_min_history_the_model_cannot_fit_is_refused(self, min_history):
        # ARIMA(1, 1, 0) needs 10 samples: a first refit at 6-9 would raise
        # and spend a whole refit period before the next attempt
        cluster, wl = make_env()
        with pytest.raises(ConfigurationError, match="min_history must be >= 10"):
            PredictiveManager(wl, min_history=min_history)

    def test_first_model_fits_after_min_history_samples(self):
        cluster, wl = make_env(ramp_hosts=(0, 3, 6), seed=1)
        mgr = PredictiveManager(wl, min_history=10)
        for t in range(10):
            assert not mgr._fitted.any()
            mgr.alerts_at(t)
            mgr.observe(t)
        mgr.alerts_at(10)
        assert mgr._fitted.all()

    @pytest.mark.parametrize("refit_every", [0, -3])
    def test_refit_every_below_one_is_refused(self, refit_every):
        # 0 used to refit every host twice a round: up front in alerts_at
        # and again in _predict, since no since-fit count is below 0
        cluster, wl = make_env()
        with pytest.raises(ConfigurationError, match="refit_every"):
            PredictiveManager(wl, refit_every=refit_every)

    def test_refit_every_one_is_one_wave_a_round(self, monkeypatch):
        waves = []
        original = base.warm_fit

        def counting(fits, windows):
            # one window matrix per history length: its rows are the hosts
            waves.append(sum(w.shape[0] for w in windows))
            return original(fits, windows)

        monkeypatch.setattr(base, "warm_fit", counting)
        cluster, wl = make_env()
        mgr = PredictiveManager(wl, threshold=0.9, refit_every=1)
        for t in range(20):
            mgr.observe(t)
        for t in range(20, 25):
            mgr.alerts_at(t)
            mgr.observe(t)
        assert waves == [cluster.num_hosts] * 5

    def test_quiet_fleet_never_alerts(self):
        cluster, wl = make_env()
        mgr = PredictiveManager(wl, threshold=0.9, horizon=2)
        for t in range(40):
            mgr.observe(t)
        for t in range(40, 70):
            alerts, _ = mgr.alerts_at(t)
            assert alerts == []
            mgr.observe(t)

    def test_alerts_no_later_than_reactive_detection(self):
        """max(pred, current) makes detection a superset of reactive."""
        cluster, wl = make_env(ramp_hosts=(0,), warm=40)
        threshold = 0.5
        mgr = PredictiveManager(wl, threshold=threshold, horizon=3)
        for t in range(40):
            mgr.observe(t)
        first_alert = None
        first_cross = None
        for t in range(40, 90):
            if first_cross is None and wl.host_load(t)[0] > threshold:
                first_cross = t
            alerts, _ = mgr.alerts_at(t)
            if first_alert is None and any(a.host == 0 for a in alerts):
                first_alert = t
            mgr.observe(t)  # no migrations here: pure detection timing
        assert first_cross is not None, "scenario must actually overload"
        assert first_alert is not None
        assert first_alert <= first_cross

    def test_reset_on_assignment_change(self):
        cluster, wl = make_env()
        mgr = PredictiveManager(wl, threshold=0.9)
        for t in range(20):
            mgr.observe(t)
        pl = cluster.placement
        vm = 0
        src = pl.host_of(vm)
        dst = next(
            h
            for h in range(pl.num_hosts)
            if h != src and pl.free_capacity(h) >= int(pl.vm_capacity[vm])
        )
        pl.migrate(vm, dst)
        mgr.observe(20)
        assert len(mgr._history(src)) == 1  # reset then one fresh sample
        assert len(mgr._history(dst)) == 1
        other = next(h for h in range(pl.num_hosts) if h not in (src, dst))
        assert len(mgr._history(other)) == 21


class TestPredictAllMatchesScalarOracle:
    def test_predictions_and_alerts_bitwise_equal_per_host_path(self):
        """The columns, the fleet kernel, the stacked clip/max and the
        nonzero walk change no bit against one model object per host."""
        cluster, wl = make_env(ramp_hosts=(0, 3), warm=40)
        mgr = PredictiveManager(wl, threshold=0.5, horizon=3)
        oracle = ObjectPredictiveManager(wl, threshold=0.5, horizon=3)
        for t in range(40):
            mgr.observe(t)
            oracle.observe(t)
        crossed = 0
        for t in range(40, 90):
            alerts, vm_alerts = mgr.alerts_at(t)
            want_alerts, want_vm = oracle.alerts_at(t)
            assert mgr.last_predicted.tobytes() == oracle.last_predicted.tobytes()
            assert alerts == want_alerts
            assert vm_alerts == want_vm
            assert all(type(a.host) is int for a in alerts)
            crossed += len(alerts)
            mgr.observe(t)
            oracle.observe(t)
        assert crossed, "scenario must raise alerts"

    def test_warm_start_changes_nothing_on_the_default_factory(self, monkeypatch):
        """ARIMA(1,1,0) is fitted in closed form: no refit runs the optimizer.

        That includes a refit on the stationarity wall — a ramping host's
        least-squares slope at or past ``1/1.001`` — which takes the
        feasible edge; this fleet has some.
        """
        monkeypatch.setattr(
            ARIMA,
            "_minimize_css",
            lambda self, w: pytest.fail("closed form must apply"),
        )
        cluster, wl = make_env(ramp_hosts=(0, 3))
        mgr = PredictiveManager(wl, threshold=0.31, horizon=3)
        for t in range(40):
            mgr.observe(t)
        alerts = edges = 0
        for t in range(40, 90):
            alerts += len(mgr.alerts_at(t)[0])
            edges += np.count_nonzero(np.abs(mgr._phi[mgr._fitted]) == AR1_EDGE)
            mgr.observe(t)
        assert alerts > 50
        assert edges, "a refit must reach the wall"


def tracking_model(history, loads):
    """A fresh ``ARIMA(1, 1, 0)`` fit on *history*, advanced by *loads*."""
    model = ARIMA(1, 1, 0, maxiter=40).fit(history)
    for value in loads:
        model.append(float(value))
    return float(np.clip(np.max(model.forecast(3)), 0.0, 1.0))


class TestFailedRefitDoesNotAbortTheRound:
    def make(self, monkeypatch, bad_hosts):
        cluster, wl = make_env(ramp_hosts=(0,), warm=40)
        marked = {float(wl.host_load(0)[h]) for h in bad_hosts}
        # a window opening with a marked value fails (switched off by emptying it)
        attempts = fail_refits(monkeypatch, lambda y, d: float(y[0]) in marked)
        mgr = PredictiveManager(wl, threshold=0.5, horizon=3)
        return wl, mgr, marked, attempts

    def test_host_without_a_model_answers_persistence(self, monkeypatch):
        bad = (0, 5)
        wl, mgr, _, _ = self.make(monkeypatch, bad)
        reference = ObjectPredictiveManager(wl, threshold=0.5, horizon=3)
        for t in range(40):
            mgr.observe(t)
            reference.observe(t)
        for t in range(40, 90):
            want, _ = reference.alerts_at(t)  # its bad hosts fail too
            alerts, _ = mgr.alerts_at(t)  # must not raise
            for h in bad:
                assert not mgr._fitted[h]
                assert mgr.last_predicted[h] == mgr._history(h)[-1]
            # every other host is untouched by its neighbours' failures
            good = [h for h in range(wl.cluster.num_hosts) if h not in bad]
            assert (
                mgr.last_predicted[good].tolist()
                == reference.last_predicted[good].tolist()
            )
            assert [a for a in alerts if a.host not in bad] == [
                a for a in want if a.host not in bad
            ]
            mgr.observe(t)
            reference.observe(t)
        # the ramping host still alerts, from its observed load
        assert wl.host_load(89)[0] > 0.5
        assert any(a.host == 0 for a in alerts)

    def test_failed_host_is_retried_once_per_refit_period(self, monkeypatch):
        wl, mgr, _, attempts = self.make(monkeypatch, (5,))
        for t in range(40):
            mgr.observe(t)
        for t in range(40, 75):
            mgr.alerts_at(t)
            mgr.observe(t)
        # history lengths at each attempt: one per refit_every rounds
        assert attempts == [40, 50, 60, 70]

    def test_outgoing_model_survives_a_failed_refit(self, monkeypatch):
        wl, mgr, marked, attempts = self.make(monkeypatch, (5,))
        failing = set(marked)
        marked.clear()
        for t in range(40):
            mgr.observe(t)
        mgr.alerts_at(40)
        # the outgoing model, fitted before its refits start failing
        kept = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(5))
        marked.update(failing)
        for t in range(40, 65):
            mgr.alerts_at(t)
            assert mgr._fitted[5]
            assert mgr._since_fit[5] < mgr.refit_every
            # ... and it is what answers, tracking the series like append()
            assert mgr.last_predicted[5] == float(np.clip(np.max(kept.forecast(3)), 0.0, 1.0))
            mgr.observe(t)
            kept.append(float(wl.host_load(t)[5]))
        assert attempts == [50, 60]


class TestFailedRefitUnderAWave:
    def test_the_failed_host_keeps_its_model_and_the_wave_installs(self):
        """One host's refit raises inside a stacked wave: it keeps its
        outgoing row, every other host installs the fresh fit."""
        cluster, wl = make_env(ramp_hosts=(0,), warm=40)
        mgr = PredictiveManager(wl, threshold=0.5, horizon=3)
        for t in range(40):
            mgr.observe(t)
        for t in range(40, 50):  # the first wave, at t = 40
            mgr.alerts_at(t)
            if t == 40:
                history = mgr._history(5).copy()
            mgr.observe(t)
        assert mgr._fitted.all()
        columns = ("_const", "_phi", "_w_last", "_heads")
        outgoing = {name: getattr(mgr, name).copy() for name in columns}
        mgr._loads[5, mgr._start[5] + 3] = np.nan  # host 5's next refit raises
        mgr.alerts_at(50)  # the second wave
        assert (mgr._since_fit == 0).all()
        assert mgr._fitted.all()
        for name in columns:
            assert getattr(mgr, name)[5].tobytes() == outgoing[name][5].tobytes()
        for host in range(cluster.num_hosts):
            if host == 5:
                continue
            fresh = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(host))
            row = (mgr._const[host], mgr._phi[host], mgr._w_last[host])
            assert row == (fresh.const_, fresh.phi_[0], fresh._w_tail[-1])
            assert mgr._heads[host].tolist() == fresh._heads
            want = float(np.clip(np.max(fresh.forecast(3)), 0.0, 1.0))
            assert mgr.last_predicted[host] == want
        # the kept row still answers, as the fit it came from would
        seen = [wl.host_load(t)[5] for t in range(40, 50)]
        assert mgr.last_predicted[5] == tracking_model(history, seen)


class TestRefitWaveBuildsNoHostObjects:
    def test_stacked_rows_are_fresh_fits_and_only_refused_rows_build_models(
        self, monkeypatch
    ):
        """A wave over histories of three lengths, one of them a group of
        one, builds no ``ARIMA`` and writes every row bitwise as a fresh
        fit would; a constant history is the stack's mean model, and only
        a NaN history takes the scalar fit."""
        built = []
        init = ARIMA.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        cluster, wl = make_env(ramp_hosts=(0, 3))
        mgr = PredictiveManager(wl, threshold=0.9, refit_every=1)
        for t in range(30):
            if t == 5:
                mgr._reset(np.array([1, 2]))
            if t == 8:
                mgr._reset(np.array([3]))
            mgr.observe(t)
        lengths, counts = np.unique(mgr._t - mgr._start, return_counts=True)
        assert lengths.tolist() == [22, 25, 30] and 1 in counts.tolist()
        with monkeypatch.context() as m:
            m.setattr(ARIMA, "__init__", counting)
            mgr.alerts_at(30)
        assert built == []
        assert mgr._fitted.all()
        for host in range(cluster.num_hosts):
            fresh = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(host))
            row = [mgr._const[host], mgr._phi[host], mgr._w_last[host], *mgr._heads[host]]
            assert row == [fresh.const_, *fresh.phi_, *fresh._w_tail, *fresh._heads], host
        outgoing = (mgr._const[3], mgr._phi[3])
        mgr.observe(30)
        mgr._loads[1, mgr._start[1] : mgr._t] = 0.5  # deterministic: the mean model
        mgr._loads[3, mgr._t - 4] = np.nan  # the lone host's refit raises
        with monkeypatch.context() as m:
            m.setattr(ARIMA, "__init__", counting)
            mgr.alerts_at(31)
        assert len(built) == 1  # host 3's NaN; host 1's flat history is solved stacked
        assert (mgr._const[3], mgr._phi[3]) == outgoing and mgr._fitted[3]
        fresh = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(1))
        assert (mgr._const[1], mgr._phi[1]) == (fresh.const_, fresh.phi_[0]) == (0.0, 0.0)
        for host in (0, 2, *range(4, cluster.num_hosts)):
            fresh = ARIMA(1, 1, 0, maxiter=40).fit(mgr._history(host))
            assert (mgr._const[host], mgr._phi[host]) == (fresh.const_, fresh.phi_[0])


class TestObserveIsAllOrNothing:
    def test_non_finite_load_changes_nothing(self, monkeypatch):
        """A round whose load column holds a NaN raises before any state
        moves, and the rounds after it match a manager that never saw it."""
        cluster, wl = make_env(warm=40)
        mgr = PredictiveManager(wl, threshold=0.5, horizon=3)
        twin = PredictiveManager(wl, threshold=0.5, horizon=3)
        for t in range(40):
            mgr.observe(t)
            twin.observe(t)
        for t in range(40, 45):
            for m in (mgr, twin):
                m.alerts_at(t)
                m.observe(t)
        before = {k: np.copy(v) for k, v in vars(mgr).items() if isinstance(v, np.ndarray)}
        t_before = mgr._t
        clean = wl.host_load

        def poisoned(t):
            load = clean(t)
            load[7] = np.nan
            return load

        with monkeypatch.context() as m:
            m.setattr(wl, "host_load", poisoned)
            with pytest.raises(ForecastError, match="host 7"):
                mgr.observe(45)
        assert mgr._t == t_before
        after = {k: v for k, v in vars(mgr).items() if isinstance(v, np.ndarray)}
        assert sorted(after) == sorted(before)
        for name, value in before.items():
            got = after[name]
            if name == "_loads":  # only the observed columns are state
                value, got = value[:, : mgr._t], got[:, : mgr._t]
            assert got.tobytes() == value.tobytes(), name
        for t in range(45, 60):
            alerts, vm_alerts = mgr.alerts_at(t)
            assert (alerts, vm_alerts) == twin.alerts_at(t)
            assert mgr.last_predicted.tobytes() == twin.last_predicted.tobytes()
            mgr.observe(t)
            twin.observe(t)


class TestEngineCooldown:
    def test_recently_moved_vm_not_remigrated(self):
        cluster = build_cluster(
            build_fattree(4),
            hosts_per_rack=2,
            fill_fraction=0.5,
            skew=0.8,
            seed=3,
            delay_sensitive_fraction=0.0,
        )
        sim = SheriffSimulation(cluster, SheriffConfig(migration_cooldown=1000))
        moved_rounds = {}
        for r in range(6):
            alerts, vma = inject_fraction_alerts(cluster, 0.1, time=r, seed=r)
            s = sim.run_round(alerts, vma)
            for rep in s.reports:
                for vm, _, _ in rep.migration.moves:
                    assert vm not in moved_rounds, f"vm {vm} re-migrated under cooldown"
                    moved_rounds[vm] = r

    def test_cooldown_expires(self):
        cluster = build_cluster(
            build_fattree(4),
            hosts_per_rack=2,
            fill_fraction=0.5,
            skew=0.8,
            seed=3,
            delay_sensitive_fraction=0.0,
        )
        sim = SheriffSimulation(cluster, SheriffConfig(migration_cooldown=1))
        # with cooldown 1, a VM may move again in the next round; just make
        # sure rounds still run and invariants hold
        for r in range(4):
            alerts, vma = inject_fraction_alerts(cluster, 0.1, time=r, seed=r)
            sim.run_round(alerts, vma)
        cluster.placement.check_invariants()


class TestHostLoadSteering:
    def test_steering_prefers_cool_hosts(self):
        from repro.alerts.alert import Alert, AlertKind
        from repro.cluster.snapshot import FleetSnapshot
        from repro.migration.reports import RoundReports
        from repro.migration.request import ReceiverRegistry

        cluster = build_cluster(
            build_fattree(4),
            hosts_per_rack=2,
            fill_fraction=0.5,
            seed=9,
            dependency_degree=0.0,
            delay_sensitive_fraction=0.0,
        )
        pl = cluster.placement
        hosts = region(cluster, 0)[0]
        # declare every destination hot except one
        host_load = np.ones(pl.num_hosts)
        cool = int(hosts[-1])
        host_load[cool] = 0.0
        vm = int(pl.vms_in_rack(0)[0])
        alert = Alert(
            kind=AlertKind.SERVER, rack=0, host=int(pl.vm_host[vm]), magnitude=0.9
        )
        sim = SheriffSimulation(cluster, SheriffConfig(balance_weight=1000.0))
        reports = RoundReports()
        sim.shim.plan_rack(
            0,
            [alert],
            {vm: 0.9},
            ReceiverRegistry(cluster),
            frozenset(),
            host_load,
            FleetSnapshot(pl),
            reports,
        )
        report = reports[0]
        moves = report.migration.moves
        assert moves and moves[0][0] == vm and moves[0][1] == cool
