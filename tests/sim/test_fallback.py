"""Fallback governor tests: hysteresis, driver wiring, byte-identity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.obs.events import FallbackTransition
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.sim import FallbackManager, SheriffSimulation, run_managed_simulation
from repro.sim.fallback import FALLBACK_POLICIES
from repro.sim.reactive import DemandDrivenWorkload, PredictiveManager, ReactiveManager
from repro.topology import build_fattree
from repro.traces.adversarial import adversarial_streams


def make_env(seed=5, horizon=60):
    """Small cluster on the deceptive calm-then-cliff regime."""
    cluster = build_cluster(
        build_fattree(4), hosts_per_rack=2, fill_fraction=0.9, seed=seed,
        dependency_degree=0.0, delay_sensitive_fraction=0.0,
    )
    streams = adversarial_streams(cluster.num_vms, horizon, seed=seed)
    return cluster, DemandDrivenWorkload(
        cluster, {vm: s for vm, s in enumerate(streams)}
    )


class _Scripted:
    """Predictive source whose per-round forecast error is scripted."""

    def __init__(self, workload, error_by_round):
        self.workload = workload
        self.error_by_round = error_by_round
        self.last_predicted = None
        self.rounds_seen = []

    def alerts_at(self, t):
        self.last_predicted = self.workload.host_load(t) + self.error_by_round(t)
        return [("predictive", t)], {}

    def observe(self, t):
        self.rounds_seen.append(t)


class _SilentReactive:
    def alerts_at(self, t):
        return [("reactive", t)], {}


class TestHysteresis:
    def governor(self, error_by_round, **kwargs):
        _, wl = make_env()
        kwargs.setdefault("error_bound", 0.15)
        kwargs.setdefault("window", 4)
        kwargs.setdefault("recovery_rounds", 3)
        return FallbackManager(
            wl, _Scripted(wl, error_by_round), _SilentReactive(), **kwargs
        )

    def test_trigger_then_recover(self):
        # loud for 6 rounds, calm after
        mgr = self.governor(lambda t: 0.4 if t < 6 else 0.0)
        modes = []
        for t in range(12):
            alerts, _ = mgr.alerts_at(t)
            modes.append(alerts[0][0])
            mgr.observe(t)
        # rounds 0-3 fill the window (still predictive), trip at t=3's
        # observe, degrade through the calm-counting rounds, recover
        # after 3 consecutive calm scores
        assert modes[:4] == ["predictive"] * 4
        assert "reactive" in modes
        assert modes[-1] == "predictive"
        assert mgr.transitions == 2
        assert not mgr.degraded

    def test_shadow_mode_keeps_observing(self):
        mgr = self.governor(lambda t: 1.0)  # never recovers
        for t in range(8):
            mgr.alerts_at(t)
            mgr.observe(t)
        assert mgr.degraded
        # the predictive manager observed every round while degraded
        assert mgr.predictive.rounds_seen == list(range(8))

    def test_partial_window_never_trips(self):
        mgr = self.governor(lambda t: 1.0, window=10)
        for t in range(9):
            mgr.alerts_at(t)
            mgr.observe(t)
        assert not mgr.degraded

    def test_loud_round_resets_calm_streak(self):
        # calm, calm, loud, calm, calm, ... never 3 calm in a row after
        # the trip until the tail
        errs = [0.4] * 4 + [0.0, 0.0, 0.4] * 3 + [0.0] * 3
        mgr = self.governor(lambda t: errs[t])
        for t in range(len(errs)):
            mgr.alerts_at(t)
            mgr.observe(t)
        assert mgr.transitions == 2
        assert not mgr.degraded

    def test_event_and_counters(self):
        tracer = RecordingTracer()
        reg = MetricsRegistry()
        mgr = self.governor(
            lambda t: 0.4 if t < 6 else 0.0, tracer=tracer, metrics=reg
        )
        for t in range(12):
            mgr.alerts_at(t)
            mgr.observe(t)
        transitions = [e for e in tracer.events if isinstance(e, FallbackTransition)]
        assert [e.mode for e in transitions] == ["reactive", "predictive"]
        assert all(e.at_round >= 0 and e.trailing_error >= 0.0 for e in transitions)
        assert reg.counter(
            "sheriff_fallback_transitions_total", mode="reactive"
        ).value == 1
        assert reg.counter(
            "sheriff_fallback_transitions_total", mode="predictive"
        ).value == 1
        assert reg.counter("sheriff_fallback_rounds_total").value >= 1

    def test_validation(self):
        _, wl = make_env()
        with pytest.raises(ConfigurationError):
            FallbackManager(wl, _Scripted(wl, lambda t: 0.0), error_bound=0.0)
        with pytest.raises(ConfigurationError):
            FallbackManager(wl, _Scripted(wl, lambda t: 0.0), window=0)
        with pytest.raises(ConfigurationError):
            FallbackManager(wl, _Scripted(wl, lambda t: 0.0), recovery_rounds=0)
        with pytest.raises(ConfigurationError):
            FallbackManager(wl, object())  # no observe: not predictive


class TestDriverWiring:
    def run_once(self, policy, *, seed=5, **fallback_kwargs):
        cluster, wl = make_env(seed=seed)
        cfg = SheriffConfig(fallback_policy=policy, **fallback_kwargs)
        sim = SheriffSimulation(cluster, cfg)
        mgr = PredictiveManager(wl, threshold=0.7)
        rep = run_managed_simulation(
            sim, wl, mgr, warm=20, horizon=60, overload_threshold=0.7
        )
        sim.close()
        return rep

    def _key(self, rep):
        d = dataclasses.asdict(rep)
        d.pop("timings")
        return d

    def test_reactive_policy_wraps_and_reports(self):
        rep = self.run_once(
            "reactive",
            fallback_error_bound=0.05,
            fallback_window=4,
            fallback_recovery_rounds=3,
        )
        # the cliff regime must trip the governor at least once
        assert rep.fallback_transitions >= 1
        assert rep.fallback_rounds >= 1

    def test_none_policy_reports_zero(self):
        rep = self.run_once("none")
        assert rep.fallback_transitions == 0
        assert rep.fallback_rounds == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="fallback_policy"):
            self.run_once("bogus")
        assert set(FALLBACK_POLICIES) == {"none", "reactive"}

    def test_off_is_byte_identical_to_historical_loop(self):
        """policy="none" with tuned knobs changes nothing at all."""
        base = self.run_once("none")
        tuned = self.run_once(
            "none",
            fallback_error_bound=0.01,
            fallback_window=2,
            fallback_recovery_rounds=1,
        )
        assert self._key(base) == self._key(tuned)

    def test_config_round_trips_fallback_knobs(self):
        cfg = SheriffConfig(
            fallback_policy="reactive",
            fallback_error_bound=0.11,
            fallback_window=5,
            fallback_recovery_rounds=2,
        )
        back = SheriffConfig.from_dict(cfg.to_dict())
        assert back.fallback_policy == "reactive"
        assert back.fallback_error_bound == 0.11
        assert back.fallback_window == 5
        assert back.fallback_recovery_rounds == 2

    def test_already_wrapped_manager_not_rewrapped(self):
        cluster, wl = make_env()
        cfg = SheriffConfig(fallback_policy="reactive")
        sim = SheriffSimulation(cluster, cfg)
        inner = PredictiveManager(wl, threshold=0.7)
        mgr = FallbackManager.from_config(wl, inner, cfg, threshold=0.7)
        rep = run_managed_simulation(
            sim, wl, mgr, warm=20, horizon=40, overload_threshold=0.7
        )
        sim.close()
        assert rep.rounds == 20

    def test_reactive_manager_passes_through(self):
        """A non-observing manager is never wrapped, whatever the policy."""
        cluster, wl = make_env()
        cfg = SheriffConfig(fallback_policy="reactive")
        sim = SheriffSimulation(cluster, cfg)
        mgr = ReactiveManager(wl, threshold=0.7)
        rep = run_managed_simulation(
            sim, wl, mgr, warm=20, horizon=40, overload_threshold=0.7
        )
        sim.close()
        assert rep.fallback_transitions == 0


common = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class _ScriptedPredictive:
    """Alert source whose per-round forecast error is scripted."""

    def __init__(self, workload, errors):
        self.workload = workload
        self.errors = errors
        self.last_predicted = None

    def alerts_at(self, t):
        load = self.workload.host_load(t)
        self.last_predicted = load + self.errors[t]
        return [], {}

    def observe(self, t):
        pass


class _FlatWorkload:
    def __init__(self, hosts=4):
        self._load = np.full(hosts, 0.5)

    def host_load(self, t):
        return self._load.copy()


@common
@given(
    st.lists(st.floats(0.0, 0.5), min_size=24, max_size=24),
    st.integers(2, 5),
    st.integers(1, 4),
)
def test_fallback_hysteresis_invariants(errs, window, recovery):
    """Trigger/recovery state machine invariants on arbitrary error runs.

    Degradation requires a *full* window above the bound's mean; recovery
    requires exactly `recovery` consecutive calm rounds; transitions
    always alternate reactive → predictive → reactive...
    """
    from repro.sim.fallback import FallbackManager

    class _SilentReactive:
        def alerts_at(self, t):
            return [], {}

    bound = 0.15
    wl = _FlatWorkload()
    mgr = FallbackManager(
        wl,
        _ScriptedPredictive(wl, errs),
        _SilentReactive(),
        error_bound=bound,
        window=window,
        recovery_rounds=recovery,
    )
    modes = []
    for t in range(len(errs)):
        mgr.alerts_at(t)
        was = mgr.degraded
        mgr.observe(t)
        modes.append(mgr.degraded)
        if not was and mgr.degraded:
            # can only trip on a full window with mean above the bound
            assert len(mgr._errors) == window
            assert mgr.trailing_error > bound
        if was and not mgr.degraded:
            assert mgr._calm >= recovery
    # transitions counter equals the number of mode flips
    flips = sum(
        1 for a, b in zip([False] + modes, modes) if a != b
    )
    assert mgr.transitions == flips
