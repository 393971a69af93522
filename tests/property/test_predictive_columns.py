"""The columnar predictive manager equals the object-per-host oracle.

:class:`~repro.sim.reactive.PredictiveManager` keeps each host's
``ARIMA(1, 1, 0)`` state as columns beside its load matrix; the oracle
(:class:`tests.sim.test_predictive.ObjectPredictiveManager`) keeps one
model object per host, advanced by ``append`` and forecast one at a time.
Both drive their own :class:`SheriffSimulation` of the same fleet, so
migrations reset histories mid-run, and every round must agree bit for
bit: the raw predictions, the alerts and the VM alert values.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import SheriffSimulation
from repro.sim.reactive import PredictiveManager

from tests.sim.test_predictive import ObjectPredictiveManager, make_env

ROUNDS = 30


def _poison(managers):
    """NaN into the oldest sample of the longest history, in every manager:
    that host's next refit raises in each of them."""
    host = int(np.argmin(managers[0]._start))
    for mgr in managers:
        if mgr._t - mgr._start[host] < 2:
            return
        mgr._loads[host, mgr._start[host]] = np.nan


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**4),
    horizon=st.integers(1, 3),
    refit_every=st.sampled_from([1, 10]),
    min_history=st.sampled_from([10, 12, 25]),
    warm=st.integers(0, 20),
    poison_at=st.one_of(st.none(), st.integers(0, ROUNDS - 1)),
)
def test_columnar_manager_equals_object_oracle(
    seed, horizon, refit_every, min_history, warm, poison_at
):
    sides = []
    for cls in (PredictiveManager, ObjectPredictiveManager):
        cluster, wl = make_env(ramp_hosts=(0, 3, 6), warm=warm, seed=seed)
        mgr = cls(
            wl, threshold=0.5, horizon=horizon, min_history=min_history,
            refit_every=refit_every,
        )
        sides.append((wl, mgr, SheriffSimulation(cluster)))
    (wl, mgr, sim), (wl_o, oracle, sim_o) = sides
    for t in range(warm):
        mgr.observe(t)
        oracle.observe(t)
    for t in range(warm, warm + ROUNDS):
        if t - warm == poison_at:
            _poison([mgr, oracle])
        alerts, vm_alerts = mgr.alerts_at(t)
        want_alerts, want_vm = oracle.alerts_at(t)
        assert mgr.last_predicted.tobytes() == oracle.last_predicted.tobytes()
        assert alerts == want_alerts
        assert vm_alerts == want_vm
        got = sim.run_round(alerts, vm_alerts, host_load=wl.host_load(t))
        want = sim_o.run_round(want_alerts, want_vm, host_load=wl_o.host_load(t))
        assert got.migrations == want.migrations
        mgr.observe(t)
        oracle.observe(t)
    assert mgr._start.tolist() == oracle._start.tolist()
    assert mgr._fitted.tolist() == [h in oracle._models for h in range(mgr._fitted.size)]
