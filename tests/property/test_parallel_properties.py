"""Engine-level byte-identity properties and the Kuhn–Munkres cross-check.

Whatever alert stream the engine is fed, the cost-kernel cache must be
invisible: the same RoundSummary counters and the same final placement as
a run whose every cost model reads its rows from the scalar oracle
(``migration_cost_vector``), across rounds (migrations land between
rounds, so the slab's generation reset is what is on trial) and across
the cost-model swap of a ``SWITCH_FAIL`` / ``SWITCH_RECOVER`` pair.

A hypothesis-driven Kuhn–Munkres cross-check against scipy rides along:
every Alg. 3 iteration solves one matching, so the solver's correctness on
rectangular and partially forbidden matrices underpins every golden pin.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.costs.model import CostModel
from repro.errors import MigrationError
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec
from repro.migration.matching import hungarian
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.topology import build_fattree

from tests.property.test_regional_slab import ScalarOracleModel

common = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def fresh_cluster(seed):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=0.55,
        skew=0.8,
        seed=seed,
        delay_sensitive_fraction=0.1,
    )


def summary_fields(summary):
    """Every RoundSummary field except wall-clock noise (timings/reports)."""
    d = dataclasses.asdict(summary)
    d.pop("timings", None)
    d.pop("reports", None)
    d.pop("pool", None)
    return d


def oracle_models(mp):
    """Make every cost model the engine builds — its own and each rebuild
    under a switch fault — a :class:`ScalarOracleModel`."""
    mp.setattr("repro.sim.engine.CostModel", ScalarOracleModel)
    mp.setattr("repro.faults.injector.CostModel", ScalarOracleModel)


def run_variant(cluster, rounds):
    sim = SheriffSimulation(cluster, SheriffConfig())
    return [summary_fields(sim.run_round(alerts, vma)) for alerts, vma in rounds]


@st.composite
def alert_rounds(draw):
    """A fixed cluster plus a few rounds of seeded fraction alerts."""
    seed = draw(st.integers(0, 10**6))
    cluster = fresh_cluster(seed)
    n_rounds = draw(st.integers(1, 3))
    fraction = draw(st.floats(0.02, 0.15))
    rounds = [
        inject_fraction_alerts(cluster, fraction, time=r, seed=seed + r)
        for r in range(n_rounds)
    ]
    return seed, rounds


@common
@given(alert_rounds())
def test_cost_cache_is_byte_identical(case):
    seed, rounds = case
    baseline_cluster = fresh_cluster(seed)
    with pytest.MonkeyPatch.context() as mp:
        oracle_models(mp)
        baseline = run_variant(baseline_cluster, rounds)
    cluster = fresh_cluster(seed)
    assert run_variant(cluster, rounds) == baseline
    np.testing.assert_array_equal(
        cluster.placement.vm_host, baseline_cluster.placement.vm_host
    )


@common
@given(st.integers(0, 10**6), st.floats(0.02, 0.15))
def test_cost_cache_is_byte_identical_across_a_switch_failure(seed, fraction):
    """With the models rebuilt under SWITCH_FAIL / SWITCH_RECOVER, the run
    stays byte-identical to the scalar oracle's over rounds that include
    both rebuilds."""
    agg = fresh_cluster(seed).num_racks  # first aggregation switch
    schedule = [
        FaultSpec(FaultKind.SWITCH_FAIL, target=agg, at_round=1),
        FaultSpec(FaultKind.SWITCH_RECOVER, target=agg, at_round=3),
    ]
    runs = {}
    for model in (ScalarOracleModel, CostModel):
        with pytest.MonkeyPatch.context() as mp:
            if model is ScalarOracleModel:
                oracle_models(mp)
            cluster = fresh_cluster(seed)
            sim = SheriffSimulation(
                cluster, SheriffConfig(fault_schedule=FaultSchedule(schedule))
            )
            summaries, models = [], [sim.cost_model]
            for r in range(5):
                alerts, vma = inject_fraction_alerts(
                    cluster, fraction, time=r, seed=seed + r
                )
                summaries.append(summary_fields(sim.run_round(alerts, vma)))
                if sim.cost_model is not models[-1]:
                    models.append(sim.cost_model)
        assert len(models) == 3  # built, rebuilt on fail, rebuilt on recover
        assert [type(m) for m in models] == [model] * 3
        runs[model] = (summaries, cluster.placement.vm_host.tobytes())
    assert runs[CostModel] == runs[ScalarOracleModel]


matching_settings = settings(max_examples=50, deadline=None)


@matching_settings
@given(
    st.integers(0, 10**6),
    st.integers(1, 9),
    st.integers(0, 8),
    st.floats(0.0, 0.45),
)
def test_hungarian_matches_scipy_on_random_matrices(seed, n, extra, forbid_frac):
    """Rectangular matrices with random forbidden (inf) entries: whenever a
    fully finite matching exists, hungarian's total equals scipy's."""
    rng = np.random.default_rng(seed)
    m = n + extra
    c = rng.random((n, m)) * 100.0
    mask = rng.random((n, m)) < forbid_frac
    c[mask] = np.inf
    if not np.isfinite(c).any(axis=1).all():
        return  # a row with no finite column is trivially infeasible
    sentinel = 1e9
    filled = np.where(np.isfinite(c), c, sentinel)
    r, cc = linear_sum_assignment(filled)
    ref = float(filled[r, cc].sum())
    try:
        a, tot = hungarian(c)
    except MigrationError:
        # hungarian may only declare infeasibility when scipy cannot find
        # an all-finite matching either
        assert ref >= sentinel
        return
    assert np.isfinite(c[np.arange(n), a]).all()
    assert len(set(a.tolist())) == n
    if ref < sentinel:
        assert tot == pytest.approx(ref)
    else:
        # scipy had to use a forbidden cell, hungarian found a finite
        # matching scipy's sentinel formulation missed — still optimal
        # among finite matchings by construction, just check feasibility
        assert np.isfinite(tot)
