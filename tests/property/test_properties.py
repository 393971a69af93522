"""Property-based tests (hypothesis) on core data structures and kernels."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from repro.cluster.placement import Placement
from repro.errors import CapacityError, PlacementError
from repro.forecast.lag import difference, difference_heads, lag_matrix, undifference
from repro.kmedian import KMedianInstance, local_search
from repro.migration.matching import hungarian
from repro.migration.priority import CandidateVM, PriorityFactor, priority_select
from repro.topology.shortest_paths import floyd_warshall

common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------- #
# Floyd–Warshall metric properties
# --------------------------------------------------------------------- #
@st.composite
def weight_matrices(draw):
    n = draw(st.integers(3, 8))
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges[(i, j)] = draw(
                    st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
                )
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for (i, j), v in edges.items():
        w[i, j] = w[j, i] = v
    return w


@common
@given(weight_matrices())
def test_fw_triangle_inequality(w):
    d = floyd_warshall(w)
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if np.isfinite(d[i, k]) and np.isfinite(d[k, j]):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


@common
@given(weight_matrices())
def test_fw_symmetric_and_dominated_by_edges(w):
    d = floyd_warshall(w)
    np.testing.assert_allclose(d, d.T)
    finite = np.isfinite(w)
    assert (d[finite] <= w[finite] + 1e-12).all()


# --------------------------------------------------------------------- #
# difference / undifference are inverse
# --------------------------------------------------------------------- #
@common
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=8, max_size=60),
    st.integers(1, 3),
)
def test_difference_roundtrip(values, d):
    y = np.asarray(values)
    if y.shape[0] <= d + 2:
        return
    heads = difference_heads(y[:-2], d)
    w = difference(y, d)
    rebuilt = undifference(w[-2:], heads)
    np.testing.assert_allclose(rebuilt, y[-2:], atol=1e-6)


@common
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=5, max_size=40), st.integers(1, 4))
def test_lag_matrix_rows_are_history(values, lags):
    y = np.asarray(values)
    if y.shape[0] <= lags:
        return
    X, t = lag_matrix(y, lags)
    for i in range(X.shape[0]):
        for j in range(lags):
            assert X[i, j] == y[lags + i - 1 - j]
        assert t[i] == y[lags + i]


# --------------------------------------------------------------------- #
# Hungarian == scipy on random instances
# --------------------------------------------------------------------- #
@common
@given(st.integers(1, 8), st.integers(0, 6), st.integers(0, 10**6))
def test_hungarian_matches_scipy(n, extra, seed):
    rng = np.random.default_rng(seed)
    c = rng.random((n, n + extra)) * 50
    _, tot = hungarian(c)
    r, cc = linear_sum_assignment(c)
    assert tot == pytest.approx(c[r, cc].sum())


# --------------------------------------------------------------------- #
# PRIORITY knapsack properties
# --------------------------------------------------------------------- #
@st.composite
def candidate_sets(draw):
    n = draw(st.integers(1, 10))
    cands = [
        CandidateVM(
            vm_id=i,
            capacity=draw(st.integers(1, 15)),
            value=draw(st.floats(0.1, 10.0, allow_nan=False)),
            alert=draw(st.floats(0.0, 1.0, allow_nan=False)),
            delay_sensitive=draw(st.booleans()),
        )
        for i in range(n)
    ]
    budget = draw(st.integers(0, 60))
    return cands, budget


@common
@given(candidate_sets())
def test_priority_respects_budget_and_uniqueness(args):
    cands, budget = args
    out = priority_select(cands, PriorityFactor.BETA, budget=budget)
    total = sum(c.capacity for c in out)
    assert total <= max(budget, 0)
    ids = [c.vm_id for c in out]
    assert len(set(ids)) == len(ids)
    assert all(not c.delay_sensitive for c in out)


@common
@given(candidate_sets())
def test_priority_maximizes_relief(args):
    """No unselected movable VM should fit in the leftover budget."""
    cands, budget = args
    out = priority_select(cands, PriorityFactor.BETA, budget=budget)
    used = sum(c.capacity for c in out)
    chosen = {c.vm_id for c in out}
    leftovers = [
        c for c in cands if c.vm_id not in chosen and not c.delay_sensitive
    ]
    # optimality of relieved capacity: brute-force check on small sets
    movable = [c for c in cands if not c.delay_sensitive]
    if len(movable) <= 8:
        best = 0
        for mask in range(1 << len(movable)):
            tot = sum(
                movable[i].capacity for i in range(len(movable)) if mask >> i & 1
            )
            if tot <= budget:
                best = max(best, tot)
        assert used == best


# --------------------------------------------------------------------- #
# Placement capacity invariant under random migration sequences
# --------------------------------------------------------------------- #
@common
@given(st.integers(0, 10**6))
def test_placement_random_migrations_keep_invariants(seed):
    rng = np.random.default_rng(seed)
    n_hosts = int(rng.integers(2, 6))
    host_capacity = [int(rng.integers(20, 60)) for _ in range(n_hosts)]
    vm_capacity = []
    vm_host = []
    for h, capacity in enumerate(host_capacity):
        used = 0
        while used < capacity // 2:
            cap = int(rng.integers(1, 10))
            if used + cap > capacity:
                break
            vm_capacity.append(cap)
            vm_host.append(h)
            used += cap
    if not vm_capacity:
        return
    n_vms = len(vm_capacity)
    pl = Placement(
        vm_capacity=vm_capacity,
        vm_value=[1.0] * n_vms,
        vm_delay_sensitive=[False] * n_vms,
        host_capacity=host_capacity,
        host_rack=[h % 2 for h in range(n_hosts)],
        vm_host=vm_host,
    )
    for _ in range(20):
        vm = int(rng.integers(0, n_vms))
        dst = int(rng.integers(0, n_hosts))
        try:
            pl.migrate(vm, dst)
        except (CapacityError, PlacementError):
            pass
    pl.check_invariants()


# --------------------------------------------------------------------- #
# Local search never worse than its start, never better than optimum
# --------------------------------------------------------------------- #
@common
@given(st.integers(0, 10**6), st.integers(4, 9), st.integers(1, 3))
def test_local_search_bounds(seed, n, k):
    if k >= n:
        return
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    inst = KMedianInstance.from_points(pts, k)
    start = list(range(k))
    res = local_search(inst, initial=start, seed=seed)
    assert res.cost <= inst.cost(start) + 1e-9
    from repro.kmedian import exact_kmedian

    _, opt = exact_kmedian(inst)
    assert res.cost >= opt - 1e-9
    assert res.cost <= 5 * opt + 1e-9  # 3 + 2/1 bound
