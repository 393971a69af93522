"""Kuhn-Munkres matching tests, cross-validated against scipy, on both
solver paths: the one the box loads (compiled ``_jv.c`` where ``gcc``
exists) and, via ``TestNumpyReference``, the numpy reference."""

import shutil

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.errors import ConfigurationError, MigrationError
from repro.migration import matching
from repro.migration.matching import hungarian


@pytest.fixture
def numpy_path(monkeypatch):
    monkeypatch.setattr(matching, "_JV_KERNEL", None)


def _verdict(cost):
    try:
        return hungarian(cost)[0].tolist()
    except MigrationError as exc:
        return str(exc)


class TestCorrectness:
    def test_identity_matrix(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, tot = hungarian(c)
        np.testing.assert_array_equal(a, [0, 1])
        assert tot == 0.0

    def test_forces_expensive_choice(self):
        c = np.array([[1.0, 2.0], [1.0, 10.0]])
        a, tot = hungarian(c)
        np.testing.assert_array_equal(a, [1, 0])
        assert tot == 3.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_square(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        c = rng.random((n, n)) * 100
        _, tot = hungarian(c)
        r, cc = linear_sum_assignment(c)
        assert tot == pytest.approx(c[r, cc].sum())

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy_rectangular(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n, 18))
        c = rng.random((n, m)) * 10
        a, tot = hungarian(c)
        r, cc = linear_sum_assignment(c)
        assert tot == pytest.approx(c[r, cc].sum())
        assert len(set(a.tolist())) == n  # distinct columns

    def test_single_row(self):
        c = np.array([[3.0, 1.0, 2.0]])
        a, tot = hungarian(c)
        assert a[0] == 1 and tot == 1.0

    def test_empty(self):
        a, tot = hungarian(np.empty((0, 5)))
        assert a.shape == (0,) and tot == 0.0

    def test_integer_costs(self):
        c = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        _, tot = hungarian(c)
        r, cc = linear_sum_assignment(c)
        assert tot == c[r, cc].sum()


class TestForbiddenPairs:
    def test_routes_around_inf(self):
        c = np.array([[1.0, np.inf], [np.inf, 5.0]])
        a, tot = hungarian(c)
        np.testing.assert_array_equal(a, [0, 1])
        assert tot == 6.0

    def test_infeasible_raises(self):
        c = np.array([[np.inf, np.inf], [1.0, 1.0]])
        with pytest.raises(MigrationError):
            hungarian(c)

    def test_partially_forbidden_still_optimal(self, monkeypatch):
        # integer costs tie, a quarter of the cells are forbidden: optimal
        # against scipy, and the loaded kernel and the numpy reference break
        # every tie alike and fail with the same message, bit for bit
        rng = np.random.default_rng(7000)
        cases = []
        for _ in range(300):
            n = int(rng.integers(1, 12))
            c = rng.integers(0, 5, size=(n, n + int(rng.integers(0, 5))))
            cases.append(np.where(rng.random(c.shape) < 0.25, np.inf, c))
        loaded = [_verdict(c) for c in cases]
        monkeypatch.setattr(matching, "_JV_KERNEL", None)
        assert loaded == [_verdict(c) for c in cases]
        assert any(isinstance(v, str) for v in loaded)  # infeasible draws too
        for c, verdict in zip(cases, loaded):
            filled = np.where(np.isfinite(c), c, 1e6)
            best = filled[linear_sum_assignment(filled)].sum()
            if isinstance(verdict, str):
                assert best >= 1e6  # scipy finds no all-finite matching either
            else:
                assert c[np.arange(len(c)), verdict].sum() == best

    def test_single_row_is_a_first_minimum_scan(self, monkeypatch):
        # 1 x m on the numpy path is a first-minimum scan: it must give the
        # column (or the error) the numpy reference and the compiled kernel
        # give on the same row, ties and forbidden cells included
        def verdict(solve, c):
            try:
                return solve(c, 1, c.shape[1]).tolist()
            except MigrationError as exc:
                return str(exc)

        rng = np.random.default_rng(7100)
        cases = []
        for _ in range(300):
            c = rng.integers(0, 4, size=(1, int(rng.integers(1, 12)))).astype(float)
            c[rng.random(c.shape) < rng.choice([0.0, 0.3, 1.0])] = np.inf
            cases.append(c)
        loaded = [_verdict(c) for c in cases]
        monkeypatch.setattr(matching, "_JV_KERNEL", None)
        verdicts = set()
        for c, want in zip(cases, loaded):
            fast = _verdict(c)
            assert fast == want == verdict(matching._hungarian_numpy, c)
            if not isinstance(fast, str):
                assert hungarian(c)[1] == c[0, fast[0]]
                assert fast[0] == int(np.argmin(c[0]))
            verdicts.add(fast if isinstance(fast, str) else "column")
        assert len(verdicts) == 2  # feasible and all-forbidden rows both drawn


class TestValidation:
    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ConfigurationError):
            hungarian(np.ones((3, 2)))

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            hungarian(np.array([[np.nan, 1.0]]))

    def test_one_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            hungarian(np.ones(4))


@pytest.mark.usefixtures("numpy_path")
class TestNumpyReference(TestCorrectness, TestForbiddenPairs, TestValidation):
    """Every case above once more with the compiled kernel switched off."""


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc: numpy is the solver")
def test_compiled_kernel_loads_where_gcc_exists():
    # _load_jv_kernel swallows every error, a missing symbol included: a
    # broken _jv.c or loader would put every matching on the numpy path
    # (~11x slower on plan_alerts_k8) while every other test stays green
    assert matching._JV_KERNEL is not None, (
        "gcc is on PATH but the compiled matcher did not load; "
        "check _jv.c, its gcc build and the _jv_build directory"
    )
    assert matching._JV_KERNEL.__name__ == "jv_solve_many"
