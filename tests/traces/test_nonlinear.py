"""Mackey–Glass generator tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.traces.nonlinear import mackey_glass


class TestMackeyGlass:
    def test_bounded_and_nondegenerate(self):
        x = mackey_glass(2000, seed=0)
        assert np.isfinite(x).all()
        assert 0.2 < x.min() and x.max() < 2.0
        assert x.std() > 0.05

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(mackey_glass(500, seed=1), mackey_glass(500, seed=1))

    def test_different_seeds_differ(self):
        assert not np.allclose(mackey_glass(500, seed=1), mackey_glass(500, seed=2))

    def test_nonlinear_structure(self):
        # a linear AR(1) fit must leave substantial residual structure
        x = mackey_glass(3000, seed=3)
        x0, x1 = x[:-1], x[1:]
        phi = np.dot(x0 - x0.mean(), x1 - x1.mean()) / np.dot(x0 - x0.mean(), x0 - x0.mean())
        resid = (x1 - x1.mean()) - phi * (x0 - x0.mean())
        # residuals remain autocorrelated -> nonlinearity
        r = np.corrcoef(resid[:-1], resid[1:])[0, 1]
        assert abs(r) > 0.4

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            mackey_glass(10, tau=0)
        with pytest.raises(ConfigurationError):
            mackey_glass(-1)

