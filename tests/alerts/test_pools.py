"""Model pool composition tests."""

import numpy as np

from repro.alerts.monitor import default_model_pool, light_model_pool
from repro.traces import weekly_traffic_trace


class TestPools:
    def test_members_constructible_and_fittable(self):
        y = weekly_traffic_trace(seed=1)[:500]
        for pool in (default_model_pool(), light_model_pool()):
            for name, factory in pool.items():
                m = factory()
                m.fit(y)
                assert np.isfinite(m.forecast(3)).all(), name

    def test_pools_are_fresh_each_call(self):
        a = light_model_pool()
        b = light_model_pool()
        assert a is not b
        assert a["naive"]() is not b["naive"]()
