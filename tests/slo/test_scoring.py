"""SLO-aware migration scoring: the scorer and the engine integration."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.sim import SheriffSimulation, inject_fraction_alerts
from repro.sim.inflight import MigrationTiming
from repro.slo import SloModel, SloScorer, VmSlo
from repro.topology import build_fattree


def _cluster(seed=2015):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=4,
        fill_fraction=0.5,
        skew=1.1,
        seed=seed,
        delay_sensitive_fraction=0.1,
    )


class TestScorer:
    def _model(self):
        return SloModel(
            {
                0: VmSlo(0, "gold", 100.0, 50.0),
                1: VmSlo(1, "bronze", 0.0, 400.0),
            }
        )

    def test_damage_is_downtime_times_rate(self):
        timing = MigrationTiming()
        scorer = SloScorer(self._model(), timing)
        damage = scorer.damage([0, 1], [2, 2])
        _, tl = timing.rounds_for(2)
        assert damage[0] == pytest.approx(tl.downtime * 100.0 / 60.0)
        assert damage[1] == 0.0  # zero-rate VMs never add cost

    def test_addend_couples_damage_with_destination_load(self):
        scorer = SloScorer(self._model(), MigrationTiming())
        damage = np.array([1.0, 0.0])
        load = np.array([0.0, 0.5, 1.0])
        addend = scorer.addend(damage, load)
        assert addend.shape == (2, 3)
        # busier destinations cost strictly more for a served VM...
        assert addend[0, 0] < addend[0, 1] < addend[0, 2]
        assert addend[0, 0] == pytest.approx(1.0 * 0.5)
        # ...and a zero-damage row degenerates to pure Eq. (1) cost
        assert np.all(addend[1] == 0.0)

    def test_downtime_memoized_per_capacity(self):
        calls = []

        class CountingTiming:
            def rounds_for(self, capacity):
                calls.append(capacity)
                return MigrationTiming().rounds_for(capacity)

        scorer = SloScorer(self._model(), CountingTiming())
        scorer.damage([0, 0, 0], [2, 2, 3])
        assert calls == [2, 3]


class TestEngineIntegration:
    def test_invalid_scoring_rejected(self):
        with pytest.raises(ConfigurationError):
            SheriffSimulation(_cluster(), SheriffConfig(scoring="magic"))

    def test_slo_scoring_builds_scorer_without_accountant(self):
        sim = SheriffSimulation(_cluster(), SheriffConfig(scoring="slo"))
        assert sim.slo_scorer is not None
        assert sim.slo is None  # accounting stays opt-in separately

    def test_slo_scoring_run_reports_predicted_damage(self):
        cluster = _cluster()
        sim = SheriffSimulation(
            cluster, SheriffConfig(balance_weight=25.0, scoring="slo")
        )
        damage = 0.0
        for r in range(4):
            alerts, vma = inject_fraction_alerts(
                cluster, 0.08, time=r, seed=3 + r
            )
            summary = sim.run_round(alerts, vma)
            damage += sum(
                rep.predicted_slo_damage for rep in summary.reports
            )
        assert damage > 0.0
