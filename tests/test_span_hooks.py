"""The benchmark's span hooks still reach the program.

``bench/spans.py`` times each layer by wrapping callables under ``src/`` by
name.  A rename makes its ``_resolve`` raise, and a code path that stops
calling a hooked callable leaves that layer's span idle: either way the
span pass (``make bench-smoke``) fails.  These tests fail the same way in
tier-1: every wrapper target resolves (``bench/`` is only read), and a
banked ``VMMonitor`` fleet — the selector-fleet workload in small — still
goes through the hooked forecast callables, and a plan round at smoke size
goes through the hooked shim round and opens the sections the harness
reads.
"""

from collections import Counter

import numpy as np
import pytest

from bench import spans
from bench.workloads import WORKLOADS, base_config
from repro.alerts import monitor
from repro.alerts.monitor import VMMonitor, fleet_alert_values
from repro.alerts.threshold import AlertConfig
from repro.forecast import selection
from repro.forecast.selection import DynamicModelSelector


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _ in spans.WRAPPERS],
    ids=[f"{module}.{path}" for module, path, _ in spans.WRAPPERS],
)
def test_every_span_wrapper_target_resolves(module, path):
    _, _, target = spans._resolve(module, path)
    assert callable(target)


def test_a_banked_fleet_calls_the_hooked_forecast_callables(monkeypatch):
    calls = Counter()

    def spy(owner, attr):
        real = getattr(owner, attr)

        def counting(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    rng = np.random.default_rng(5)
    monitors, rows = [], []
    with monkeypatch.context() as m:  # fast refits, short memory
        m.setattr(monitor, "PERIOD", 4)
        m.setattr(monitor, "REFIT_EVERY", 5)
        m.setattr(monitor, "MAX_HISTORY", 30)
        for _ in range(6):
            series = np.clip(0.5 + 0.05 * rng.standard_normal((40, 4)), 0.0, 1.0)
            monitors.append(VMMonitor(series[:28], AlertConfig(threshold=0.6)))
            rows.append(series[28:])
    spy(DynamicModelSelector, "observe")
    spy(selection, "warm_fit")
    spy(selection, "batch_predict_one")
    for t in range(12):
        fleet_alert_values(monitors)
        assert all(sel._bank is not None for mon in monitors for sel in mon._selectors)
        for mon, row in zip(monitors, rows):
            mon.observe(row[t])
    assert calls["batch_predict_one"] == 12
    assert calls["observe"] == 12 * 6 * 4
    assert calls["warm_fit"] >= 2  # the banked rows' refit waves


def test_a_plan_round_calls_the_hooked_shim_round_and_opens_its_sections():
    """The plan-only workload at smoke size (k = 4), with the span
    wrappers installed: each round is one hooked ``process_round`` span,
    and the harness's four ``Profiler`` sections open."""
    workload = WORKLOADS["plan_alerts_k8"]
    rec = spans.SpanRecorder(True)
    rounds = 3
    with spans.installed(rec):
        run = workload.build(workload.sizes["smoke"], rounds, 2015, base_config(rec), rec)
        for r in range(rounds):
            run.step(r, run.prepare(r))
    fired = Counter(span[spans.NAME] for span in rec.spans)
    assert fired["migration.shim_round"] == rounds
    assert fired["service.round"] == rounds
    counts = run.sim.profiler.counts
    for section in ("priority", "matching", "request", "commit"):
        assert counts.get(section, 0) > 0, section
