"""End-to-end observability: events from real rounds, config compat, parity."""

import numpy as np
import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.forecast.naive import NaiveLast, SeasonalNaive
from repro.forecast.selection import DynamicModelSelector
from repro.obs.events import EVENT_TYPES
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer
from repro.sim.engine import SheriffSimulation
from repro.sim.inflight import MigrationTiming
from repro.sim.scenario import inject_fraction_alerts
from repro.topology import build_fattree


def _cluster(seed=42, fill=0.5, skew=0.7, **kw):
    return build_cluster(
        build_fattree(4),
        hosts_per_rack=3,
        fill_fraction=fill,
        skew=skew,
        seed=seed,
        delay_sensitive_fraction=0.0,
        **kw,
    )


class TestRoundEventSequence:
    def test_plain_round_emits_coherent_story(self):
        tracer = RecordingTracer()
        cluster = _cluster()
        sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=0, seed=5)
        summary = sim.run_round(alerts, vma)

        kinds = tracer.kinds()
        # delivery precedes every decision event
        assert kinds[0] == "AlertDelivered"
        assert len(tracer.of_kind("AlertDelivered")) == summary.alerts
        # every shim that got alerts ran PRIORITY
        assert tracer.of_kind("PrioritySelected")
        # sender-side counts agree with the summary's metrics-backed totals
        assert len(tracer.of_kind("RequestSent")) == summary.requests
        assert len(tracer.of_kind("RequestAcked")) == summary.migrations
        assert len(tracer.of_kind("RequestRejected")) == summary.rejects
        # instant engine: committed == landed, one each per accepted request
        assert len(tracer.of_kind("MigrationCommitted")) == summary.migrations
        assert len(tracer.of_kind("MigrationLanded")) == summary.migrations
        # every event carries the round stamp
        assert all(e.round == 0 for e in tracer.events)

    def test_acks_precede_commits_within_round(self):
        tracer = RecordingTracer()
        cluster = _cluster()
        sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=0, seed=5)
        sim.run_round(alerts, vma)
        kinds = tracer.kinds()
        if "MigrationCommitted" in kinds:
            assert kinds.index("RequestAcked") < kinds.index("MigrationCommitted")

    def test_rejection_reasons_are_documented_vocabulary(self):
        tracer = RecordingTracer()
        cluster = _cluster(fill=0.85, skew=1.2, seed=7)
        sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
        for r in range(4):
            alerts, vma = inject_fraction_alerts(cluster, 0.25, time=r, seed=50 + r)
            sim.run_round(alerts, vma)
        allowed = {
            "wrong-delegation",
            "capacity",
            "dependency-conflict",
            "in-flight",
            "capacity-hold",
        }
        for ev in tracer.of_kind("RequestRejected"):
            assert ev.reason in allowed


class TestAllEventKinds:
    def test_full_stack_run_emits_every_documented_kind(self):
        """One run exercising migrations, rejects, reroutes, timed landings,
        forecasting and fault injection covers the complete event
        vocabulary."""
        tracer = RecordingTracer()
        cluster = _cluster(fill=0.85, skew=1.2, seed=7, dependency_degree=2.0)
        sim = SheriffSimulation(
            cluster,
            SheriffConfig(
                with_flows=True, migration_timing=MigrationTiming(), tracer=tracer
            ),
        )
        assert sim.flow_table is not None and sim.flow_table.flows
        for r in range(6):
            alerts, vma = inject_fraction_alerts(cluster, 0.25, time=r, seed=100 + r)
            alerts = list(alerts)
            # congested aggregation switch on a live flow path → FLOWREROUTE
            flow = next(iter(sim.flow_table.flows.values()))
            mid = [n for n in flow.path if n not in (flow.src_rack, flow.dst_rack)]
            alerts.append(
                Alert(
                    kind=AlertKind.OUTER_SWITCH,
                    rack=flow.src_rack,
                    magnitude=0.9,
                    switch=int(mid[0]),
                    time=r,
                )
            )
            vma.setdefault(flow.vm, 0.9)
            sim.run_round(alerts, vma)

        # the forecast layer shares the tracer: Eq. 14 model selection
        selector = DynamicModelSelector(
            {"naive": NaiveLast, "seasonal": lambda: SeasonalNaive(period=4)},
            period=4,
            tracer=tracer,
        )
        rng = np.random.default_rng(0)
        series = np.sin(np.arange(32) / 4.0) + 0.1 * rng.standard_normal(32)
        selector.fit(series[:24])
        for value in series[24:]:
            selector.predict_one()
            selector.observe(float(value))

        # the fault layer shares the tracer too: start migrations, then
        # crash an occupied host mid-flight and abort a migration
        from repro.faults.channel import ChannelPolicy, UnreliableChannel
        from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

        fcluster = _cluster(fill=0.85, skew=1.2, seed=7)
        pl = fcluster.placement
        victim = next(
            h for h in range(pl.num_hosts) if len(pl.vms_on_host(h)) > 0
        )
        fsim = SheriffSimulation(
            fcluster,
            SheriffConfig(
                tracer=tracer,
                migration_timing=MigrationTiming(),
                fault_schedule=FaultSchedule(
                    [
                        FaultSpec(
                            FaultKind.HOST_CRASH, target=victim, at_round=1
                        ),
                        FaultSpec(FaultKind.MIGRATION_ABORT, at_round=1),
                    ]
                ),
            ),
        )
        alerts, vma = inject_fraction_alerts(fcluster, 0.3, time=0, seed=5)
        assert fsim.run_round(alerts, vma).migrations > 0  # some in flight
        fsim.run_round([], {})

        # and a REQUEST into a dead delegation times out over the channel
        dead = UnreliableChannel(
            fsim.receivers,
            ChannelPolicy(max_retries=0),
            is_rack_down=lambda rack: True,
            tracer=tracer,
        )
        dead.request(0, 0, int(pl.host_rack[0]))

        # the fallback governor shares the tracer too: a sustained forecast
        # error trips it into reactive mode
        from repro.sim.fallback import FallbackManager

        class _FlatWorkload:
            def host_load(self, t):
                return np.full(4, 0.5)

        class _Wrong:
            def __init__(self, workload):
                self.workload = workload
                self.last_predicted = None

            def alerts_at(self, t):
                self.last_predicted = self.workload.host_load(t) + 0.5
                return [], {}

            def observe(self, t):
                pass

        class _Silent:
            def alerts_at(self, t):
                return [], {}

        wl = _FlatWorkload()
        governor = FallbackManager(
            wl, _Wrong(wl), _Silent(),
            error_bound=0.1, window=2, recovery_rounds=2, tracer=tracer,
        )
        for t in range(4):
            governor.alerts_at(t)
            governor.observe(t)
        assert governor.degraded

        # the SLO layer shares the tracer too: a tiny budget guarantees
        # the first charge also exhausts a tenant class
        scluster = _cluster(fill=0.85, skew=1.2, seed=7)
        ssim = SheriffSimulation(
            scluster,
            SheriffConfig(tracer=tracer, slo=True, slo_budget_minutes=1e-9),
        )
        alerts, vma = inject_fraction_alerts(scluster, 0.3, time=0, seed=5)
        assert ssim.run_round(alerts, vma).slo_violation_minutes > 0

        seen = set(tracer.kinds())
        missing = {cls.__name__ for cls in EVENT_TYPES} - seen
        assert not missing, f"never emitted: {sorted(missing)}"


class TestConfigCompat:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            SheriffSimulation(_cluster(), banana=1)

    def test_facade_exports(self):
        import repro

        for name in (
            "SheriffConfig",
            "SheriffSimulation",
            "run_managed_simulation",
            "build_cluster",
            "build_fattree",
            "build_bcube",
            "Tracer",
            "MetricsRegistry",
            "RecordingTracer",
            "JsonlTracer",
        ):
            assert getattr(repro, name) is not None
            assert name in dir(repro)


class TestObservabilityIsPassive:
    def test_tracing_leaves_round_summaries_identical(self):
        """A recording tracer must not perturb a single decision."""

        def run(tracer):
            cluster = _cluster(seed=11, fill=0.7, skew=1.0)
            cfg = SheriffConfig(tracer=tracer) if tracer else SheriffConfig()
            sim = SheriffSimulation(cluster, cfg)
            out = []
            for r in range(5):
                alerts, vma = inject_fraction_alerts(cluster, 0.2, time=r, seed=70 + r)
                out.append(sim.run_round(alerts, vma))
            return out

        plain = run(None)
        traced = run(RecordingTracer())
        for a, b in zip(plain, traced):
            assert a.round_index == b.round_index
            assert a.alerts == b.alerts
            assert a.migrations == b.migrations
            assert a.requests == b.requests
            assert a.rejects == b.rejects
            assert a.total_cost == b.total_cost
            assert a.search_space == b.search_space
            assert a.unplaced == b.unplaced
            assert a.workload_std_after == b.workload_std_after

    def test_metrics_registry_mirrors_summaries(self):
        registry = MetricsRegistry()
        cluster = _cluster()
        sim = SheriffSimulation(cluster, SheriffConfig(metrics=registry))
        totals = {"migrations": 0, "requests": 0, "rejects": 0, "cost": 0.0}
        for r in range(3):
            alerts, vma = inject_fraction_alerts(cluster, 0.3, time=r, seed=30 + r)
            s = sim.run_round(alerts, vma)
            totals["migrations"] += s.migrations
            totals["requests"] += s.requests
            totals["rejects"] += s.rejects
            totals["cost"] += s.total_cost
        assert registry.total("sheriff_rounds_total") == 3.0
        assert registry.total("sheriff_requests_acked_total") == totals["migrations"]
        assert registry.total("sheriff_requests_sent_total") == totals["requests"]
        assert registry.total("sheriff_requests_rejected_total") == totals["rejects"]
        assert registry.total("sheriff_migration_cost_total") == pytest.approx(
            totals["cost"]
        )
        assert registry.total("sheriff_migrations_committed_total") == float(
            totals["migrations"]
        )

    def test_tracing_is_passive_under_seeded_chaos(self):
        """Tracer-on chaos campaigns report byte-identically to tracer-off.

        The faults layer is the hardest case for the zero-cost contract:
        the unreliable channel, fault injector and evacuation paths all
        branch on ``tracer.enabled``, and the lifecycle stitcher now runs
        inside every enabled emit.  The seeded campaign report is
        byte-stable (``make chaos`` cmp contract), so comparing reports
        proves the traced decision path identical.
        """
        import json

        from repro.faults import ChannelPolicy, run_chaos_campaign

        def run(tracer):
            cfg = SheriffConfig(tracer=tracer) if tracer else None
            return run_chaos_campaign(
                topology="fattree",
                size=4,
                rounds=8,
                seed=2015,
                alert_fraction=0.1,
                channel=ChannelPolicy(
                    loss_probability=0.1, max_retries=3, seed=2015
                ),
                config=cfg,
            )

        plain = json.dumps(run(None), sort_keys=True)
        tracer = RecordingTracer()
        traced = json.dumps(run(tracer), sort_keys=True)
        assert traced == plain
        # and the traced run really did record the fault vocabulary
        kinds = set(tracer.kinds())
        assert "FaultInjected" in kinds
        assert "RequestSent" in kinds

    def test_profiler_breakdown_has_pipeline_sections(self):
        cluster = _cluster()
        sim = SheriffSimulation(cluster)
        alerts, vma = inject_fraction_alerts(cluster, 0.3, time=0, seed=5)
        summary = sim.run_round(alerts, vma)
        for section in ("round", "priority", "matching", "request", "commit"):
            assert section in summary.timings
            assert summary.timings[section] >= 0.0
        breakdown = sim.timing_breakdown()
        assert breakdown["round"] >= summary.timings["round"]
