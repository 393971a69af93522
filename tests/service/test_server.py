"""The always-on driver: backpressure shedding, HTTP surface, drain."""

import asyncio
import json

import pytest

from repro.alerts.alert import Alert, AlertKind
from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.service.events import SERVICE_EVENT_TYPES, AlertShed
from repro.service.ingest import ReplayAlertSource
from repro.service.server import ServeSettings, SheriffService
from repro.sim.engine import SheriffSimulation
from repro.topology import build_fattree


def _sim():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=4,
        fill_fraction=0.5,
        skew=1.1,
        seed=2015,
        delay_sensitive_fraction=0.0,
    )
    return cluster, SheriffSimulation(
        cluster, SheriffConfig(balance_weight=25.0)
    )


def _alert(rack):
    return Alert(kind=AlertKind.LOCAL_TOR, rack=rack, magnitude=1.0)


class TestSettings:
    def test_bad_shed_policy(self):
        with pytest.raises(ConfigurationError, match="shed_policy"):
            ServeSettings(shed_policy="drop-random")

    def test_bad_queue_limit(self):
        with pytest.raises(ConfigurationError, match="queue_limit"):
            ServeSettings(queue_limit=0)

    def test_bad_max_rounds(self):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            ServeSettings(max_rounds=0)

    def test_negative_interval(self):
        with pytest.raises(ConfigurationError, match="interval"):
            ServeSettings(round_interval=-1.0)


class TestBackpressure:
    def _service(self, policy, limit=2):
        cluster, sim = _sim()
        source = ReplayAlertSource(cluster, rounds=1)
        settings = ServeSettings(queue_limit=limit, shed_policy=policy)
        return sim, SheriffService(sim, source, settings)

    def test_drop_oldest_evicts_the_head(self):
        sim, svc = self._service("drop-oldest")
        shed = []
        sim.bus.subscribe(AlertShed, shed.append)
        for rack in range(3):
            assert svc.offer(_alert(rack), 1.0)
        assert [a.rack for a, _ in svc._queue] == [1, 2]
        assert svc.alerts_shed == 1
        assert [e.rack for e in shed] == [0]
        assert shed[0].policy == "drop-oldest"
        sim.close()

    def test_drop_newest_rejects_the_newcomer(self):
        sim, svc = self._service("drop-newest")
        assert svc.offer(_alert(0), 1.0)
        assert svc.offer(_alert(1), 1.0)
        assert not svc.offer(_alert(2), 1.0)
        assert [a.rack for a, _ in svc._queue] == [0, 1]
        assert svc.alerts_shed == 1
        sim.close()

    def test_shed_counter_metric(self):
        sim, svc = self._service("drop-oldest", limit=1)
        svc.offer(_alert(0), 1.0)
        svc.offer(_alert(1), 1.0)
        assert (
            sim.metrics.counter("sheriff_ingest_shed_total").value == 1
        )
        sim.close()

    def test_flooded_ingest_sheds_but_keeps_serving(self):
        # flood 50 alerts through a queue of 4: the service must bound
        # memory (shed the excess) and still plan the survivors
        sim, svc = self._service("drop-oldest", limit=4)
        racks = sim.cluster.num_racks
        for i in range(50):
            svc.offer(_alert(i % racks), 1.0)
        assert len(svc._queue) == 4
        assert svc.alerts_shed == 46
        svc._run_one_round()
        assert svc.rounds_run == 1
        assert len(svc._queue) == 0
        sim.close()

    def test_healthz_last_round_is_the_summary_run_round_returned(self):
        # read from the return value, not echoed back over the bus: the
        # service holds no subscription on the simulation's bus
        sim, svc = self._service("drop-oldest", limit=8)
        assert svc.healthz()["last_round"] is None
        for rack in range(4):
            svc.offer(_alert(rack), 1.0)
        svc._run_one_round()
        s = sim.history[-1]
        assert svc.healthz()["last_round"] == {
            "round": s.round_index, "alerts": 4, "migrations": s.migrations,
            "total_cost": s.total_cost, "degraded": s.degraded,
        }
        assert not any(sim.bus.subscriber_count(t) for t in SERVICE_EVENT_TYPES)
        sim.close()


async def _get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode(), body.decode()


class TestServeLoop:
    def _boot(self, rounds=3, **kw):
        cluster, sim = _sim()
        source = ReplayAlertSource(cluster, fraction=0.08, rounds=rounds)
        settings = ServeSettings(round_interval=0.01, **kw)
        return sim, SheriffService(sim, source, settings)

    def test_serves_http_and_drains_clean(self):
        # an endless replay, drained on request once the GETs are answered:
        # a finite one could drain (and close the port) while they are in
        # flight; the self-draining finite source is covered by
        # test_serve_rounds_match_batch_engine_decisions
        sim, svc = self._boot(rounds=0)

        async def scenario():
            runner = asyncio.create_task(svc.run())
            while svc.bound_port is None or svc.rounds_run < 1:
                await asyncio.sleep(0.005)
            status, body = await _get(svc.bound_port, "/healthz")
            assert status.endswith("200 OK")
            health = json.loads(body)
            assert health["status"] in ("serving", "draining")
            assert health["shed_policy"] == "drop-oldest"
            status, metrics = await _get(svc.bound_port, "/metrics")
            assert status.endswith("200 OK")
            assert "sheriff_ingest_alerts_total" in metrics
            status, _ = await _get(svc.bound_port, "/nope")
            assert status.endswith("404 Not Found")
            svc.request_drain()
            return await runner

        report = asyncio.run(scenario())
        assert report["clean_drain"]
        assert report["ingested"] > 0
        assert report["planned"] == report["ingested"]
        assert svc.state == "stopped"
        assert svc.rounds_run >= 1

    def test_request_drain_stops_an_endless_source(self):
        sim, svc = self._boot(rounds=0)  # endless replay

        async def scenario():
            runner = asyncio.create_task(svc.run())
            while svc.rounds_run < 1:
                await asyncio.sleep(0.005)
            svc.request_drain()
            return await runner

        report = asyncio.run(scenario())
        assert report["clean_drain"]
        assert svc.state == "stopped"

    def test_max_rounds_is_a_hard_stop(self):
        sim, svc = self._boot(rounds=0, max_rounds=2)
        report = asyncio.run(svc.run())
        assert svc.rounds_run == 2
        assert report["rounds"] == 2

    def test_serve_rounds_match_batch_engine_decisions(self):
        # one replay tick drained into one round must equal a batch-mode
        # run_round on the same seeded alerts
        cluster_a, sim_a = _sim()
        source = ReplayAlertSource(cluster_a, fraction=0.08, rounds=1)
        svc = SheriffService(sim_a, source, ServeSettings(round_interval=0.01))
        report = asyncio.run(svc.run())
        assert report["rounds"] == 1

        from repro.sim.scenario import inject_fraction_alerts

        cluster_b, sim_b = _sim()
        alerts, vma = inject_fraction_alerts(
            cluster_b, 0.08, time=0, seed=2015
        )
        sim_b.run_round(alerts, vma)
        sim_b.close()
        a, b = sim_a.history[0], sim_b.history[0]
        assert (a.alerts, a.migrations, a.requests, a.total_cost) == (
            b.alerts,
            b.migrations,
            b.requests,
            b.total_cost,
        )
