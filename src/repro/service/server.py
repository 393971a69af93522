"""The always-on Sheriff service: asyncio driver behind ``repro serve``.

:class:`SheriffService` turns the batch engine into a long-running
process: an ingest task pulls ``(Alert, magnitude)`` pairs from an
alert source (:mod:`repro.service.ingest`) into a **bounded queue**,
and a planner loop drains whatever is queued every ``round_interval``
seconds into one :meth:`SheriffSimulation.run_round` call — the same
eight-stage round batch mode runs, so the decision logic is literally
shared.

Backpressure: when ingest outruns planning and the queue hits
``queue_limit``, the shed policy decides who loses — ``drop-oldest``
(stale alerts give way, the default: a superseded overload report is
worthless), ``drop-newest`` (protect the backlog), or ``block`` (stall
ingest; only sensible for replay sources).  Every shed increments
``sheriff_ingest_shed_total`` and publishes an
:class:`~repro.service.events.AlertShed` bus event.

Operational surface (both endpoints answered by a deliberately tiny
HTTP/1.0 responder — no framework dependency):

* ``GET /healthz`` — JSON lifecycle/queue snapshot;
* ``GET /metrics`` — the registry in Prometheus text exposition
  (:func:`repro.obs.export.prometheus_text`), scrapeable live.

Shutdown: SIGTERM/SIGINT request a *graceful drain* — ingest stops,
queued alerts are planned in final rounds (bounded by
``drain_timeout``), the HTTP server closes, and :meth:`run` returns a
final report.  The rounds themselves run inline on the event loop (a
round at service scale is milliseconds; this keeps every metrics/trace
write single-threaded) — only the source's potentially blocking
``next()`` runs in the executor.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.alerts.alert import Alert
from repro.errors import ConfigurationError
from repro.service.events import AlertShed, ServiceStateChanged

__all__ = ["ServeSettings", "SheriffService"]

SHED_POLICIES = ("drop-oldest", "drop-newest", "block")


@dataclass
class ServeSettings:
    """Knobs of the always-on driver (the CLI's ``serve`` flags).

    Parameters
    ----------
    host, port:
        HTTP bind address; port ``0`` picks a free port (read it back
        from :attr:`SheriffService.bound_port` or the ready line).
    round_interval:
        Seconds between planner ticks; each tick drains the queue into
        one management round (empty queue = no round).
    queue_limit:
        Ingest queue capacity in alerts; the shed policy applies beyond.
    shed_policy:
        ``drop-oldest`` | ``drop-newest`` | ``block`` (see module docs).
    ingest_interval:
        Seconds the ingest task sleeps between source batches (``0`` =
        as fast as the source produces; use it to pace a replay).
    max_rounds:
        Hard stop after this many management rounds (safety valve for
        smoke tests and bounded runs); ``None`` = run until the source
        ends or a drain is requested.
    drain_timeout:
        Seconds a graceful drain may keep planning queued alerts before
        dropping the remainder.
    """

    host: str = "127.0.0.1"
    port: int = 0
    round_interval: float = 0.05
    queue_limit: int = 1024
    shed_policy: str = "drop-oldest"
    ingest_interval: float = 0.0
    max_rounds: Optional[int] = None
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {', '.join(SHED_POLICIES)}, "
                f"got {self.shed_policy!r}"
            )
        if self.queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.round_interval < 0 or self.ingest_interval < 0:
            raise ConfigurationError("intervals must be >= 0")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )


class SheriffService:
    """One simulation + one alert source, served until drained.

    The service publishes its lifecycle (:class:`ServiceStateChanged`)
    and shed decisions (:class:`AlertShed`) on the simulation's bus and
    reads each round's outcome from the :class:`RoundSummary` that
    ``run_round`` returns — it never reaches into engine internals.
    """

    def __init__(self, sim, source, settings: Optional[ServeSettings] = None) -> None:
        self.sim = sim
        self.source = source
        self.settings = settings if settings is not None else ServeSettings()
        self.metrics = sim.metrics
        self.state = "starting"
        self.bound_port: Optional[int] = None
        self.rounds_run = 0
        self.alerts_ingested = 0
        self.alerts_shed = 0
        self.alerts_planned = 0
        self.last_round: Optional[Dict[str, object]] = None
        self._queue: Deque[Tuple[Alert, float]] = deque()
        self._drain_requested = False
        self._ingest_done = False

    # ------------------------------------------------------------------ #
    # backpressure
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def offer(self, alert: Alert, magnitude: float) -> bool:
        """Enqueue one alert, applying the shed policy when full.

        Returns ``True`` when the alert was enqueued.  The ``block``
        policy is enforced by the async ingest loop (which waits for
        space); a direct ``offer`` under ``block`` on a full queue
        sheds the newcomer rather than deadlocking.
        """
        s = self.settings
        if len(self._queue) >= s.queue_limit:
            if s.shed_policy == "drop-oldest":
                victim, _ = self._queue.popleft()
                self._shed(victim)
            else:  # drop-newest, or block called synchronously on full
                self._shed(alert)
                return False
        self._queue.append((alert, magnitude))
        self.metrics.gauge("sheriff_ingest_queue_depth").set(len(self._queue))
        return True

    def _shed(self, alert: Alert) -> None:
        self.alerts_shed += 1
        self.metrics.counter("sheriff_ingest_shed_total").inc()
        self.sim.bus.publish(
            AlertShed(
                rack=alert.rack,
                policy=self.settings.shed_policy,
                queue_depth=len(self._queue),
            )
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def request_drain(self) -> None:
        """Ask for a graceful shutdown (idempotent; signal-handler safe)."""
        if not self._drain_requested:
            self._drain_requested = True
            self._set_state("draining")
            close = getattr(self.source, "close", None)
            if close is not None:
                close()

    def _set_state(self, state: str) -> None:
        self.state = state
        self.sim.bus.publish(ServiceStateChanged(state=state))

    # ------------------------------------------------------------------ #
    # ingest task
    # ------------------------------------------------------------------ #
    async def _ingest(self) -> None:
        loop = asyncio.get_running_loop()
        batches = iter(self.source.batches())

        def next_batch():
            try:
                return next(batches)
            except StopIteration:
                return None

        try:
            while not self._drain_requested:
                batch = await loop.run_in_executor(None, next_batch)
                if batch is None:
                    break
                for alert, magnitude in batch:
                    if self._drain_requested:
                        break
                    if self.settings.shed_policy == "block":
                        while (
                            len(self._queue) >= self.settings.queue_limit
                            and not self._drain_requested
                        ):
                            await asyncio.sleep(self.settings.round_interval / 4 or 0.001)
                    self.alerts_ingested += 1
                    self.metrics.counter("sheriff_ingest_alerts_total").inc()
                    self.offer(alert, magnitude)
                if self.settings.ingest_interval:
                    await asyncio.sleep(self.settings.ingest_interval)
                else:
                    await asyncio.sleep(0)  # yield to the planner loop
        finally:
            self._ingest_done = True

    # ------------------------------------------------------------------ #
    # planner loop
    # ------------------------------------------------------------------ #
    def _drain_batch(self) -> Tuple[List[Alert], Dict[int, float]]:
        alerts: List[Alert] = []
        vm_alerts: Dict[int, float] = {}
        while self._queue:
            alert, magnitude = self._queue.popleft()
            alerts.append(alert)
            if alert.vm is not None:
                vm_alerts[alert.vm] = magnitude
        self.metrics.gauge("sheriff_ingest_queue_depth").set(0)
        return alerts, vm_alerts

    def _run_one_round(self) -> None:
        alerts, vm_alerts = self._drain_batch()
        self.alerts_planned += len(alerts)
        summary = self.sim.run_round(alerts, vm_alerts)
        self.last_round = {
            "round": summary.round_index,
            "alerts": summary.alerts,
            "migrations": summary.migrations,
            "total_cost": summary.total_cost,
            "degraded": summary.degraded,
        }
        self.rounds_run += 1
        self.metrics.counter("sheriff_serve_rounds_total").inc()

    def _should_stop(self) -> bool:
        if self._drain_requested:
            return True
        if self._ingest_done and not self._queue:
            return True
        s = self.settings
        return s.max_rounds is not None and self.rounds_run >= s.max_rounds

    # ------------------------------------------------------------------ #
    # HTTP surface
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, object]:
        """The ``/healthz`` payload (also usable in-process)."""
        return {
            "status": self.state,
            "rounds": self.rounds_run,
            "queue_depth": len(self._queue),
            "queue_limit": self.settings.queue_limit,
            "shed_policy": self.settings.shed_policy,
            "ingested": self.alerts_ingested,
            "planned": self.alerts_planned,
            "shed": self.alerts_shed,
            "draining": self._drain_requested,
            "last_round": self.last_round,
        }

    async def _handle_http(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain headers
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if path == "/healthz":
                body = json.dumps(self.healthz(), sort_keys=True)
                status, ctype = "200 OK", "application/json"
            elif path == "/metrics":
                from repro.obs.export import prometheus_text

                body = prometheus_text(self.metrics)
                status, ctype = "200 OK", "text/plain; version=0.0.4"
            else:
                body = json.dumps({"error": "not found"})
                status, ctype = "404 Not Found", "application/json"
            payload = body.encode()
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------ #
    async def run(self) -> Dict[str, object]:
        """Serve until the source ends, ``max_rounds``, or a drain.

        Returns the final report (also what the CLI prints on exit).
        """
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_http, self.settings.host, self.settings.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        self._set_state("serving")
        ingest_task = asyncio.create_task(self._ingest())
        try:
            while not self._should_stop():
                await asyncio.sleep(self.settings.round_interval)
                if self._queue:
                    self._run_one_round()
            # graceful drain: plan what is still queued, bounded in time
            deadline = loop.time() + self.settings.drain_timeout
            while self._queue and loop.time() < deadline:
                self._run_one_round()
                await asyncio.sleep(0)
            dropped = len(self._queue)
            self._queue.clear()
        finally:
            ingest_task.cancel()
            try:
                await ingest_task
            except asyncio.CancelledError:
                pass
            server.close()
            await server.wait_closed()
            self._remove_signal_handlers(loop)
            self._set_state("stopped")
        return {
            "rounds": self.rounds_run,
            "ingested": self.alerts_ingested,
            "planned": self.alerts_planned,
            "shed": self.alerts_shed,
            "dropped_at_drain": dropped,
            "migrations": sum(s.migrations for s in self.sim.history),
            "total_cost": sum(s.total_cost for s in self.sim.history),
            "clean_drain": dropped == 0,
        }

    def _install_signal_handlers(self, loop) -> None:
        import signal

        self._handled_signals = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
                self._handled_signals.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-main thread or unsupported platform

    def _remove_signal_handlers(self, loop) -> None:
        for sig in getattr(self, "_handled_signals", []):
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass
