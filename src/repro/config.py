"""The :class:`SheriffConfig` bundle — one object for every simulator knob.

``SheriffConfig`` bundles the simulator's knobs with the observability
handles (``tracer``, ``metrics``, ``profile``) so a whole experiment's
configuration travels as one value, and it is the only way to configure
a :class:`~repro.sim.engine.SheriffSimulation`:

    from repro import SheriffConfig, SheriffSimulation

    cfg = SheriffConfig(balance_weight=25.0, with_flows=True)
    sim = SheriffSimulation(cluster, cfg)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, TextIO

from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import-cycle-free typing only
    from repro.faults.channel import ChannelPolicy
    from repro.faults.schedule import FaultSchedule
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import Profiler
    from repro.sim.inflight import MigrationTiming

__all__ = ["SheriffConfig"]


@dataclass
class SheriffConfig:
    """Every knob of a Sheriff simulation, in one place.

    There is no planner knob: every round runs Alg. 1 inline, one alerted
    rack at a time in rack order (``docs/performance.md`` records why the
    worker pools went).  The Eq. (1) constants are the paper's
    :class:`~repro.costs.model.CostParams`, and β of Eq. (10) is
    :data:`repro.migration.manager.BETA`.

    Parameters
    ----------
    alpha:
        PRIORITY capacity portion for switch-triggered selection
        (Alg. 2).
    balance_weight:
        Load-aware destination steering strength (Figs. 9/10 mechanism).
    migration_cooldown:
        Rounds a freshly-moved VM is frozen (anti-ping-pong).
    migration_timing:
        Live-migration window model; ``None`` = instant commits.
    with_flows:
        Build a dependency-derived :class:`~repro.migration.reroute.FlowTable`
        (one flow of rate 0.05 per inter-rack dependency pair) so
        outer-switch alerts can exercise FLOWREROUTE.
    fallback_policy:
        Worst-case degradation of predictive alerting (see
        docs/robust-forecasting.md).  ``"none"`` (default) leaves managed
        runs byte-identical to the historical engine.  ``"reactive"``
        arms the :class:`~repro.sim.fallback.FallbackManager` around any
        observing (predictive) alert source driven through
        :func:`~repro.sim.driver.run_managed_simulation`: when the
        trailing mean absolute forecast error over ``fallback_window``
        rounds crosses ``fallback_error_bound``, alerting degrades to the
        paper's reactive contingency manager — the provable floor — and
        recovers after ``fallback_recovery_rounds`` consecutive calm
        rounds.  Each transition emits a
        :class:`~repro.obs.events.FallbackTransition` trace event and
        counts in ``sheriff_fallback_transitions_total``.
    fallback_error_bound:
        Trailing mean absolute forecast error (normalized load units)
        above which the fallback triggers.
    fallback_window:
        Rounds in the trailing-error window.
    fallback_recovery_rounds:
        Consecutive rounds the trailing error must stay at or under the
        bound before predictive alerting resumes.
    tracer:
        Structured event sink; defaults to the disabled
        :data:`~repro.obs.tracer.NULL_TRACER` (zero cost).
    metrics:
        Shared :class:`~repro.obs.metrics.MetricsRegistry`; ``None`` lets
        the simulation create a private one.
    profiler:
        Pre-built :class:`~repro.obs.profiling.Profiler` to use instead
        of a simulation-private one — pass
        ``Profiler(record_spans=True)`` to capture nested spans for the
        Chrome/Perfetto exporter.  Either way a round records its
        wall-clock section timings (``RoundSummary.timings``).
    metrics_stream:
        Open text stream receiving one JSON line per round —
        ``{"round": N, "metrics": {...}}``, the round's
        :class:`~repro.obs.metrics.MetricsScope` window — next to the
        event trace (the CLI's ``--metrics-out PATH``).  ``None``
        disables the snapshot stream.
    fault_schedule:
        Deterministic fault-injection schedule (see
        :mod:`repro.faults`); ``None`` disables the fault layer entirely
        and keeps every simulation byte-identical to a fault-free build.
    channel_policy:
        Lossy REQUEST/ACK channel model (loss probability, timeout,
        bounded retry); ``None`` keeps the reliable in-process channel.
    slo:
        Enable the application-facing SLO layer (see docs/slo.md): a
        per-VM SLO model is derived from the workload profile and the
        dependency graph, and an accountant charges
        SLO-violation-minutes from host overload, migration downtime and
        dependency-path stretch into the ``sheriff_slo_*`` metric family
        plus :class:`~repro.obs.events.SloViolation` trace events.
        ``False`` (default) keeps every simulation byte-identical to an
        SLO-free build — the layer is never even imported.
    scoring:
        Migration scoring mode.  ``"network"`` (default) is the paper's
        pure Eq. (1) cost (plus load steering).  ``"slo"`` adds predicted
        SLO damage — stop-and-copy downtime × the VM's request rate,
        amplified by destination load — on top, so the matching trades
        network bytes against application pain.  ``stats.total_cost``
        still reports the true Eq. (1) cost either way.
    slo_overload_threshold:
        Host utilisation above which resident VMs accrue overload
        violation-minutes (only read when ``slo`` is on).
    slo_budget_minutes:
        Per-tenant-class SLO error budget in violation-minutes; the first
        crossing emits :class:`~repro.obs.events.SloBudgetExhausted`.
        ``0`` (default) disables budget tracking.
    """

    alpha: float = 0.1
    balance_weight: float = 50.0
    migration_cooldown: int = 3
    migration_timing: Optional["MigrationTiming"] = None
    with_flows: bool = False
    fallback_policy: str = "none"
    fallback_error_bound: float = 0.15
    fallback_window: int = 8
    fallback_recovery_rounds: int = 4
    slo: bool = False
    scoring: str = "network"
    slo_overload_threshold: float = 0.9
    slo_budget_minutes: float = 0.0
    tracer: Tracer = field(default=NULL_TRACER)
    metrics: Optional["MetricsRegistry"] = None
    profiler: Optional["Profiler"] = None
    metrics_stream: Optional[TextIO] = None
    fault_schedule: Optional["FaultSchedule"] = None
    channel_policy: Optional["ChannelPolicy"] = None

    def replace(self, **changes: Any) -> "SheriffConfig":
        """A copy of this config with *changes* applied."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """This config as a JSON-serializable dict (``from_dict`` inverse).

        Only the *declarative* knobs serialize: scalars plus the nested
        ``migration_timing`` dataclass.  Runtime
        handles (tracer, metrics registry, profiler, streams, fault
        schedule, channel policy) describe live objects, not
        configuration — a config carrying a non-default one raises
        :class:`~repro.errors.ConfigurationError` rather than silently
        dropping it from the round trip.
        """
        from dataclasses import asdict

        from repro.errors import ConfigurationError

        live = [
            name
            for name, default in _RUNTIME_HANDLE_DEFAULTS.items()
            if getattr(self, name) is not default
        ]
        if live:
            raise ConfigurationError(
                "cannot serialize runtime handle(s) to JSON: "
                + ", ".join(live)
            )
        data: Dict[str, Any] = {
            name: getattr(self, name) for name in _SCALAR_FIELDS
        }
        if self.migration_timing is not None:
            data["migration_timing"] = asdict(self.migration_timing)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SheriffConfig":
        """Build a config from :meth:`to_dict` output (e.g. a JSON file).

        Unknown keys raise :class:`~repro.errors.ConfigurationError` so a
        typo'd ``--config`` file fails loudly instead of silently running
        the defaults; keys that older config files may still carry
        (:data:`_REMOVED_KEYS`) are refused by name, each with its reason.
        """
        from repro.errors import ConfigurationError

        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config must be a JSON object, got {type(data).__name__}"
            )
        removed = sorted(set(data) & _REMOVED_KEYS.keys())
        if removed:
            raise ConfigurationError(
                "config key(s) removed: "
                + "; ".join(f"{key} ({_REMOVED_KEYS[key]})" for key in removed)
                + "; delete them from the config"
            )
        allowed = _SCALAR_FIELDS | {"migration_timing"}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s): {', '.join(unknown)} "
                f"(allowed: {', '.join(sorted(allowed))})"
            )
        kwargs: Dict[str, Any] = {
            k: v for k, v in data.items() if k in _SCALAR_FIELDS
        }
        if data.get("migration_timing") is not None:
            from repro.sim.inflight import MigrationTiming

            try:
                kwargs["migration_timing"] = MigrationTiming(
                    **data["migration_timing"]
                )
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad migration_timing: {exc}"
                ) from None
        return cls(**kwargs)


_SCALAR_FIELDS = frozenset(
    {
        "alpha",
        "balance_weight",
        "migration_cooldown",
        "with_flows",
        "fallback_policy",
        "fallback_error_bound",
        "fallback_window",
        "fallback_recovery_rounds",
        "slo",
        "scoring",
        "slo_overload_threshold",
        "slo_budget_minutes",
    }
)
"""Fields that serialize directly in :meth:`SheriffConfig.to_dict`."""

_INLINE = "planning is always inline, one alerted rack at a time"
_REMOVED_KEYS = {
    "workers": _INLINE,
    "planner": _INLINE,
    "shards": _INLINE,
    "auto_inline_threshold": _INLINE,
    "flow_rate": "every dependency flow has rate 0.05",
    "cache_cost_kernels": "the cost-kernel cache is always on",
    "slo_round_minutes": "a round is one minute in the SLO ledger",
    "slo_damage_weight": "the predicted-SLO-damage addend has weight 1",
    "cost_params": "the Eq. (1) constants are the paper's CostParams()",
    "beta": "the ToR-alert capacity portion is 0.1",
    "profile": "every simulation records its section timings",
}
"""Keys that config files written for earlier versions may still carry,
each with what replaced it; :meth:`SheriffConfig.from_dict` names them in
its error."""

_RUNTIME_HANDLE_DEFAULTS = {
    "tracer": NULL_TRACER,
    "metrics": None,
    "profiler": None,
    "metrics_stream": None,
    "fault_schedule": None,
    "channel_policy": None,
}
"""Live-object fields excluded from JSON round-trips (default sentinels)."""
