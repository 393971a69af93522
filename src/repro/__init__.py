"""Sheriff: a regional pre-alert management scheme for data center networks.

Full reproduction of Gao, Xu, Wu, Chen (ICPP 2015).  The library is
organized bottom-up:

* :mod:`repro.topology` — Fat-Tree / BCube fabrics and shortest paths;
* :mod:`repro.cluster` — racks, hosts, VMs, placement, dependency graph;
* :mod:`repro.traces` — synthetic ZopleCloud-style traces and workload
  streams;
* :mod:`repro.forecast` — ARIMA, NARNET and dynamic model selection;
* :mod:`repro.alerts` — the pre-alert mechanism (thresholds, monitors,
  QCN-style switch feedback);
* :mod:`repro.costs` — the Eq. (1) migration cost model;
* :mod:`repro.kmedian` — the k-median reduction and Local Search (3+2/p);
* :mod:`repro.migration` — Algs. 1–4 (PRIORITY, KM matching,
  REQUEST/ACK, VMMIGRATION, FLOWREROUTE);
* :mod:`repro.sim` — the round-based simulator with regional,
  centralized-optimal and reactive managers;
* :mod:`repro.obs` — structured tracing, the metrics registry and
  profiling hooks (see ``docs/observability.md``);
* :mod:`repro.slo` — per-VM application-facing SLO model,
  violation-minutes accounting and SLO-aware migration scoring (see
  ``docs/slo.md``);
* :mod:`repro.service` — the service core: the eight-stage management
  round, the typed event bus observers tap it through and the always-on
  ``repro serve`` driver (see ``docs/service.md``).

The common entry points re-export here, so one import line suffices:

Quickstart::

    from repro import (
        SheriffConfig, SheriffSimulation, build_cluster, build_fattree,
    )
    from repro.sim import inject_fraction_alerts

    cluster = build_cluster(build_fattree(8), seed=1, skew=0.8)
    sim = SheriffSimulation(cluster, SheriffConfig(balance_weight=25.0))
    alerts, magnitudes = inject_fraction_alerts(cluster, 0.05, seed=2)
    summary = sim.run_round(alerts, magnitudes)
    print(summary.migrations, summary.total_cost, summary.timings)

To watch every decision, attach a tracer and read the registry::

    from repro import RecordingTracer, SheriffConfig, SheriffSimulation

    tracer = RecordingTracer()
    sim = SheriffSimulation(cluster, SheriffConfig(tracer=tracer))
    sim.run_round(alerts, magnitudes)
    print(tracer.kinds())              # the round's decision story
    print(sim.metrics.as_dict())       # every counter/gauge/histogram
"""

from typing import TYPE_CHECKING

from repro import errors
from repro.errors import ReproError

__version__ = "2.0.0"

# Facade re-exports resolve lazily (PEP 562): importing ``repro`` alone
# stays cheap, and the cluster/sim modules only load on first attribute
# access — which also keeps this module import-cycle-free.
_LAZY_EXPORTS = {
    "SheriffConfig": "repro.config",
    "SheriffSimulation": "repro.sim.engine",
    "RoundSummary": "repro.sim.engine",
    "run_managed_simulation": "repro.sim.driver",
    "build_cluster": "repro.cluster",
    "build_fattree": "repro.topology",
    "build_bcube": "repro.topology",
    "Tracer": "repro.obs.tracer",
    "NullTracer": "repro.obs.tracer",
    "NULL_TRACER": "repro.obs.tracer",
    "RecordingTracer": "repro.obs.tracer",
    "JsonlTracer": "repro.obs.tracer",
    "MetricsRegistry": "repro.obs.metrics",
    "Profiler": "repro.obs.profiling",
    "FaultKind": "repro.faults",
    "FaultSpec": "repro.faults",
    "FaultSchedule": "repro.faults",
    "ChannelPolicy": "repro.faults",
    "run_chaos_campaign": "repro.faults",
    "EventBus": "repro.service.bus",
    "ServiceEvent": "repro.service.events",
    "SERVICE_EVENT_TYPES": "repro.service.events",
    "ServeSettings": "repro.service.server",
    "SheriffService": "repro.service.server",
    "SloModel": "repro.slo",
    "SloAccountant": "repro.slo",
    "SloScorer": "repro.slo",
    "VmSlo": "repro.slo",
}

__all__ = ["errors", "ReproError", "__version__", *_LAZY_EXPORTS]

if TYPE_CHECKING:  # pragma: no cover - static names for type checkers
    from repro.cluster import build_cluster
    from repro.config import SheriffConfig
    from repro.faults import (
        ChannelPolicy,
        FaultKind,
        FaultSchedule,
        FaultSpec,
        run_chaos_campaign,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profiling import Profiler
    from repro.obs.tracer import (
        NULL_TRACER,
        JsonlTracer,
        NullTracer,
        RecordingTracer,
        Tracer,
    )
    from repro.service.bus import EventBus
    from repro.service.events import SERVICE_EVENT_TYPES, ServiceEvent
    from repro.service.server import ServeSettings, SheriffService
    from repro.sim.driver import run_managed_simulation
    from repro.sim.engine import RoundSummary, SheriffSimulation
    from repro.slo import SloAccountant, SloModel, SloScorer, VmSlo
    from repro.topology import build_bcube, build_fattree


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
