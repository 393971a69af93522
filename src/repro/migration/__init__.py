"""Distributed Alert-Migration algorithms (Sec. V-B, Algs. 1–4).

* :mod:`~repro.migration.priority` — Alg. 2, the knapsack-style PRIORITY
  selection of migration candidates;
* :mod:`~repro.migration.matching` — minimal weighted matching
  (from-scratch Kuhn–Munkres with potentials, the Alg. 3 kernel);
* :mod:`~repro.migration.request` — Alg. 4, the FCFS REQUEST/ACK/REJECT
  receiver protocol;
* :mod:`~repro.migration.vmmigration` — Alg. 3, the stacked cost pass
  and the match-request-migrate loop;
* :mod:`~repro.migration.manager` — Alg. 1, the per-shim framework
  dispatching on alert kinds;
* :mod:`~repro.migration.reroute` — FLOWREROUTE for outer-switch alerts.
"""

from repro.migration.priority import PriorityFactor, priority_select
from repro.migration.matching import hungarian
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.migration.vmmigration import MigrationStats
from repro.migration.reroute import FlowTable, flow_reroute
from repro.migration.manager import ShimManager

__all__ = [
    "PriorityFactor",
    "priority_select",
    "hungarian",
    "ReceiverRegistry",
    "RequestOutcome",
    "MigrationStats",
    "ShimManager",
    "FlowTable",
    "flow_reroute",
]
