"""Per-VM application-facing SLO model.

The paper scores management purely by the Eq. (1) network cost; related
work ("Do Data Center Network Metrics Predict Application-Facing
Performance?") shows that network metrics alone mispredict what
applications feel.  This module derives a *synthetic but deterministic*
application contract for every VM from state the simulator already has —
the workload profile (capacity, value, delay sensitivity) and the
dependency graph ``G_d``:

* **tenant class** — ``"gold"`` / ``"silver"`` / ``"bronze"`` priority
  tiers.  Delay-sensitive VMs are always gold; otherwise the class comes
  from the VM's value weighted by its dependency degree (a high-value hub
  of ``G_d`` fronts more of the application than a leaf).
* **request rate** — synthetic served requests/second, proportional to
  capacity × value (a big, valuable VM serves more traffic).  VMs with
  zero value serve nothing, so they can never accrue downtime damage.
* **latency target** — the class's base budget stretched by the VM's
  dependency degree: every ``G_d`` edge is one more hop a request may
  traverse, so chattier VMs get proportionally looser targets.

Everything is a pure function of the cluster, so the same seed yields the
same SLO book run-to-run — the golden accounting tests pin per-tenant
totals against exactly this derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

__all__ = ["VmSlo", "SloModel", "TENANT_CLASSES"]

TENANT_CLASSES: Tuple[str, ...] = ("gold", "silver", "bronze")
"""Priority tiers, strictest first."""

# class base latency budgets (ms) and request-rate multipliers
_LATENCY_TARGET_MS = {"gold": 50.0, "silver": 150.0, "bronze": 400.0}
_RATE_MULTIPLIER = {"gold": 2.0, "silver": 1.0, "bronze": 0.5}

# requests/second per unit of capacity x value before the class multiplier
_BASE_RATE_PER_CAP_VALUE = 2.0

# value x (1 + degree) score thresholds separating the tiers
_GOLD_SCORE = 4.0
_SILVER_SCORE = 1.5


@dataclass(frozen=True)
class VmSlo:
    """One VM's application contract."""

    vm_id: int
    tenant_class: str
    request_rate: float
    """Synthetic served requests per second (0 = the VM serves nothing)."""
    latency_target_ms: float


class SloModel:
    """The fleet's SLO book, one contract per VM id ``0..n-1``.

    Kept as three arrays indexed by VM id — :attr:`request_rate`,
    :attr:`latency_target_ms` and :attr:`tenant_code` (an index into
    :data:`TENANT_CLASSES`) — so the ledger prices a whole batch of moves
    with one gather; :meth:`slo_for` and iteration read them back as
    :class:`VmSlo` views.
    """

    def __init__(self, slos: Dict[int, VmSlo]) -> None:
        n = max(slos, default=-1) + 1
        vms = list(slos)
        self.request_rate = np.zeros(n)
        self.request_rate[vms] = [s.request_rate for s in slos.values()]
        self.latency_target_ms = np.zeros(n)
        self.latency_target_ms[vms] = [s.latency_target_ms for s in slos.values()]
        self.tenant_code = np.zeros(n, dtype=np.int8)
        self.tenant_code[vms] = [
            TENANT_CLASSES.index(s.tenant_class) for s in slos.values()
        ]

    @classmethod
    def from_cluster(cls, cluster: "Cluster") -> "SloModel":
        """Derive every VM's contract from the workload profile and G_d."""
        pl = cluster.placement
        deps = cluster.dependencies
        codes, rates, latencies = [], [], []
        for vm in range(pl.num_vms):
            value = float(pl.vm_value[vm])
            capacity = int(pl.vm_capacity[vm])
            degree = len(deps.neighbors(vm))
            score = value * (1.0 + degree)
            if bool(pl.vm_delay_sensitive[vm]) or score >= _GOLD_SCORE:
                tenant = "gold"
            elif score >= _SILVER_SCORE:
                tenant = "silver"
            else:
                tenant = "bronze"
            rate = _BASE_RATE_PER_CAP_VALUE * capacity * value
            rate *= _RATE_MULTIPLIER[tenant]
            codes.append(TENANT_CLASSES.index(tenant))
            rates.append(rate)
            latencies.append(_LATENCY_TARGET_MS[tenant] * (1.0 + 0.25 * min(degree, 4)))
        model = cls({})
        model.request_rate = np.array(rates, dtype=np.float64)
        model.latency_target_ms = np.array(latencies, dtype=np.float64)
        model.tenant_code = np.array(codes, dtype=np.int8)
        return model

    def __len__(self) -> int:
        return len(self.request_rate)

    def __iter__(self) -> Iterator[VmSlo]:
        return map(self.slo_for, range(len(self)))

    def slo_for(self, vm: int) -> VmSlo:
        return VmSlo(
            vm_id=vm,
            tenant_class=TENANT_CLASSES[self.tenant_code[vm]],
            request_rate=float(self.request_rate[vm]),
            latency_target_ms=float(self.latency_target_ms[vm]),
        )

    def by_class(self) -> Dict[str, List[int]]:
        """VM ids per tenant class (every class present, possibly empty)."""
        return {
            t: np.flatnonzero(self.tenant_code == code).tolist()
            for code, t in enumerate(TENANT_CLASSES)
        }
