"""The :class:`Cluster` aggregate and its factory.

A cluster binds together everything Sheriff manages, each piece once: the
wired topology (racks ``V`` are its ToR nodes), the live
:class:`~repro.cluster.placement.Placement` (hosts ``H_ij``, VMs
``M_ij`` and the location function ``ξ``, as columns) and the dependency
graph.  The factory :func:`build_cluster` populates a fabric the way the
paper's simulation does — homogeneous hosts per rack, VM capacities up to
20 units, an initial placement drawn at random but respecting capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.dependency import DependencyGraph
from repro.cluster.placement import Placement
from repro.errors import ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.topology.base import Topology

__all__ = ["Cluster", "TOR_CAPACITY", "build_cluster"]

#: Every ToR's capacity, in the paper's capacity unit: the budget that
#: Alg. 1's α (switch) and β (ToR, Eq. (10)) PRIORITY selections scale.
TOR_CAPACITY = 400


@dataclass
class Cluster:
    """Topology + placement + dependencies.

    The simulator and the managers only ever share one ``Cluster``.
    """

    topology: Topology
    placement: Placement
    dependencies: DependencyGraph
    _region_hosts: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.placement.num_racks > self.topology.num_racks:
            raise ConfigurationError(
                f"hosts in {self.placement.num_racks} racks for a topology "
                f"with {self.topology.num_racks} ToR nodes"
            )

    @property
    def num_racks(self) -> int:
        return self.topology.num_racks

    @property
    def num_hosts(self) -> int:
        return self.placement.num_hosts

    @property
    def num_vms(self) -> int:
        return self.placement.num_vms

    def workload_std(self) -> float:
        """Std-dev of per-host load percentage — the Fig. 9/10 y-axis."""
        return float(np.std(self.placement.host_load_fraction() * 100.0))

    def region_hosts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every rack's migration destinations, as one table per cluster.

        Returns ``(hosts, cols, widths)``: ``hosts[r, :widths[r]]`` are the
        hosts in the one-hop neighbor racks of rack ``r``, ascending, and
        ``cols[r, :widths[r]]`` the column of each one's rack in
        ``topology.rack_regions()[0][r]``.  Ragged; the padding is 0 (a
        valid host and column nobody reads).  A host never changes rack,
        so built once and shared by every shim's planning and the round's
        stacked cost pass: read-only.
        """
        if self._region_hosts is None:
            table, near = self.topology.rack_regions()
            host_rack = self.placement.host_rack
            regions = [table[r, : near[r]] for r in range(len(table))]
            found = [np.nonzero(np.isin(host_rack, region))[0] for region in regions]
            widths = np.asarray([hosts.size for hosts in found], dtype=np.int64)
            hosts = np.zeros((len(table), int(widths.max())), dtype=np.int64)
            cols = np.zeros_like(hosts)
            for r, (region, there) in enumerate(zip(regions, found)):
                hosts[r, : there.size] = there
                cols[r, : there.size] = np.searchsorted(region, host_rack[there])
            self._region_hosts = (hosts, cols, widths)
        return self._region_hosts


def build_cluster(
    topology: Topology,
    *,
    hosts_per_rack: int = 4,
    host_capacity: int = 100,
    vm_capacity_max: int = 20,
    fill_fraction: float = 0.5,
    dependency_degree: float = 1.0,
    delay_sensitive_fraction: float = 0.1,
    skew: float = 0.0,
    seed: SeedLike = None,
) -> Cluster:
    """Populate *topology* with hosts and VMs.

    Parameters
    ----------
    hosts_per_rack, host_capacity:
        Homogeneous rack contents.  The paper's facility uses 40 servers per
        rack; simulations here default to 4 to keep benchmark sweeps (pods
        8..48) tractable while preserving the algorithms' behaviour.
    vm_capacity_max:
        VM sizes are drawn uniformly from ``1..vm_capacity_max`` — the
        paper's "VM capacity is set up to value 20".
    fill_fraction:
        Mean fraction of each host's capacity occupied initially.
    skew:
        0 gives a uniform fill; larger values concentrate load on a subset
        of hosts (lognormal multiplier), creating the imbalance Figs. 9/10
        start from.
    dependency_degree:
        Mean VM dependency degree for :meth:`DependencyGraph.random`.
    delay_sensitive_fraction:
        Fraction of VMs marked delay-sensitive (never migrated).
    """
    if not (0.0 < fill_fraction <= 1.0):
        raise ConfigurationError(f"fill_fraction must be in (0, 1], got {fill_fraction}")
    if not (0.0 <= delay_sensitive_fraction <= 1.0):
        raise ConfigurationError(
            f"delay_sensitive_fraction must be in [0, 1], got {delay_sensitive_fraction}"
        )
    if vm_capacity_max < 1 or vm_capacity_max > host_capacity:
        raise ConfigurationError(
            f"vm_capacity_max must be in 1..host_capacity, got {vm_capacity_max}"
        )
    if skew < 0:
        raise ConfigurationError(f"skew must be non-negative, got {skew}")
    rng = as_generator(seed)

    n_hosts = topology.num_racks * hosts_per_rack
    host_rack = np.repeat(np.arange(topology.num_racks), hosts_per_rack)

    # Per-host target fill: lognormal skew normalized to mean fill_fraction.
    if skew > 0:
        mult = rng.lognormal(mean=0.0, sigma=skew, size=n_hosts)
        mult /= mult.mean()
    else:
        mult = np.ones(n_hosts)
    target = np.clip(fill_fraction * mult, 0.02, 0.95) * host_capacity

    vm_capacity: List[int] = []
    vm_value: List[float] = []
    vm_sensitive: List[bool] = []
    vm_host: List[int] = []
    for h in range(n_hosts):
        used = 0
        budget = int(target[h])
        while used < budget:
            cap = int(rng.integers(1, vm_capacity_max + 1))
            if used + cap > host_capacity:
                cap = host_capacity - used
                if cap <= 0:
                    break
            vm_capacity.append(cap)
            vm_value.append(float(rng.uniform(1.0, 10.0)))
            vm_sensitive.append(bool(rng.random() < delay_sensitive_fraction))
            vm_host.append(h)
            used += cap

    placement = Placement(
        vm_capacity=vm_capacity,
        vm_value=vm_value,
        vm_delay_sensitive=vm_sensitive,
        host_capacity=np.full(n_hosts, host_capacity),
        host_rack=host_rack,
        vm_host=vm_host,
    )
    deps = DependencyGraph.random(placement.num_vms, dependency_degree, rng)
    return Cluster(topology=topology, placement=placement, dependencies=deps)
