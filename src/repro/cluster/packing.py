"""Initial VM placement policies (bin packing).

:func:`repro.cluster.cluster.build_cluster` fills each host locally; this
module separates the VM *population* from its *placement* so experiments
can start from qualitatively different initial states:

* ``first_fit`` / ``first_fit_decreasing`` — classic packers, produce
  consolidated (front-loaded) fleets;
* ``best_fit`` — tightest-gap packing, maximally consolidated;
* ``worst_fit`` — emptiest-host-first, the most balanced start;
* ``round_robin`` — stripe across hosts;
* ``random_fit`` — uniform among feasible hosts.

:func:`pack` dispatches by name; :func:`build_cluster_packed` is a
factory mirroring ``build_cluster`` but with an explicit policy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.dependency import DependencyGraph
from repro.cluster.placement import Placement
from repro.errors import CapacityError, ConfigurationError
from repro.rng import SeedLike, as_generator
from repro.topology.base import Topology

__all__ = ["POLICIES", "pack", "build_cluster_packed"]


def _pack_greedy(
    sizes: np.ndarray,
    capacities: np.ndarray,
    choose: Callable[[np.ndarray, int], int],
    order: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Shared packing loop: place each VM on ``choose(free, size)``."""
    n = sizes.shape[0]
    free = capacities.astype(np.int64).copy()
    out = np.empty(n, dtype=np.int64)
    idx = np.arange(n) if order is None else order
    for i in idx:
        size = int(sizes[i])
        host = choose(free, size)
        if host < 0:
            raise CapacityError(
                f"no host can take VM of size {size} "
                f"(max free {int(free.max()) if free.size else 0})"
            )
        out[i] = host
        free[host] -= size
    return out


def first_fit(sizes, capacities, rng=None):
    """Lowest-id host with room."""
    def choose(free, size):
        ok = np.nonzero(free >= size)[0]
        return int(ok[0]) if ok.size else -1

    return _pack_greedy(np.asarray(sizes), np.asarray(capacities), choose)


def first_fit_decreasing(sizes, capacities, rng=None):
    """First-fit after sorting VMs by size descending (better packing)."""
    s = np.asarray(sizes)
    order = np.argsort(-s, kind="stable")

    def choose(free, size):
        ok = np.nonzero(free >= size)[0]
        return int(ok[0]) if ok.size else -1

    return _pack_greedy(s, np.asarray(capacities), choose, order=order)


def best_fit(sizes, capacities, rng=None):
    """Host whose remaining gap after placement is smallest."""
    def choose(free, size):
        ok = np.nonzero(free >= size)[0]
        if not ok.size:
            return -1
        return int(ok[np.argmin(free[ok] - size)])

    return _pack_greedy(np.asarray(sizes), np.asarray(capacities), choose)


def worst_fit(sizes, capacities, rng=None):
    """Emptiest feasible host — produces the most balanced start."""
    def choose(free, size):
        ok = np.nonzero(free >= size)[0]
        if not ok.size:
            return -1
        return int(ok[np.argmax(free[ok])])

    return _pack_greedy(np.asarray(sizes), np.asarray(capacities), choose)


def round_robin(sizes, capacities, rng=None):
    """Stripe VMs across hosts, skipping full ones."""
    n_hosts = len(capacities)
    cursor = [0]

    def choose(free, size):
        for step in range(n_hosts):
            h = (cursor[0] + step) % n_hosts
            if free[h] >= size:
                cursor[0] = (h + 1) % n_hosts
                return h
        return -1

    return _pack_greedy(np.asarray(sizes), np.asarray(capacities), choose)


def random_fit(sizes, capacities, rng=None):
    """Uniformly random feasible host."""
    gen = as_generator(rng)

    def choose(free, size):
        ok = np.nonzero(free >= size)[0]
        if not ok.size:
            return -1
        return int(gen.choice(ok))

    return _pack_greedy(np.asarray(sizes), np.asarray(capacities), choose)


POLICIES: Dict[str, Callable] = {
    "first_fit": first_fit,
    "first_fit_decreasing": first_fit_decreasing,
    "best_fit": best_fit,
    "worst_fit": worst_fit,
    "round_robin": round_robin,
    "random_fit": random_fit,
}


def pack(
    sizes: Sequence[int],
    capacities: Sequence[int],
    policy: str = "first_fit",
    *,
    seed: SeedLike = None,
) -> np.ndarray:
    """Place VM *sizes* into host *capacities* under *policy*.

    Returns the host index per VM; raises :class:`CapacityError` when a
    VM fits nowhere (no backtracking — these are the classic greedy
    heuristics, not exact bin packing).
    """
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
        )
    s = np.asarray(sizes, dtype=np.int64)
    c = np.asarray(capacities, dtype=np.int64)
    if s.ndim != 1 or c.ndim != 1 or c.size == 0:
        raise ConfigurationError("sizes and capacities must be non-empty 1-D")
    if (s <= 0).any() or (c <= 0).any():
        raise ConfigurationError("sizes and capacities must be positive")
    return POLICIES[policy](s, c, seed)


def build_cluster_packed(
    topology: Topology,
    *,
    policy: str = "worst_fit",
    hosts_per_rack: int = 4,
    host_capacity: int = 100,
    vm_capacity_max: int = 20,
    fill_fraction: float = 0.5,
    dependency_degree: float = 1.0,
    delay_sensitive_fraction: float = 0.1,
    seed: SeedLike = None,
) -> Cluster:
    """Like :func:`build_cluster`, but a global VM population placed by *policy*.

    The VM population targets ``fill_fraction`` of total fleet capacity;
    its distribution over hosts is then entirely the policy's doing, so
    ``first_fit`` yields a consolidated skewed start while ``worst_fit``
    yields a balanced one.
    """
    if not (0.0 < fill_fraction <= 0.95):
        raise ConfigurationError(
            f"fill_fraction must be in (0, 0.95], got {fill_fraction}"
        )
    rng = as_generator(seed)
    n_hosts = topology.num_racks * hosts_per_rack

    budget = int(fill_fraction * host_capacity * n_hosts)
    sizes: List[int] = []
    used = 0
    while used < budget:
        cap = int(rng.integers(1, vm_capacity_max + 1))
        if used + cap > budget:
            cap = budget - used
            if cap <= 0:
                break
        sizes.append(cap)
        used += cap
    capacities = np.full(n_hosts, host_capacity)
    vm_host = pack(sizes, capacities, policy, seed=rng)
    vm_value: List[float] = []
    vm_sensitive: List[bool] = []
    for _ in sizes:
        vm_value.append(float(rng.uniform(1.0, 10.0)))
        vm_sensitive.append(bool(rng.random() < delay_sensitive_fraction))
    placement = Placement(
        vm_capacity=sizes,
        vm_value=vm_value,
        vm_delay_sensitive=vm_sensitive,
        host_capacity=capacities,
        host_rack=np.repeat(np.arange(topology.num_racks), hosts_per_rack),
        vm_host=vm_host,
    )
    deps = DependencyGraph.random(len(sizes), dependency_degree, rng)
    return Cluster(topology=topology, placement=placement, dependencies=deps)
