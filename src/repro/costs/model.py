"""The full migration cost function (Eq. 1 / Eq. 18).

``Cost(v_i, v_p) = C_r + f(v_i, v_p) + G(v_i, v_p)`` with

* ``C_r`` — the constant computing cost of initialization, reservation,
  commitment and activation (simulation value: 100);
* ``f`` — the dependency cost (:mod:`repro.costs.dependency`);
* ``G`` — the path-minimized transmission cost
  (:mod:`repro.costs.transmission`).

:class:`CostModel` binds the three to a cluster and exposes per-VM and
vectorized queries; it is the single cost oracle used by VMMIGRATION, the
k-median transform, and both baselines — so comparisons between managers
are apples-to-apples by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.dependency import dependency_cost, dependent_racks
from repro.costs.transmission import TransmissionCostTable, cached_transmission_table
from repro.errors import ConfigurationError

__all__ = ["CostParams", "CostModel"]


@dataclass(frozen=True)
class CostParams:
    """Scalar knobs of Eq. (1), defaulting to the paper's Sec. VI-B values."""

    migration_constant: float = 100.0  # C_r
    dependency_unit: float = 1.0  # C_d
    delta: float = 1.0  # δ — weight of transmission time T(e)
    eta: float = 1.0  # η — weight of utilization P(e)
    reference_capacity: float = 10.0
    bandwidth_threshold: float = 0.0  # B_t

    def __post_init__(self) -> None:
        if self.migration_constant < 0:
            raise ConfigurationError(
                f"C_r must be non-negative, got {self.migration_constant}"
            )
        if self.dependency_unit < 0:
            raise ConfigurationError(
                f"C_d must be non-negative, got {self.dependency_unit}"
            )


class CostModel:
    """Cost oracle bound to one cluster.

    Construction runs the (cached) shortest-path precomputation once;
    queries afterwards are O(1) per pair / O(racks) per vector.

    There is one scalar oracle — :meth:`migration_cost_vector`, and
    :meth:`migration_cost` for one pair: uncached, every rack, what the
    centralized baselines ask for — and one stacked kernel behind
    :meth:`cost_rows`, the same Eq. (1) element for element, evaluated
    only at each VM's one-hop region.

    Two caches sit behind it.  The shortest-path table is memoized per
    (topology, knobs) — the paper's Floyd–Warshall step runs once per
    fabric instead of once per manager — unless *available_bandwidth*
    names a degraded fabric, which gets a table of its own.  Regional cost
    rows live in one slab for the length of a placement generation (see
    :meth:`sync_cache`), computed by the same kernel as the uncached
    queries, so a cached answer is bit-identical to a computed one.
    """

    def __init__(
        self,
        cluster: Cluster,
        params: Optional[CostParams] = None,
        *,
        available_bandwidth: Optional[np.ndarray] = None,
    ) -> None:
        self.cluster = cluster
        self.params = params or CostParams()
        if available_bandwidth is None:
            self.table = cached_transmission_table(
                cluster.topology,
                delta=self.params.delta,
                eta=self.params.eta,
                reference_capacity=self.params.reference_capacity,
                bandwidth_threshold=self.params.bandwidth_threshold,
            )
        else:
            self.table = TransmissionCostTable(
                cluster.topology,
                delta=self.params.delta,
                eta=self.params.eta,
                reference_capacity=self.params.reference_capacity,
                available_bandwidth=available_bandwidth,
                bandwidth_threshold=self.params.bandwidth_threshold,
            )
        self._rack_dist = self.table.rack_distance_matrix()
        # the kernel's dependents, built here rather than in a round
        cluster.dependencies.csr()
        # the regional slab: row ``_slot_of[vm]`` is Eq. (1) of *vm* at the
        # one-hop region of its rack (``rack_regions()`` column order) under
        # placement generation ``_cache_gen``.  It owns every cached row, is
        # allocated on the first fill and grows by doubling.
        self._slab = np.empty((0, 0))
        self._slot_of = np.full(cluster.placement.num_vms, -1, dtype=np.int64)
        self._slots_used = 0
        self._cache_gen = cluster.placement.generation
        self.cache_stats = {"hits": 0, "misses": 0, "invalidations": 0}

    # ------------------------------------------------------------------ #
    @property
    def rack_distances(self) -> np.ndarray:
        """Inter-rack physical distances along selected paths (view)."""
        return self._rack_dist

    def migration_cost(self, vm: int, dst_rack: int) -> float:
        """Full Eq. (1) cost of migrating *vm* into *dst_rack*.

        An intra-rack move still pays ``C_r`` (the VM is re-hosted) but has
        zero transmission and zero dependency delta only if its dependents'
        distances are unchanged — which they are, since D is rack-level.
        """
        pl = self.cluster.placement
        src_rack = int(pl.host_rack[pl.vm_host[vm]])
        cap = float(pl.vm_capacity[vm])
        trans = self.table.cost(cap, src_rack, dst_rack)
        dep = dependency_cost(
            self.cluster.dependencies,
            pl,
            self._rack_dist,
            vm,
            dst_rack,
            unit_cost=self.params.dependency_unit,
        )
        return self.params.migration_constant + dep + trans

    def migration_cost_vector(self, vm: int) -> np.ndarray:
        """Eq. (1) cost of *vm* against every destination rack.

        The scalar oracle: computed on every call, never cached, the
        definition :meth:`cost_rows` is tested against bit for bit.
        """
        pl = self.cluster.placement
        src_rack = int(pl.host_rack[pl.vm_host[vm]])
        trans = self.table.cost_vector(float(pl.vm_capacity[vm]), src_rack)
        racks = dependent_racks(self.cluster.dependencies, pl, vm)
        if racks.size:
            dep = self.params.dependency_unit * (
                self._rack_dist[:, racks].sum(axis=1)
                - self._rack_dist[src_rack, racks].sum()
            )
        else:
            dep = np.zeros(self.table.num_racks)
        return self.params.migration_constant + dep + trans

    # ------------------------------------------------------------------ #
    # the regional slab
    # ------------------------------------------------------------------ #
    def sync_cache(self) -> None:
        """Forget the slab if the placement moved on.

        A cached row is Eq. (1) under one placement, so it lives one
        placement generation (``migrate`` / ``mark_lost`` / ``restore_lost``
        each start a new one): when the generation has moved every row is
        dropped at once, the memory kept, and the next query
        recomputes what it needs.  Nothing is repaired and no move history
        is consulted — one kernel call recomputes a whole round's alerted
        rows in less time than finding out which of them a move had staled.

        Called by every regional query; the engine also calls it once per
        round, before it plans.
        """
        gen = self.cluster.placement.generation
        if gen == self._cache_gen:
            return
        self._cache_gen = gen
        self.cache_stats["invalidations"] += self._slots_used
        self._slot_of.fill(-1)
        self._slots_used = 0

    def cost_rows(self, vms, *, region_cols) -> np.ndarray:
        """Eq. (1) of *vms* at columns of each VM's own one-hop region.

        *region_cols* names ``rack_regions()[0][src_rack, region_cols]``
        (a rack's row of :meth:`~repro.cluster.cluster.Cluster.region_hosts`'
        ``cols``, or the round's stacked pass's ``(rows, widest)`` table,
        one row of columns per VM): the width the slab stores, so the answer is a
        fancy index of the slab, rows not yet held being computed first
        (``misses``; the rest are ``hits``).  Every element is bit-identical
        to the scalar oracle's for the same VM and rack, and the result is
        the caller's own array.
        """
        ids = np.asarray(vms, dtype=np.int64)
        self.sync_cache()
        slots = self._slot_of[ids]
        missing = ids[slots < 0]
        if missing.size:
            self.cache_stats["misses"] += self._fill(missing)
            slots = self._slot_of[ids]
        self.cache_stats["hits"] += ids.size - missing.size
        return self._slab[slots[:, None], region_cols]

    def _fill(self, ids: np.ndarray) -> int:
        """Give the distinct VMs of *ids* slab rows — Eq. (1) at the whole
        one-hop region of each VM's rack; how many there were."""
        ids = np.unique(ids)
        if ids.size == 0:
            return 0
        pl = self.cluster.placement
        regions = self.cluster.topology.rack_regions()[0]
        rows = self._cost_kernel(ids, regions[pl.host_rack[pl.vm_host[ids]]])
        start, end = self._slots_used, self._slots_used + ids.size
        if end > len(self._slab):
            grown = np.empty((max(end, 2 * len(self._slab)), rows.shape[1]))
            if start:
                grown[:start] = self._slab[:start]
            self._slab = grown
        self._slab[start:end] = rows
        self._slot_of[ids] = np.arange(start, end)
        self._slots_used = end
        return ids.size

    def _cost_kernel(self, ids: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stacked Eq. (1): row ``i`` is VM ``ids[i]`` at racks ``cols[i]``.

        *cols* is ``(len(ids), W)``, one row of destination racks per VM.
        Each element comes from the scalar oracle's own IEEE
        operations in the oracle's order: the transmission and constant
        terms are elementwise, and the dependency sums run one dependent at
        a time — level ``k`` adds every row's ``k``-th dependent (neighbor-
        sorted, as in the oracle) in one gather, the strictly sequential
        order of ``_rack_dist[:, racks].sum(axis=1)``.  The source-rack sum
        ``_rack_dist[src, racks].sum()`` is contiguous, which numpy sums
        pairwise from 8 elements up: rows with that many dependents take
        the oracle's own expression for that one scalar.
        """
        pl = self.cluster.placement
        deps = self.cluster.dependencies
        dist = self._rack_dist
        src = pl.host_rack[pl.vm_host[ids]]
        caps = pl.vm_capacity[ids].astype(np.float64)
        at = src[:, None]
        trans = (
            self.table.delta * caps[:, None] * self.table.sum_inv_b[at, cols]
            + self.table.eta * self.table.sum_util[at, cols]
        )
        trans[cols == at] = 0.0
        near = np.zeros(trans.shape)
        here = np.zeros(ids.size)
        indptr, indices = deps.csr()
        degree = indptr[ids + 1] - indptr[ids]
        if degree.any():
            row = np.repeat(np.arange(ids.size), degree)
            level = np.arange(row.size) - np.repeat(np.cumsum(degree) - degree, degree)
            dep_rack = pl.host_rack[pl.vm_host[indices[indptr[ids][row] + level]]]
            for k in range(int(degree.max())):
                pick = level == k
                r, d = row[pick], dep_rack[pick]
                near[r] += dist[cols[r], d[:, None]]
                here[r] += dist[src[r], d]
            for i in np.nonzero(degree >= 8)[0]:
                here[i] = dist[src[i], dep_rack[row == i]].sum()
        dep = self.params.dependency_unit * (near - here[:, None])
        return self.params.migration_constant + dep + trans

    def pairwise_rack_cost(self, capacity: float) -> np.ndarray:
        """``(racks, racks)`` matrix ``C_r + G`` for a given VM capacity.

        The k-median transform (Sec. V-A) works on rack-level costs where
        the dependency term is folded per-instance; this is its distance
        oracle.
        """
        r = self.table.num_racks
        out = (
            self.params.delta * capacity * self.table.sum_inv_b[:, :r]
            + self.params.eta * self.table.sum_util[:, :r]
            + self.params.migration_constant
        )
        np.fill_diagonal(out, 0.0)
        return out
