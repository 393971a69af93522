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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.costs.dependency import dependency_cost
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

    Parameters
    ----------
    cache:
        Enable the cost-kernel cache: the shortest-path table is memoized
        per (topology, knobs) — the paper's Floyd–Warshall step runs once
        per fabric instead of once per manager — and per-VM Eq. (1) cost
        vectors are cached keyed on the placement generation, invalidated
        precisely for moved VMs and their dependency neighbors.  Cached
        answers are computed by the same code as uncached ones, so results
        are bit-identical either way; vectors returned from the cache are
        shared and must be treated as read-only (every in-tree consumer
        only indexes them).
    """

    def __init__(
        self,
        cluster: Cluster,
        params: Optional[CostParams] = None,
        *,
        available_bandwidth: Optional[np.ndarray] = None,
        cache: bool = True,
    ) -> None:
        self.cluster = cluster
        self.params = params or CostParams()
        if cache and available_bandwidth is None:
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
        self._cache_enabled = bool(cache)
        self._vec_cache: Dict[int, np.ndarray] = {}
        # topology-static transmission vectors keyed on (capacity, src rack);
        # never invalidated — a move changes *which* key a VM reads, not the
        # value stored under any key
        self._trans_cache: Dict[Tuple[float, int], np.ndarray] = {}
        self._cache_gen = cluster.placement.generation
        self.cache_stats = {
            "hits": 0, "misses": 0, "invalidations": 0, "repairs": 0,
            "primed": 0,
        }

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

    def sync_cache(self) -> None:
        """Apply delta updates for migrations since the last sync.

        A move stales exactly the moved VM's own vector (new source rack)
        and its dependency neighbors' vectors (a dependent changed racks);
        nothing else.  Instead of dropping those entries wholesale, the
        stale rows are *repaired in place* — recomputed against the current
        placement, reusing the memoized per-(capacity, rack) transmission
        vectors — so untouched entries survive across rounds and the
        steady-state query path is a cache hit.  Lost/restore generation
        bumps (``src == dst`` in the move details) drop the VM's entry
        instead: a lost VM must not be planned against.  A model that last
        synced before the placement's oldest remembered move drops every
        vector and starts over at the current generation, as a fresh model
        would.

        Called automatically by every query; the engine also calls it once
        per round, before it primes the round's cost vectors.
        """
        if not self._cache_enabled:
            return
        pl = self.cluster.placement
        gen = pl.generation
        if gen == self._cache_gen:
            return
        moves = pl.moves_since(self._cache_gen)
        self._cache_gen = gen
        if moves is None:
            self.cache_stats["invalidations"] += len(self._vec_cache)
            self._vec_cache.clear()
            return
        deps = self.cluster.dependencies
        # vm -> repair? (False = drop); later own-events override earlier
        # ones, neighbor staleness never downgrades an own drop
        plan: Dict[int, bool] = {}
        for vm, src, dst in moves:
            plan[vm] = src != dst
            for n in deps.neighbors(vm):
                plan.setdefault(int(n), True)
        fix: list = []
        for vm, repair in plan.items():
            if self._vec_cache.pop(vm, None) is None:
                continue
            self.cache_stats["invalidations"] += 1
            if repair:
                fix.append(vm)
        if fix:
            self.cache_stats["repairs"] += len(fix)
            mat = self._compute_cost_matrix(np.asarray(fix, dtype=np.int64))
            for i, vm in enumerate(fix):
                self._vec_cache[vm] = mat[i]

    def migration_cost_vector(self, vm: int) -> np.ndarray:
        """Eq. (1) cost of *vm* against every destination rack (vectorized).

        With the cache enabled the returned array is shared — read-only by
        convention (consumers only index it).
        """
        if self._cache_enabled:
            self.sync_cache()
            out = self._vec_cache.get(vm)
            if out is not None:
                self.cache_stats["hits"] += 1
                return out
            out = self._compute_cost_vector(vm)
            self.cache_stats["misses"] += 1
            self._vec_cache[vm] = out
            return out
        return self._compute_cost_vector(vm)

    def prime_cost_vectors(self, vms) -> None:
        """Batch-fill the cache for *vms* ahead of planning (fleet prime).

        One stacked kernel computes every missing Eq. (1) vector, so the
        per-rack block builds that follow read the cache instead of running
        the scalar kernel once per candidate.  Speculative fills are
        tallied under ``cache_stats["primed"]`` (not as misses — they are
        not demand queries).  No-op when the cache is disabled.
        """
        if not self._cache_enabled:
            return
        self.sync_cache()
        todo = list(
            dict.fromkeys(int(v) for v in vms if int(v) not in self._vec_cache)
        )
        if not todo:
            return
        mat = self._compute_cost_matrix(np.asarray(todo, dtype=np.int64))
        for i, vm in enumerate(todo):
            self._vec_cache[vm] = mat[i]
        self.cache_stats["primed"] += len(todo)

    def cost_rows(self, vms) -> np.ndarray:
        """Eq. (1) vectors for *vms*, stacked into a ``(len(vms), racks)`` matrix.

        The batched counterpart of per-VM :meth:`migration_cost_vector`
        calls: cached rows are gathered, missing rows are computed by one
        stacked kernel (and cached when the cache is enabled).  Every row
        is bit-identical to the scalar query for the same VM.  The result
        shares cached arrays — read-only by convention.
        """
        ids = [int(v) for v in vms]
        if not ids:
            return np.empty((0, self.table.num_racks))
        if not self._cache_enabled:
            return self._compute_cost_matrix(np.asarray(ids, dtype=np.int64))
        self.sync_cache()
        cache = self._vec_cache
        hits = 0
        missing = []
        for v in ids:
            if v in cache:
                hits += 1
            else:
                missing.append(v)
        if missing:
            missing = list(dict.fromkeys(missing))
            mat = self._compute_cost_matrix(np.asarray(missing, dtype=np.int64))
            for i, vm in enumerate(missing):
                cache[vm] = mat[i]
            self.cache_stats["misses"] += len(missing)
        self.cache_stats["hits"] += hits
        return np.stack([cache[v] for v in ids])

    def _trans_vector(self, cap: float, src_rack: int) -> np.ndarray:
        """Memoized ``G`` column for one (capacity, source-rack) pair.

        The transmission structure of Eq. (1) depends only on the fabric
        and the VM's size, so these vectors are shared across VMs and
        survive every migration — they are the rows/columns the
        incremental update never has to rebuild.  Shared, read-only.
        """
        if not self._cache_enabled:
            return self.table.cost_vector(cap, src_rack)
        key = (cap, src_rack)
        out = self._trans_cache.get(key)
        if out is None:
            out = self.table.cost_vector(cap, src_rack)
            self._trans_cache[key] = out
        return out

    def _compute_cost_vector(self, vm: int) -> np.ndarray:
        pl = self.cluster.placement
        src_rack = int(pl.host_rack[pl.vm_host[vm]])
        cap = float(pl.vm_capacity[vm])
        trans = self._trans_vector(cap, src_rack)
        from repro.costs.dependency import dependent_racks

        racks = dependent_racks(self.cluster.dependencies, pl, vm)
        if racks.size:
            dep = self.params.dependency_unit * (
                self._rack_dist[:, racks].sum(axis=1)
                - self._rack_dist[src_rack, racks].sum()
            )
        else:
            dep = np.zeros(self.table.num_racks)
        return self.params.migration_constant + dep + trans

    def _compute_cost_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Batched :meth:`_compute_cost_vector` over *ids* — one stacked kernel.

        The transmission and constant terms are pure elementwise
        broadcasts, so their IEEE op order per element matches the scalar
        kernel exactly.  The ragged dependency reductions run through
        ``np.add.reduceat`` (strictly sequential per segment), which only
        matches ``np.sum`` below numpy's pairwise-summation block of 8
        elements — VMs with 8+ dependents take the scalar kernel row.
        """
        pl = self.cluster.placement
        deps = self.cluster.dependencies
        n = ids.size
        r = self.table.num_racks
        src = pl.host_rack[pl.vm_host[ids]]
        caps = pl.vm_capacity[ids].astype(np.float64)
        trans = (
            self.table.delta * caps[:, None] * self.table.sum_inv_b[src, :r]
            + self.table.eta * self.table.sum_util[src, :r]
        )
        trans[np.arange(n), src] = 0.0
        dep = np.zeros((n, r))
        rows = []  # row index of each VM with 1 <= degree < 8
        segs = []  # that VM's dependents' racks, in neighbor-sorted order
        for i, vm in enumerate(ids.tolist()):
            nbrs = sorted(deps.neighbors(vm))
            if not nbrs:
                continue
            racks = pl.host_rack[pl.vm_host[np.asarray(nbrs, dtype=np.int64)]]
            if len(nbrs) >= 8:
                dep[i] = self.params.dependency_unit * (
                    self._rack_dist[:, racks].sum(axis=1)
                    - self._rack_dist[src[i], racks].sum()
                )
            else:
                rows.append(i)
                segs.append(racks)
        if rows:
            sizes = [s.size for s in segs]
            cat = np.concatenate(segs)
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            near = np.add.reduceat(self._rack_dist[:, cat], offsets, axis=1)
            src_rep = src[np.asarray(rows, dtype=np.int64)].repeat(sizes)
            here = np.add.reduceat(self._rack_dist[src_rep, cat], offsets)
            dep[rows] = (self.params.dependency_unit * (near - here[None, :])).T
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
