"""Path transmission costs — the ``g(v_i, v_p, e_ip) → G(v_i, v_p)`` step.

Sec. V-A picks, for every rack pair, the path minimizing
``Σ_e (δ·T(e) + η·P(e))`` with ``T(e) = m.capacity / B(e)`` (transmission
time) and ``P(e) = B(e) / C(e)`` (bandwidth utilization rate), where
``B(e)`` is the available bandwidth (must exceed the threshold ``B_t``)
and ``C(e)`` the capacity.

``T(e)`` scales linearly with the migrating VM's capacity while ``P(e)``
does not, so we fix the *path* using a reference capacity (the paper's
Floyd–Warshall precomputation) and accumulate **both components
separately** along the chosen paths.  The per-VM cost is then

    ``g(cap, i, p) = δ·cap·Σ 1/B(e)  +  η·Σ B(e)/C(e)``

exactly, without re-running shortest paths per VM.

Implementation: one multi-source Dijkstra (scipy's C implementation — the
library's Floyd–Warshall kernel in :mod:`repro.topology.shortest_paths`
is kept for small graphs and cross-validation), followed by a fully
vectorized *pointer-doubling* pass that folds per-edge values along every
predecessor chain simultaneously — no Python loop over the ``O(n²)`` rack
pairs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.errors import ConfigurationError, TopologyError
from repro.topology.base import Topology

__all__ = [
    "TransmissionCostTable",
    "cached_transmission_table",
    "transmission_table_cache_stats",
]


def _fold_path_sums(
    preds: np.ndarray,
    sources: np.ndarray,
    value_lookup: np.ndarray,
) -> np.ndarray:
    """Sum *value_lookup[u, v]* over every predecessor-chain edge.

    ``preds[i, j]`` is the predecessor of node ``j`` on the shortest path
    from ``sources[i]``; unreachable/source entries are negative.  Returns
    ``sums[i, j]`` = Σ of edge values along the path ``sources[i] → j``
    (0 for the source itself, ``inf`` for unreachable nodes).

    Pointer doubling: after ``k`` iterations each entry has folded ``2^k``
    hops, so ``ceil(log2(diameter))`` iterations suffice.
    """
    n_src, n = preds.shape
    rows = np.arange(n_src)
    cols = np.broadcast_to(np.arange(n), preds.shape)
    # scipy marks both the source itself and unreachable nodes with -9999;
    # distinguish them — the source is a zero-valued self-loop, unreachable
    # nodes are inf-valued self-loops.
    negative = preds < 0
    source_col = cols == sources[:, None]
    unreachable = negative & ~source_col
    jump = np.where(negative, cols, preds)

    sums = value_lookup[jump, cols].astype(np.float64)
    sums[rows, sources] = 0.0
    sums[unreachable] = np.inf

    # fold until every chain has reached its source
    max_iters = max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)
    for _ in range(max_iters):
        nxt = np.take_along_axis(jump, jump, axis=1)
        if np.array_equal(nxt, jump):
            break
        sums += np.take_along_axis(sums, jump, axis=1)
        jump = nxt
    sums[unreachable] = np.inf
    return sums


class TransmissionCostTable:
    """Precomputed per-rack-pair transmission cost components.

    Parameters
    ----------
    topology:
        The wired fabric.
    delta, eta:
        The paper's ``δ`` and ``η`` weights (simulation: both 1).
    reference_capacity:
        VM capacity used to *select* paths (cost evaluation then uses the
        actual capacity on the selected paths).
    available_bandwidth:
        Per-edge ``B(e)``; defaults to full link capacity.  Must be
        positive where used.
    bandwidth_threshold:
        ``B_t``: edges with ``B(e) <= B_t`` are unusable for migration.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        delta: float = 1.0,
        eta: float = 1.0,
        reference_capacity: float = 10.0,
        available_bandwidth: Optional[np.ndarray] = None,
        bandwidth_threshold: float = 0.0,
    ) -> None:
        if delta < 0 or eta < 0:
            raise ConfigurationError(f"delta/eta must be non-negative, got {delta}/{eta}")
        if reference_capacity <= 0:
            raise ConfigurationError(
                f"reference_capacity must be positive, got {reference_capacity}"
            )
        self.topology = topology
        self.delta = delta
        self.eta = eta
        lt = topology.links
        n = topology.num_nodes
        if available_bandwidth is None:
            bw = lt.capacity.copy()
        else:
            bw = np.asarray(available_bandwidth, dtype=np.float64)
            if bw.shape != lt.capacity.shape:
                raise ConfigurationError(
                    f"available_bandwidth must have shape {lt.capacity.shape}, got {bw.shape}"
                )
            if (bw > lt.capacity + 1e-9).any():
                raise ConfigurationError("available bandwidth exceeds link capacity")
        usable = bw > bandwidth_threshold
        if not usable.any():
            raise TopologyError("no link satisfies the bandwidth threshold")

        u, v = lt.u[usable], lt.v[usable]
        b, c = bw[usable], lt.capacity[usable]
        d = lt.distance[usable]
        inv_b = 1.0 / b
        util = b / c
        weight = delta * reference_capacity * inv_b + eta * util

        def sym(vals: np.ndarray) -> csr_matrix:
            return csr_matrix(
                (np.concatenate([vals, vals]), (np.concatenate([u, v]), np.concatenate([v, u]))),
                shape=(n, n),
            )

        graph = sym(weight)
        sources = topology.racks()
        dist, preds = dijkstra(
            graph, directed=False, indices=sources, return_predecessors=True
        )
        self.path_weight = dist  # (racks, nodes) combined δT̄+ηP along path

        # dense symmetric per-edge value lookups (float32: summed in float64)
        def dense(vals: np.ndarray) -> np.ndarray:
            m = np.zeros((n, n), dtype=np.float32)
            m[u, v] = vals
            m[v, u] = vals
            return m

        self.sum_inv_b = _fold_path_sums(preds, sources, dense(inv_b))
        self.sum_util = _fold_path_sums(preds, sources, dense(util))
        self.sum_distance = _fold_path_sums(preds, sources, dense(d))
        self.hops = _fold_path_sums(preds, sources, dense(np.ones_like(d)))
        self._preds = preds

    # ------------------------------------------------------------------ #
    @property
    def num_racks(self) -> int:
        return self.topology.num_racks

    def cost(self, capacity: float, src_rack: int, dst_rack: int) -> float:
        """``Σ_{e∈P}(δ·T(e) + η·P(e))`` for a VM of the given capacity."""
        if capacity < 0:
            raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
        self._check_racks(src_rack, dst_rack)
        if src_rack == dst_rack:
            return 0.0
        return float(
            self.delta * capacity * self.sum_inv_b[src_rack, dst_rack]
            + self.eta * self.sum_util[src_rack, dst_rack]
        )

    def cost_vector(self, capacity: float, src_rack: int) -> np.ndarray:
        """Vectorized :meth:`cost` from one source to every rack."""
        if capacity < 0:
            raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
        self._check_racks(src_rack, 0)
        r = self.num_racks
        out = (
            self.delta * capacity * self.sum_inv_b[src_rack, :r]
            + self.eta * self.sum_util[src_rack, :r]
        )
        out[src_rack] = 0.0
        return out

    def rack_distance(self, src_rack: int, dst_rack: int) -> float:
        """Physical distance ``D`` accumulated along the chosen path."""
        self._check_racks(src_rack, dst_rack)
        if src_rack == dst_rack:
            return 0.0
        return float(self.sum_distance[src_rack, dst_rack])

    def rack_distance_matrix(self) -> np.ndarray:
        """``(racks, racks)`` physical-distance view of :attr:`sum_distance`."""
        r = self.num_racks
        m = self.sum_distance[:, :r].copy()
        np.fill_diagonal(m, 0.0)
        return m

    def path(self, src_rack: int, dst_rack: int) -> list[int]:
        """Node sequence of the selected path (for inspection/tests)."""
        self._check_racks(src_rack, dst_rack)
        if src_rack == dst_rack:
            return [src_rack]
        if self._preds[src_rack, dst_rack] < 0:
            raise TopologyError(f"rack {dst_rack} unreachable from {src_rack}")
        path = [dst_rack]
        cur = dst_rack
        for _ in range(self.topology.num_nodes):
            cur = int(self._preds[src_rack, cur])
            path.append(cur)
            if cur == src_rack:
                return path[::-1]
        raise TopologyError("predecessor chain did not terminate")

    def _check_racks(self, a: int, b: int) -> None:
        r = self.num_racks
        if not (0 <= a < r and 0 <= b < r):
            raise TopologyError(f"rack pair ({a}, {b}) out of range 0..{r - 1}")


# ---------------------------------------------------------------------- #
# topology-keyed memoization (the cost-kernel cache, part 1)
# ---------------------------------------------------------------------- #
# The shortest-path precomputation (the paper's Floyd–Warshall step) only
# depends on the topology and the scalar path-selection knobs, yet every
# CostModel construction used to redo it.  Experiments that build several
# managers over one fabric (Sheriff vs. baselines, multi-round sweeps) now
# share one table per (topology, knobs).  Entries die with their topology
# (weak keys), so clusters built in a loop do not accumulate tables.
_TABLE_MEMO: "WeakKeyDictionary[Topology, Dict[Tuple[float, float, float, float], TransmissionCostTable]]" = (
    WeakKeyDictionary()
)
_TABLE_STATS = {"builds": 0, "hits": 0}


def cached_transmission_table(
    topology: Topology,
    *,
    delta: float = 1.0,
    eta: float = 1.0,
    reference_capacity: float = 10.0,
    bandwidth_threshold: float = 0.0,
) -> TransmissionCostTable:
    """Memoized :class:`TransmissionCostTable` for full-capacity fabrics.

    Only the ``available_bandwidth=None`` case is cacheable — a dynamic
    bandwidth snapshot is per-round state, not a topology property; callers
    with one must build an uncached table.
    """
    key = (
        float(delta),
        float(eta),
        float(reference_capacity),
        float(bandwidth_threshold),
    )
    per_topo = _TABLE_MEMO.get(topology)
    if per_topo is None:
        per_topo = {}
        _TABLE_MEMO[topology] = per_topo
    table = per_topo.get(key)
    if table is not None:
        _TABLE_STATS["hits"] += 1
        return table
    table = TransmissionCostTable(
        topology,
        delta=delta,
        eta=eta,
        reference_capacity=reference_capacity,
        bandwidth_threshold=bandwidth_threshold,
    )
    _TABLE_STATS["builds"] += 1
    per_topo[key] = table
    return table


def transmission_table_cache_stats() -> Dict[str, int]:
    """Copy of the lifetime ``{"builds": ..., "hits": ...}`` counters."""
    return dict(_TABLE_STATS)
