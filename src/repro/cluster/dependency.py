"""Dependency graph ``G_d`` (Sec. II-C).

The paper defines ``G_d = (V, E_d)`` over delegation nodes: racks ``v_i``
and ``v_j`` are dependent when some VM in ``v_i`` communicates with some VM
in ``v_j``.  We store the underlying VM-pair dependencies and *project* them
onto racks through the current placement, because migrations move VMs and
therefore move rack-level edges.

Two dependent VMs "usually cannot reach an accommodation if hosted on the
same physical server" — ``G_d`` doubles as a conflict graph: the matching
step refuses destinations that would co-locate dependent VMs on one host.
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

import numpy as np

from repro.cluster.placement import Placement
from repro.errors import PlacementError

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """VM-pair dependency store with rack-level projection.

    Parameters
    ----------
    num_vms:
        Total VM population; pair endpoints must be below this.
    pairs:
        Iterable of dependent ``(vm_a, vm_b)`` pairs (undirected).
    """

    def __init__(self, num_vms: int, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        if num_vms < 0:
            raise PlacementError(f"num_vms must be non-negative, got {num_vms}")
        self.num_vms = num_vms
        self._nbrs: List[Set[int]] = [set() for _ in range(num_vms)]
        self._pairs_cache: np.ndarray = None  # type: ignore[assignment]
        for a, b in pairs:
            self.add_pair(a, b)

    def add_pair(self, a: int, b: int) -> None:
        """Register an undirected dependency between VMs *a* and *b*."""
        if not (0 <= a < self.num_vms and 0 <= b < self.num_vms):
            raise PlacementError(f"dependency pair ({a}, {b}) out of range")
        if a == b:
            raise PlacementError(f"VM {a} cannot depend on itself")
        self._nbrs[a].add(b)
        self._nbrs[b].add(a)
        self._pairs_cache = None

    def pairs(self) -> np.ndarray:
        """``(P, 2)`` array of dependent pairs with ``a < b``, lexicographic.

        The row order matches iterating VMs ascending and each VM's
        neighbors ascending, so consumers that assign ids per pair (e.g.
        flow tables) stay deterministic.  Cached until the next
        :meth:`add_pair`.
        """
        if self._pairs_cache is None:
            rows: List[Tuple[int, int]] = []
            for a in range(self.num_vms):
                rows.extend((a, b) for b in sorted(self._nbrs[a]) if b > a)
            self._pairs_cache = (
                np.asarray(rows, dtype=np.int64)
                if rows
                else np.empty((0, 2), dtype=np.int64)
            )
        return self._pairs_cache

    def neighbors(self, vm: int) -> Set[int]:
        """VMs dependent on *vm* (live view; do not mutate)."""
        return self._nbrs[vm]

    def are_dependent(self, a: int, b: int) -> bool:
        return b in self._nbrs[a]

    # ------------------------------------------------------------------ #
    # projections through a placement
    # ------------------------------------------------------------------ #
    def rack_edges(self, placement: Placement) -> Set[Tuple[int, int]]:
        """Rack-level edge set ``E_d`` under the current placement.

        Each returned tuple ``(i, j)`` has ``i < j``; intra-rack
        dependencies do not create edges (a rack trivially "neighbors"
        itself, per the paper's ``N_d(v_i)`` including ``v_i``).
        """
        edges: Set[Tuple[int, int]] = set()
        racks = placement.host_rack[placement.vm_host]
        for a in range(self.num_vms):
            ra = int(racks[a])
            for b in self._nbrs[a]:
                if b <= a:
                    continue
                rb = int(racks[b])
                if ra != rb:
                    edges.add((ra, rb) if ra < rb else (rb, ra))
        return edges

    def conflicts_on_host(self, placement: Placement, vm: int, host: int) -> bool:
        """Would placing *vm* on *host* co-locate it with a dependent VM?

        Used as the conflict-graph check before accepting a migration
        destination (Sec. II-C: dependent VMs cannot share a server).
        Asked from the VM's side — its few dependents, not the host's
        residents — so a REQUEST never scans the fleet.
        """
        vm_host = placement.vm_host
        return any(vm_host[b] == host for b in self._nbrs[vm])

    # ------------------------------------------------------------------ #
    # generators
    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        num_vms: int,
        avg_degree: float,
        rng: np.random.Generator,
    ) -> "DependencyGraph":
        """Erdős–Rényi-style random dependencies with the given mean degree.

        Multi-tier applications packaged into VMs typically talk to a
        handful of peers; ``avg_degree`` around 1–3 mimics that.
        """
        g = cls(num_vms)
        if num_vms < 2 or avg_degree <= 0:
            return g
        n_pairs = int(round(avg_degree * num_vms / 2.0))
        made = 0
        attempts = 0
        while made < n_pairs and attempts < 20 * n_pairs + 100:
            attempts += 1
            a, b = rng.integers(0, num_vms, size=2)
            if a == b or g.are_dependent(int(a), int(b)):
                continue
            g.add_pair(int(a), int(b))
            made += 1
        return g
