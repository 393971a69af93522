"""Core topology data structures.

A :class:`Topology` is the wired network graph ``G_r = (V ∪ S, E_r)`` of the
paper: delegation nodes (ToR switches with their shim layer, one per rack)
plus aggregation/core/BCube switches, and the physical links between them.

The representation is array-of-struct-of-arrays: node kinds live in one numpy
array, links in a :class:`LinkTable` of parallel numpy arrays.  This keeps the
hot kernels (Floyd–Warshall, per-edge cost evaluation, bandwidth accounting)
fully vectorized, per the HPC guide's "vectorize the loops, keep views not
copies" discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = ["NodeKind", "LinkTable", "Topology"]


class NodeKind(IntEnum):
    """Role of a node in the wired graph.

    ``TOR`` nodes are the delegation nodes ``v_i`` of the paper — a ToR
    switch fused with its rack's shim layer.  Every other kind is a plain
    switch ``s_j``.
    """

    TOR = 0
    AGG = 1
    CORE = 2
    BCUBE = 3  # a BCube level-(>=1) switch


@dataclass
class LinkTable:
    """Typed, parallel-array link storage.

    Attributes
    ----------
    u, v:
        Endpoint node ids (undirected; stored once with ``u < v`` not
        required but deduplicated by :meth:`Topology.add_link`).
    capacity:
        Maximum capacity ``C(e)`` of each link, in the paper's abstract
        bandwidth units (Gbps in the prose, ``10``/``1`` in the simulation).
    distance:
        Physical distance ``D(e)`` used by the dependency cost.
    """

    u: np.ndarray
    v: np.ndarray
    capacity: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return int(self.u.shape[0])

    @classmethod
    def from_lists(
        cls,
        u: Sequence[int],
        v: Sequence[int],
        capacity: Sequence[float],
        distance: Sequence[float],
    ) -> "LinkTable":
        return cls(
            u=np.asarray(u, dtype=np.int64),
            v=np.asarray(v, dtype=np.int64),
            capacity=np.asarray(capacity, dtype=np.float64),
            distance=np.asarray(distance, dtype=np.float64),
        )


class Topology:
    """A DCN wired graph with typed nodes and capacitated links.

    Nodes are integers ``0..num_nodes-1``.  By convention the first
    ``num_racks`` ids are the ToR/delegation nodes, so rack index and ToR
    node id coincide — the simulator relies on this.

    Parameters
    ----------
    name:
        Human-readable fabric name, e.g. ``"fattree-k8"``.
    kinds:
        Per-node :class:`NodeKind` values; ToR nodes must form a prefix.
    """

    def __init__(self, name: str, kinds: Sequence[NodeKind]) -> None:
        self.name = name
        self.kinds = np.asarray([int(k) for k in kinds], dtype=np.int8)
        if self.kinds.ndim != 1 or self.kinds.shape[0] == 0:
            raise TopologyError("a topology needs at least one node")
        tor_mask = self.kinds == int(NodeKind.TOR)
        n_tor = int(tor_mask.sum())
        if n_tor == 0:
            raise TopologyError("a topology needs at least one ToR node")
        if not tor_mask[:n_tor].all():
            raise TopologyError("ToR nodes must occupy node ids 0..num_racks-1")
        self._num_racks = n_tor
        self._u: List[int] = []
        self._v: List[int] = []
        self._cap: List[float] = []
        self._dist: List[float] = []
        self._edge_index: Dict[Tuple[int, int], int] = {}
        self._links: Optional[LinkTable] = None
        self._adj: Optional[List[np.ndarray]] = None
        self._regions: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.meta: Dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_link(self, u: int, v: int, capacity: float, distance: float) -> int:
        """Add an undirected link; returns its edge id.

        Duplicate ``(u, v)`` pairs raise: the fabrics built here are simple
        graphs and a silent duplicate would double-count bandwidth.
        """
        n = self.num_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise TopologyError(f"link endpoints ({u}, {v}) out of range 0..{n - 1}")
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        if capacity <= 0:
            raise TopologyError(f"link ({u}, {v}) has non-positive capacity {capacity}")
        if distance < 0:
            raise TopologyError(f"link ({u}, {v}) has negative distance {distance}")
        key = (u, v) if u < v else (v, u)
        if key in self._edge_index:
            raise TopologyError(f"duplicate link {key}")
        eid = len(self._u)
        self._edge_index[key] = eid
        self._u.append(u)
        self._v.append(v)
        self._cap.append(float(capacity))
        self._dist.append(float(distance))
        self._links = None
        self._adj = None
        self._regions = None
        return eid

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def num_racks(self) -> int:
        """Number of ToR/delegation nodes (== number of racks)."""
        return self._num_racks

    @property
    def num_links(self) -> int:
        return len(self._u)

    @property
    def links(self) -> LinkTable:
        """The (cached) immutable link table."""
        if self._links is None:
            self._links = LinkTable.from_lists(self._u, self._v, self._cap, self._dist)
        return self._links

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._edge_index

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of nodes adjacent to *node*."""
        if self._adj is None:
            self._build_adjacency()
        assert self._adj is not None
        return self._adj[node]

    def _build_adjacency(self) -> None:
        adj: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in zip(self._u, self._v):
            adj[u].append(v)
            adj[v].append(u)
        self._adj = [np.asarray(sorted(a), dtype=np.int64) for a in adj]

    def rack_regions(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fabric's region index: every rack's one-hop neighbor racks.

        Returns ``(table, widths)``: ``table[r, :widths[r]]`` are the racks
        sharing a switch (or a direct link) with rack ``r``, ascending and
        without ``r`` — the sorted :func:`repro.cluster.shim.neighbor_racks`
        of every rack from one sparse product ``B·Bᵀ`` of the rack-switch
        incidence.  Regions are ragged; columns past ``widths[r]`` hold
        ``r`` (a valid rack id nobody reads).  Built once per fabric and
        shared by its shim views and cost models: read-only.
        """
        if self._regions is None:
            from scipy.sparse import csr_matrix

            lt = self.links
            r, n = self._num_racks, self.num_nodes
            one_way = csr_matrix(
                (np.ones(len(lt), dtype=np.int32), (lt.u, lt.v)), shape=(n, n)
            )
            adj = (one_way + one_way.T).tocsr()
            via_switch = adj[:r, r:]
            near = (via_switch @ via_switch.T + adj[:r, :r]).tocoo()
            keep = near.row != near.col
            rows, cols = near.row[keep], near.col[keep]
            widths = np.bincount(rows, minlength=r)
            table = np.repeat(
                np.arange(r, dtype=np.int64)[:, None], int(widths.max()), axis=1
            )
            table[np.arange(table.shape[1]) < widths[:, None]] = cols[
                np.lexsort((cols, rows))
            ]
            self._regions = (table, widths)
        return self._regions

    def nodes_of_kind(self, kind: NodeKind) -> np.ndarray:
        """All node ids with the given kind."""
        return np.nonzero(self.kinds == int(kind))[0]

    def racks(self) -> np.ndarray:
        """Node ids of all delegation/ToR nodes (== ``range(num_racks)``)."""
        return np.arange(self._num_racks, dtype=np.int64)

    def switches(self) -> np.ndarray:
        """Node ids of all non-ToR switches."""
        return np.arange(self._num_racks, self.num_nodes, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # matrices
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self, weight: str = "distance") -> np.ndarray:
        """Dense symmetric weight matrix with ``inf`` for non-edges.

        ``weight`` selects the link attribute (``"distance"``,
        ``"capacity"``, or ``"hops"`` for unit weights).
        """
        lt = self.links
        n = self.num_nodes
        mat = np.full((n, n), np.inf, dtype=np.float64)
        np.fill_diagonal(mat, 0.0)
        if weight == "distance":
            w = lt.distance
        elif weight == "capacity":
            w = lt.capacity
        elif weight == "hops":
            w = np.ones(len(lt), dtype=np.float64)
        else:
            raise TopologyError(f"unknown weight attribute {weight!r}")
        mat[lt.u, lt.v] = w
        mat[lt.v, lt.u] = w
        return mat

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (for validation/analysis)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        for i in range(self.num_nodes):
            g.add_node(i, kind=NodeKind(int(self.kinds[i])).name)
        lt = self.links
        for eid in range(len(lt)):
            g.add_edge(
                int(lt.u[eid]),
                int(lt.v[eid]),
                capacity=float(lt.capacity[eid]),
                distance=float(lt.distance[eid]),
            )
        return g

    def degree(self) -> np.ndarray:
        """Per-node degree vector."""
        lt = self.links
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, lt.u, 1)
        np.add.at(deg, lt.v, 1)
        return deg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology({self.name!r}, nodes={self.num_nodes}, "
            f"racks={self.num_racks}, links={self.num_links})"
        )
