"""FLOWREROUTE: steer flows around hot switches (Sec. III-B case 3).

Flow rerouting is cheaper and faster than live migration, so shims apply
it first when the alert comes from an *outer* switch.  The model: every
inter-rack VM dependency carries a flow along its current path; a shim
told that switch ``s`` is hot recomputes the paths of its local flows
that traverse ``s`` on the fabric *minus* ``s`` and moves them there.

:class:`FlowTable` keeps the flows and per-switch loads.  Routes come from
one shortest-path tree per source rack on the fabric minus the avoided
switches (scipy Dijkstra on a masked adjacency): a switch event reroutes
every flow through it for one solve per source rack, not one per flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.errors import ConfigurationError, TopologyError
from repro.topology.base import Topology

__all__ = ["Flow", "FlowTable", "flow_reroute"]


@dataclass
class Flow:
    """One steady flow between two racks attributed to a source VM."""

    flow_id: int
    vm: int
    src_rack: int
    dst_rack: int
    rate: float
    path: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"flow {self.flow_id}: rate must be positive")


class FlowTable:
    """Flow registry with per-node load accounting.

    Parameters
    ----------
    ecmp:
        When True, new flows hash-spread across their equal-cost path set
        (keyed by flow id), the way production fabrics place flows; when
        False every flow takes the one deterministic min-weight path —
        the pessimistic single-path world where hotspots form fastest.
    """

    def __init__(self, topology: Topology, *, ecmp: bool = False) -> None:
        self.topology = topology
        self.ecmp = ecmp
        self.flows: Dict[int, Flow] = {}
        self._next_id = 0
        self.node_load = np.zeros(topology.num_nodes, dtype=np.float64)
        self._weights = self._edge_weight_matrix()
        # avoid set -> source rack -> predecessor tree.  The weights are
        # fixed at construction, so one Dijkstra serves every flow that
        # starts at a rack; the unmasked trees (avoid = {}) are kept for
        # good, masked ones only for the latest avoid set
        self._trees: Dict[frozenset, Dict[int, List[int]]] = {frozenset(): {}}
        # (kept node ids, subgraph) of the latest non-empty avoid set
        self._masked: Optional[Tuple[np.ndarray, csr_matrix]] = None

    def _edge_weight_matrix(self) -> csr_matrix:
        lt = self.topology.links
        n = self.topology.num_nodes
        w = 1.0 / lt.capacity  # prefer fat links
        return csr_matrix(
            (
                np.concatenate([w, w]),
                (np.concatenate([lt.u, lt.v]), np.concatenate([lt.v, lt.u])),
            ),
            shape=(n, n),
        )

    # ------------------------------------------------------------------ #
    def add_flow(self, vm: int, src_rack: int, dst_rack: int, rate: float) -> int:
        """Register a flow and route it on the unmasked fabric."""
        n_racks = self.topology.num_racks
        if not (0 <= src_rack < n_racks and 0 <= dst_rack < n_racks):
            raise TopologyError(f"flow endpoints ({src_rack}, {dst_rack}) not racks")
        fid = self._next_id
        self._next_id += 1
        flow = Flow(flow_id=fid, vm=vm, src_rack=src_rack, dst_rack=dst_rack, rate=rate)
        if self.ecmp and src_rack != dst_rack:
            from repro.topology.routing import ecmp_path

            flow.path = ecmp_path(
                self.topology, src_rack, dst_rack, fid, weight="inverse_capacity"
            )
        else:
            flow.path = self._route(src_rack, dst_rack, avoid=frozenset())
        self.flows[fid] = flow
        self._apply_load(flow.path, rate)
        return fid

    def add_flows(
        self, specs: Sequence[Tuple[int, int, int, float]], avoid: frozenset
    ) -> List[Optional[int]]:
        """Register ``(vm, src_rack, dst_rack, rate)`` flows, in order, off *avoid*.

        A flow whose fabric route crosses *avoid* takes its detour; one with
        none is removed again (``None`` in its slot).  Ids and loads come out
        as the :meth:`add_flow`, :func:`flow_reroute`, :meth:`remove_flow`
        sequence leaves them, every route read from the shared trees.
        """
        out: List[Optional[int]] = []
        for spec in specs:
            fid = self.add_flow(*spec)
            flow = self.flows[fid]
            if not avoid.isdisjoint(flow.path):
                try:
                    self._move(flow, self._route(flow.src_rack, flow.dst_rack, avoid))
                except TopologyError:
                    self.remove_flow(fid)
                    fid = None
            out.append(fid)
        return out

    def remove_flow(self, fid: int) -> None:
        flow = self.flows.pop(fid, None)
        if flow is None:
            raise ConfigurationError(f"unknown flow {fid}")
        self._apply_load(flow.path, -flow.rate)

    def _apply_load(self, path: Sequence[int], rate: float) -> None:
        if path:
            np.add.at(self.node_load, np.asarray(path, dtype=np.int64), rate)

    def _move(self, flow: Flow, path: List[int]) -> None:
        self._apply_load(flow.path, -flow.rate)
        flow.path = path
        self._apply_load(path, flow.rate)

    def _tree(self, src: int, avoid: frozenset) -> List[int]:
        """Shortest-path predecessors from *src* on the fabric minus *avoid*.

        Node ids throughout; a negative entry is *src* itself or a node it
        cannot reach.
        """
        trees = self._trees.get(avoid)
        if trees is None:
            # a new avoid set replaces the last one: memory stays at the
            # unmasked trees plus one masked subgraph and its trees
            self._trees = {frozenset(): self._trees[frozenset()], avoid: {}}
            trees = self._trees[avoid]
            keep = np.ones(self.topology.num_nodes, dtype=bool)
            keep[list(avoid)] = False
            kept = np.nonzero(keep)[0]
            self._masked = (kept, self._weights[kept][:, kept])
        pred = trees.get(src)
        if pred is None:
            kept, graph = self._masked if avoid else (None, self._weights)
            root = src if kept is None else int(np.searchsorted(kept, src))
            _, sub = dijkstra(
                graph, directed=False, indices=root, return_predecessors=True
            )
            if kept is not None:
                # the subgraph keeps the fabric's node order, so its tree
                # mapped back to node ids is the fabric-minus-avoid tree
                full = np.full(self.topology.num_nodes, -1, dtype=np.int64)
                reached = sub >= 0
                full[kept[reached]] = kept[sub[reached]]
                sub = full
            pred = trees[src] = sub.tolist()
        return pred

    def _route(self, src: int, dst: int, avoid: frozenset) -> List[int]:
        if src == dst:
            return [src]
        if src in avoid or dst in avoid:
            raise TopologyError("cannot avoid an endpoint of the flow")
        pred = self._tree(src, avoid)
        if pred[dst] < 0:
            if avoid:
                raise TopologyError(f"no path {src} -> {dst} avoiding {sorted(avoid)}")
            raise TopologyError(f"no path {src} -> {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(pred[path[-1]])
        return path[::-1]

    # ------------------------------------------------------------------ #
    def flows_through(self, node: int, *, from_rack: Optional[int] = None) -> List[Flow]:
        """Flows whose path crosses *node*, optionally filtered by source rack."""
        out = []
        for f in self.flows.values():
            if node in f.path and (from_rack is None or f.src_rack == from_rack):
                out.append(f)
        return out

    def load_of(self, node: int) -> float:
        return float(self.node_load[node])


def flow_reroute(
    table: FlowTable,
    flow_ids: Sequence[int],
    hot_switches: Set[int],
) -> Tuple[int, int]:
    """Reroute the given flows around *hot_switches*.

    Returns ``(rerouted, failed)`` counts; a flow that has no alternative
    path keeps its current one (and counts as failed) — the shim will fall
    back to VM migration for its VM.
    """
    avoid = frozenset(int(s) for s in hot_switches)
    ok = failed = 0
    for fid in flow_ids:
        flow = table.flows.get(int(fid))
        if flow is None:
            raise ConfigurationError(f"unknown flow {fid}")
        try:
            new_path = table._route(flow.src_rack, flow.dst_rack, avoid)
        except TopologyError:
            failed += 1
            continue
        table._move(flow, new_path)
        ok += 1
    return ok, failed
