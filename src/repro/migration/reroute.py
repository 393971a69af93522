"""FLOWREROUTE: steer flows around hot switches (Sec. III-B case 3).

Flow rerouting is cheaper and faster than live migration, so shims apply
it first when the alert comes from an *outer* switch.  The model: every
inter-rack VM dependency carries a flow along its current path; a shim
told that switch ``s`` is hot recomputes the paths of its local flows
that traverse ``s`` on the fabric *minus* ``s`` and moves them there.

:class:`FlowTable` keeps the flows, per-switch loads and the fabric's
liveness.  The paper leaves switch crashes to a "backup system"; the
table is it: :meth:`FlowTable.fail` reroutes the flows through a dead
switch (dropping, and remembering, those with no detour),
:meth:`FlowTable.recover` readmits them, and every route the table takes
— a new flow, a readmission, FLOWREROUTE's detour — runs on the fabric
minus the failed switches.  Routes come from one shortest-path tree per
source rack on the fabric minus the avoided switches (scipy Dijkstra on
a masked adjacency): a switch event reroutes every flow through it for
one solve per source rack, not one per flow.
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
    """Flow registry with per-node load accounting and the failed switches.

    The table is the one holder of the fabric's liveness: :attr:`failed`
    is set by :meth:`fail` and :meth:`recover`, and no route it hands out
    crosses a switch in it.

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
        self.failed: Set[int] = set()
        # (vm, src_rack, dst_rack, rate) of flows fail() dropped for want
        # of a surviving path; recover() readmits them
        self._dropped: List[Tuple[int, int, int, float]] = []
        # (failed set, its disconnected racks) of the last partition walk
        self._cut: Optional[Tuple[frozenset, Tuple[int, ...]]] = None
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
        """Register a flow and route it on the surviving fabric.

        The flow takes the whole fabric's route (its ECMP pick when
        spreading); one that crosses a failed switch then moves to the
        detour.  A pair with no surviving route raises
        :class:`TopologyError` before anything is registered: no id is
        spent and no load is added.
        """
        n_racks = self.topology.num_racks
        if not (0 <= src_rack < n_racks and 0 <= dst_rack < n_racks):
            raise TopologyError(f"flow endpoints ({src_rack}, {dst_rack}) not racks")
        detour = self._route(src_rack, dst_rack) if self.failed else None
        fid = self._next_id
        self._next_id += 1
        flow = Flow(flow_id=fid, vm=vm, src_rack=src_rack, dst_rack=dst_rack, rate=rate)
        if self.ecmp and src_rack != dst_rack:
            from repro.topology.routing import ecmp_path

            flow.path = ecmp_path(
                self.topology, src_rack, dst_rack, fid, weight="inverse_capacity"
            )
        else:
            flow.path = self._walk(src_rack, dst_rack, frozenset())
        self.flows[fid] = flow
        self._apply_load(flow.path, rate)
        if detour is not None and not self.failed.isdisjoint(flow.path):
            self._move(flow, detour)
        return fid

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

    def _route(self, src: int, dst: int, avoid: frozenset = frozenset()) -> List[int]:
        """Shortest path on the fabric minus the failed switches and *avoid*."""
        return self._walk(src, dst, avoid | self.failed if self.failed else avoid)

    def _walk(self, src: int, dst: int, avoid: frozenset) -> List[int]:
        """Shortest path on the fabric minus exactly *avoid*."""
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

    # ------------------------------------------------------------------ #
    def fail(self, switch: int) -> Tuple[int, List[int]]:
        """Kill *switch*: detour every flow through it, drop what cannot.

        Returns ``(rerouted, dropped flow ids)``.  A dropped flow is kept
        for :meth:`recover` to readmit.
        """
        topo = self.topology
        if not (topo.num_racks <= switch < topo.num_nodes):
            raise TopologyError(
                f"{switch} is not a switch node "
                f"(switches are {topo.num_racks}..{topo.num_nodes - 1})"
            )
        if switch in self.failed:
            raise TopologyError(f"switch {switch} already failed")
        self.failed.add(switch)
        through = [f.flow_id for f in self.flows_through(switch)]
        rerouted, stuck = flow_reroute(self, through, ())
        dropped: List[int] = []
        if stuck:
            # no surviving path: the flows still on the dead switch cannot
            # be carried
            for fid in through:
                flow = self.flows[fid]
                if switch in flow.path:
                    self._dropped.append(
                        (flow.vm, flow.src_rack, flow.dst_rack, flow.rate)
                    )
                    self.remove_flow(fid)
                    dropped.append(fid)
        return rerouted, dropped

    def recover(self, switch: int) -> List[int]:
        """Bring *switch* back; readmit what the outages dropped.

        Each dropped flow is registered again, in order, through
        :meth:`add_flow`, so one whose route still crosses a *different*
        failed switch takes its detour, and one with none stays dropped for
        the next recovery.  Surviving flows re-optimize lazily on the next
        reroute.  Returns the readmitted flow ids.
        """
        if switch not in self.failed:
            raise TopologyError(f"switch {switch} is not failed")
        self.failed.discard(switch)
        readmitted: List[int] = []
        dropped: List[Tuple[int, int, int, float]] = []
        for spec in self._dropped:
            try:
                readmitted.append(self.add_flow(*spec))
            except TopologyError:
                dropped.append(spec)
        self._dropped = dropped
        return readmitted

    def disconnected_racks(self) -> List[int]:
        """Racks the failed switches cut off from rack 0 (only switches
        fail, so rack 0 is always alive)."""
        key = frozenset(self.failed)
        if self._cut is None or self._cut[0] != key:
            # DFS over the surviving nodes; a failed switch counts as seen
            topo = self.topology
            seen = np.zeros(topo.num_nodes, dtype=bool)
            seen[list(key)] = True
            seen[0] = True
            stack = [0]
            while stack:
                for v in topo.neighbors(stack.pop()):
                    if not seen[v]:
                        seen[v] = True
                        stack.append(int(v))
            self._cut = (key, tuple(np.nonzero(~seen[: topo.num_racks])[0].tolist()))
        return list(self._cut[1])

    def available_bandwidth(self) -> np.ndarray:
        """Per-link bandwidth of the surviving fabric: a failed switch's
        links at zero.

        Raises :class:`TopologyError` when the failures partitioned the
        rack fabric — planning over a partition would silently produce
        infinite costs.
        """
        dead = self.disconnected_racks()
        if dead:
            raise TopologyError(
                f"fabric partitioned: racks {dead[:5]} unreachable; "
                "recover a switch before re-planning"
            )
        lt = self.topology.links
        bw = lt.capacity.copy()
        for sw in self.failed:
            bw[(lt.u == sw) | (lt.v == sw)] = 0.0
        return bw


def flow_reroute(
    table: FlowTable,
    flow_ids: Sequence[int],
    hot_switches: Set[int],
) -> Tuple[int, int]:
    """Reroute the given flows around *hot_switches* and the failed ones.

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
