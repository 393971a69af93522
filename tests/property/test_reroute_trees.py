"""FLOWREROUTE from shared trees equals the per-flow slice-and-solve.

:class:`FlowTable` answers every route from one shortest-path tree per
``(avoid set, source rack)``.  The oracle here is the routing it replaced:
for each flow, slice the avoided nodes out of the weight matrix and run a
fresh single-source Dijkstra, then move that one flow's load.  On random
fat-trees (k = 4, 6, 8), random flow sets and random avoid sets — some
holding a flow endpoint, some cutting a rack off the fabric — the two
must agree on ``(ok, failed)``, every ``Flow.path`` and the ``node_load``
bytes; and a run of random switch failures and recoveries through
:meth:`FlowTable.fail` / :meth:`FlowTable.recover` must match the
one-flow-at-a-time fail / recover loop.
"""

import copy
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.errors import ConfigurationError, TopologyError
from repro.migration.reroute import Flow, FlowTable, flow_reroute
from repro.topology import build_fattree

common = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@lru_cache(maxsize=None)
def _fattree(k):
    return build_fattree(k)


# ---------------------------------------------------------------------- #
# the oracle: one masked slice and one Dijkstra per flow
# ---------------------------------------------------------------------- #
def oracle_route(table, src, dst, avoid):
    if src == dst:
        return [src]
    g = table._weights
    n = table.topology.num_nodes
    if not avoid:
        dist, pred = dijkstra(g, directed=False, indices=src, return_predecessors=True)
        if not np.isfinite(dist[dst]):
            raise TopologyError(f"no path {src} -> {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(int(pred[path[-1]]))
        return path[::-1]
    keep = np.ones(n, dtype=bool)
    keep[list(avoid)] = False
    if not (keep[src] and keep[dst]):
        raise TopologyError("cannot avoid an endpoint of the flow")
    mask = np.nonzero(keep)[0]
    sub = g[mask][:, mask]
    remap = -np.ones(n, dtype=np.int64)
    remap[mask] = np.arange(mask.size)
    dist, pred = dijkstra(sub, directed=False, indices=remap[src], return_predecessors=True)
    if not np.isfinite(dist[remap[dst]]):
        raise TopologyError(f"no path {src} -> {dst} avoiding {sorted(avoid)}")
    path = [int(remap[dst])]
    while path[-1] != remap[src]:
        path.append(int(pred[path[-1]]))
    return [int(mask[i]) for i in reversed(path)]


def oracle_add(table, vm, src, dst, rate):
    fid = table._next_id
    table._next_id += 1
    flow = Flow(flow_id=fid, vm=vm, src_rack=src, dst_rack=dst, rate=rate)
    flow.path = oracle_route(table, src, dst, frozenset())
    table.flows[fid] = flow
    np.add.at(table.node_load, np.asarray(flow.path, dtype=np.int64), rate)
    return fid


def oracle_remove(table, fid):
    flow = table.flows.pop(fid)
    np.add.at(table.node_load, np.asarray(flow.path, dtype=np.int64), -flow.rate)


def oracle_reroute(table, flow_ids, hot):
    avoid = frozenset(int(s) for s in hot)
    ok = failed = 0
    for fid in flow_ids:
        flow = table.flows.get(int(fid))
        if flow is None:
            raise ConfigurationError(f"unknown flow {fid}")
        try:
            new_path = oracle_route(table, flow.src_rack, flow.dst_rack, avoid)
        except TopologyError:
            failed += 1
            continue
        np.add.at(table.node_load, np.asarray(flow.path, dtype=np.int64), -flow.rate)
        flow.path = new_path
        np.add.at(table.node_load, np.asarray(new_path, dtype=np.int64), flow.rate)
        ok += 1
    return ok, failed


def oracle_fail(table, switch):
    table.failed.add(switch)
    through = [f.flow_id for f in table.flows_through(switch)]
    ok, failed_flows = oracle_reroute(table, through, set(table.failed))
    dropped = []
    if failed_flows:
        for fid in through:
            flow = table.flows.get(fid)
            if flow is not None and any(n in table.failed for n in flow.path):
                table._dropped.append((flow.vm, flow.src_rack, flow.dst_rack, flow.rate))
                oracle_remove(table, fid)
                dropped.append(fid)
    return ok, dropped


def oracle_recover(table, switch):
    table.failed.discard(switch)
    readmitted = []
    still_dropped = []
    for vm, src, dst, rate in table._dropped:
        fid = oracle_add(table, vm, src, dst, rate)
        if any(n in table.failed for n in table.flows[fid].path):
            ok, _bad = oracle_reroute(table, [fid], table.failed)
            if not ok:
                oracle_remove(table, fid)
                still_dropped.append((vm, src, dst, rate))
                continue
        readmitted.append(fid)
    table._dropped = still_dropped
    return readmitted


# ---------------------------------------------------------------------- #
def _assert_tables_equal(new, old):
    assert new._next_id == old._next_id
    assert sorted(new.flows) == sorted(old.flows)
    for fid, flow in new.flows.items():
        assert flow.path == old.flows[fid].path, fid
    assert new.node_load.tobytes() == old.node_load.tobytes()


@st.composite
def fabrics_with_flows(draw, ks=(4, 6, 8)):
    topo = _fattree(draw(st.sampled_from(ks)))
    racks = st.integers(0, topo.num_racks - 1)
    flows = draw(
        st.lists(
            st.tuples(racks, racks, st.floats(0.01, 5.0, allow_nan=False)),
            min_size=1,
            max_size=60,
        )
    )
    return topo, flows


@st.composite
def avoid_sets(draw, topo):
    """Random switches, sometimes a rack's whole uplink set, sometimes a rack."""
    switches = st.integers(topo.num_racks, topo.num_nodes - 1)
    avoid = set(draw(st.lists(switches, max_size=6)))
    if draw(st.booleans()):  # cut a rack off the fabric
        rack = draw(st.integers(0, topo.num_racks - 1))
        avoid |= {int(v) for v in topo.neighbors(rack)}
    if draw(st.integers(0, 4)) == 0:  # an endpoint in the avoid set
        avoid.add(draw(st.integers(0, topo.num_racks - 1)))
    return avoid


class TestFlowRerouteMatchesPerFlowSolve:
    @common
    @given(data=st.data(), case=fabrics_with_flows())
    def test_events_of_random_avoid_sets(self, data, case):
        topo, specs = case
        table = FlowTable(topo)
        for i, (src, dst, rate) in enumerate(specs):
            table.add_flow(i, src, dst, rate)
        oracle = FlowTable(topo)
        for i, (src, dst, rate) in enumerate(specs):
            oracle_add(oracle, i, src, dst, rate)
        _assert_tables_equal(table, oracle)

        for _ in range(data.draw(st.integers(1, 4), label="events")):
            avoid = data.draw(avoid_sets(topo), label="avoid")
            fids = data.draw(
                st.lists(st.sampled_from(sorted(table.flows)), max_size=40),
                label="flows",
            )
            assert flow_reroute(table, fids, avoid) == oracle_reroute(
                oracle, fids, avoid
            )
            _assert_tables_equal(table, oracle)
        # memory: the unmasked trees and at most one masked avoid set
        assert frozenset() in table._trees and len(table._trees) <= 2


class TestFailRecoverMatchesOneFlowAtATime:
    @common
    @given(data=st.data(), case=fabrics_with_flows(ks=(4, 6)))
    def test_random_switch_events(self, data, case):
        topo, specs = case
        new = FlowTable(topo)
        for i, (src, dst, rate) in enumerate(specs):
            new.add_flow(i, src, dst, rate)
        old = copy.deepcopy(new)
        switches = list(range(topo.num_racks, topo.num_nodes))
        # most failures hit one rack's uplinks, so racks get cut off, flows
        # are dropped, and some recoveries still leave them with no detour
        target = data.draw(st.integers(0, topo.num_racks - 1), label="target")
        uplinks = [int(v) for v in topo.neighbors(target)]
        for _ in range(data.draw(st.integers(1, 8), label="events")):
            if new.failed and data.draw(st.booleans(), label="recover"):
                sw = data.draw(st.sampled_from(sorted(new.failed)), label="up")
                got, want = new.recover(sw), oracle_recover(old, sw)
            else:
                pool = uplinks if data.draw(st.integers(0, 3), label="aim") else switches
                alive = [s for s in pool if s not in new.failed] or [
                    s for s in switches if s not in new.failed
                ]
                sw = data.draw(st.sampled_from(alive), label="down")
                got, want = new.fail(sw), oracle_fail(old, sw)
            assert got == want
            assert new.disconnected_racks() == old.disconnected_racks()
            assert new._dropped == old._dropped
            _assert_tables_equal(new, old)
