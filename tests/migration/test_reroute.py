"""FlowTable and FLOWREROUTE tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.migration.reroute import FlowTable, flow_reroute
from repro.topology import build_bcube, build_fattree


@pytest.fixture
def table():
    return FlowTable(build_fattree(4))


class TestFlowTable:
    def test_add_flow_routes_and_loads(self, table):
        fid = table.add_flow(vm=7, src_rack=0, dst_rack=4, rate=2.0)
        f = table.flows[fid]
        assert f.path[0] == 0 and f.path[-1] == 4
        for node in f.path:
            assert table.load_of(node) == 2.0

    def test_intra_rack_flow(self, table):
        fid = table.add_flow(vm=1, src_rack=3, dst_rack=3, rate=1.0)
        assert table.flows[fid].path == [3]

    def test_remove_flow_releases_load(self, table):
        fid = table.add_flow(vm=1, src_rack=0, dst_rack=2, rate=3.0)
        path = list(table.flows[fid].path)
        table.remove_flow(fid)
        for node in path:
            assert table.load_of(node) == 0.0
        with pytest.raises(ConfigurationError):
            table.remove_flow(fid)

    def test_flows_through_filters(self, table):
        f1 = table.add_flow(vm=1, src_rack=0, dst_rack=4, rate=1.0)
        f2 = table.add_flow(vm=2, src_rack=1, dst_rack=4, rate=1.0)
        shared = set(table.flows[f1].path) & set(table.flows[f2].path)
        hub = next(iter(n for n in shared if n >= table.topology.num_racks), None)
        if hub is None:
            pytest.skip("no shared switch for this draw")
        both = table.flows_through(hub)
        assert {f.flow_id for f in both} >= {f1, f2} - {None}
        only0 = table.flows_through(hub, from_rack=0)
        assert all(f.src_rack == 0 for f in only0)

    def test_rejects_non_rack_endpoints(self, table):
        with pytest.raises(TopologyError):
            table.add_flow(vm=0, src_rack=0, dst_rack=table.topology.num_nodes - 1, rate=1.0)

    def test_rejects_bad_rate(self):
        ft = FlowTable(build_fattree(4))
        with pytest.raises(ConfigurationError):
            ft.add_flow(vm=0, src_rack=0, dst_rack=1, rate=0.0)


class TestReroute:
    def test_avoids_hot_switch(self, table):
        fid = table.add_flow(vm=0, src_rack=0, dst_rack=1, rate=1.0)
        path = table.flows[fid].path
        hot = path[1]  # the agg switch used
        ok, failed = flow_reroute(table, [fid], {hot})
        assert ok == 1 and failed == 0
        assert hot not in table.flows[fid].path
        assert table.load_of(hot) == 0.0

    def test_load_conserved_across_reroute(self, table):
        fid = table.add_flow(vm=0, src_rack=0, dst_rack=5, rate=2.5)
        before = table.node_load.sum()
        hot = table.flows[fid].path[1]
        flow_reroute(table, [fid], {hot})
        after = table.node_load.sum()
        # same endpoints, alternate path of equal length in a Fat-Tree
        assert after == pytest.approx(before)

    def test_no_alternative_fails_gracefully(self):
        # BCube(2, 1): racks {0,1}, switches {2,3} - blocking both switches
        # leaves no path
        ft = FlowTable(build_bcube(2))
        fid = ft.add_flow(vm=0, src_rack=0, dst_rack=1, rate=1.0)
        old_path = list(ft.flows[fid].path)
        ok, failed = flow_reroute(ft, [fid], {2, 3})
        assert ok == 0 and failed == 1
        assert ft.flows[fid].path == old_path  # unchanged

    def test_unknown_flow_raises(self, table):
        with pytest.raises(ConfigurationError):
            flow_reroute(table, [999], {0})

    def test_reroute_batch(self, table):
        fids = [table.add_flow(vm=i, src_rack=0, dst_rack=1, rate=1.0) for i in range(2)]
        hot = {table.flows[fids[0]].path[1], table.flows[fids[1]].path[1]}
        ok, failed = flow_reroute(table, fids, hot)
        assert ok + failed == 2
        for fid in fids:
            if set(table.flows[fid].path) & hot:
                assert failed > 0


class TestRouteMemo:
    """One Dijkstra per source rack serves every flow that starts there."""

    @pytest.mark.parametrize("build", [lambda: build_fattree(4), lambda: build_bcube(4)])
    def test_memoised_routes_equal_fresh_ones(self, build):
        topology = build()
        warm = FlowTable(topology)
        racks = range(topology.num_racks)
        for _ in range(2):  # second sweep: every tree comes from the memo
            for src in racks:
                for dst in racks:
                    fresh = FlowTable(topology)._route(src, dst, frozenset())
                    assert warm._route(src, dst, frozenset()) == fresh
        assert sorted(warm._trees[frozenset()]) == list(racks)

    def test_one_solve_per_source(self, table, monkeypatch):
        import repro.migration.reroute as reroute

        solved = []
        real = reroute.dijkstra
        monkeypatch.setattr(
            reroute,
            "dijkstra",
            lambda g, **kw: solved.append(kw["indices"]) or real(g, **kw),
        )
        for dst in (2, 4, 6, 7, 4):
            table.add_flow(vm=dst, src_rack=0, dst_rack=dst, rate=1.0)
        table.add_flow(vm=9, src_rack=1, dst_rack=0, rate=1.0)
        assert solved == [0, 1]

    def test_rerouted_flow_takes_its_own_masked_solve(self, table):
        fid = table.add_flow(vm=1, src_rack=0, dst_rack=4, rate=1.0)
        before = list(table.flows[fid].path)
        hot = before[2]  # a core switch on the memoised path
        assert flow_reroute(table, [fid], {hot}) == (1, 0)
        after = table.flows[fid].path
        assert hot not in after and (after[0], after[-1]) == (0, 4)
        # the memo still answers for the unmasked fabric
        assert table._route(0, 4, frozenset()) == before
