"""Dependency graph tests: storage, projection, conflicts."""

import numpy as np
import pytest

from repro.cluster.dependency import DependencyGraph
from repro.cluster.host import Host
from repro.cluster.placement import Placement
from repro.cluster.vm import VM
from repro.errors import PlacementError


def make_placement():
    vms = [VM(i, 5, 1.0) for i in range(6)]
    hosts = [Host(0, 0, 100), Host(1, 1, 100), Host(2, 2, 100)]
    # two VMs per host; racks 0, 1, 2
    return Placement(vms, hosts, [0, 0, 1, 1, 2, 2])


def num_pairs(g):
    return sum(len(g.neighbors(v)) for v in range(g.num_vms)) // 2


class TestStorage:
    def test_add_and_query(self):
        g = DependencyGraph(4, [(0, 1), (2, 3)])
        assert g.are_dependent(0, 1)
        assert g.are_dependent(1, 0)
        assert not g.are_dependent(0, 2)
        assert num_pairs(g) == 2

    def test_duplicate_pairs_idempotent(self):
        g = DependencyGraph(3)
        g.add_pair(0, 1)
        g.add_pair(1, 0)
        assert num_pairs(g) == 1

    def test_self_dependency_rejected(self):
        g = DependencyGraph(3)
        with pytest.raises(PlacementError):
            g.add_pair(1, 1)

    def test_out_of_range_rejected(self):
        g = DependencyGraph(3)
        with pytest.raises(PlacementError):
            g.add_pair(0, 7)


class TestProjection:
    def test_rack_edges(self):
        pl = make_placement()
        g = DependencyGraph(6, [(0, 2), (1, 4), (2, 3)])
        edges = g.rack_edges(pl)
        # vm0(r0)-vm2(r1) -> (0,1); vm1(r0)-vm4(r2) -> (0,2);
        # vm2(r1)-vm3(r1) intra-rack -> none
        assert edges == {(0, 1), (0, 2)}

    def test_projection_follows_migration(self):
        pl = make_placement()
        g = DependencyGraph(6, [(0, 2)])
        pl.migrate(2, 0)  # vm2 joins rack 0
        assert g.rack_edges(pl) == set()


class TestConflicts:
    def test_conflict_detected(self):
        pl = make_placement()
        g = DependencyGraph(6, [(0, 2)])
        # vm2 lives on host1; placing vm0 there would co-locate dependents
        assert g.conflicts_on_host(pl, 0, 1)
        assert not g.conflicts_on_host(pl, 0, 2)

    def test_no_conflict_without_dependency(self):
        pl = make_placement()
        g = DependencyGraph(6)
        assert not g.conflicts_on_host(pl, 0, 1)


    def test_same_verdicts_as_scanning_the_host(self):
        # the definition asks the host ("is a resident one of vm's
        # dependents?"); the implementation asks the VM's few dependents
        rng = np.random.default_rng(4)
        n_vms, n_hosts = 80, 10
        vms = [VM(i, 1, 1.0) for i in range(n_vms)]
        hosts = [Host(h, h // 2, 100) for h in range(n_hosts)]
        pl = Placement(vms, hosts, rng.integers(0, n_hosts, size=n_vms))
        g = DependencyGraph.random(n_vms, 3.0, rng)
        verdicts = set()
        for vm in range(n_vms):
            for host in range(n_hosts):
                scanned = any(
                    int(o) in g.neighbors(vm) for o in pl.vms_on_host(host)
                )
                assert g.conflicts_on_host(pl, vm, host) == scanned
                verdicts.add(scanned)
        assert verdicts == {True, False}

    def test_never_scans_the_fleet(self):
        class NoScan(Placement):
            def vms_on_host(self, host):
                raise AssertionError("O(fleet) scan on the REQUEST path")

        vms = [VM(i, 5, 1.0) for i in range(6)]
        hosts = [Host(0, 0, 100), Host(1, 1, 100), Host(2, 2, 100)]
        pl = NoScan(vms, hosts, [0, 0, 1, 1, 2, 2])
        assert DependencyGraph(6, [(0, 2)]).conflicts_on_host(pl, 0, 1)


class TestRandom:
    def test_mean_degree_approx(self):
        rng = np.random.default_rng(0)
        g = DependencyGraph.random(200, 2.0, rng)
        degree = 2 * num_pairs(g) / 200
        assert 1.5 <= degree <= 2.0  # target is an upper bound (dedup skips)

    def test_zero_degree(self):
        rng = np.random.default_rng(0)
        g = DependencyGraph.random(50, 0.0, rng)
        assert num_pairs(g) == 0

    def test_deterministic_with_seed(self):
        a = DependencyGraph.random(50, 1.5, np.random.default_rng(7))
        b = DependencyGraph.random(50, 1.5, np.random.default_rng(7))
        assert {frozenset((i, j)) for i in range(50) for j in a.neighbors(i)} == {
            frozenset((i, j)) for i in range(50) for j in b.neighbors(i)
        }
