"""Placement accounting and migration invariants."""

import numpy as np
import pytest

from repro.cluster.placement import Placement
from repro.errors import CapacityError, ConfigurationError, PlacementError


def placement(vms, hosts, vm_host):
    """A placement from ``(capacity, value[, delay_sensitive])`` VM rows and
    ``(rack, capacity)`` host rows."""
    return Placement(
        vm_capacity=[vm[0] for vm in vms],
        vm_value=[vm[1] for vm in vms],
        vm_delay_sensitive=[len(vm) > 2 and vm[2] for vm in vms],
        host_capacity=[h[1] for h in hosts],
        host_rack=[h[0] for h in hosts],
        vm_host=vm_host,
    )


def make_placement():
    vms = [(10, 1.0), (20, 2.0), (30, 3.0), (5, 4.0, True)]
    hosts = [(0, 50), (0, 50), (1, 50)]
    return placement(vms, hosts, [0, 0, 1, 2])


class TestConstruction:
    def test_accounting(self):
        pl = make_placement()
        np.testing.assert_array_equal(pl.host_used, [30, 30, 5])
        pl.check_invariants()

    def test_rejects_overfull_initial(self):
        with pytest.raises(CapacityError):
            placement([(60, 1.0)], [(0, 50)], [0])

    def test_rejects_misnumbered_vms(self):
        # a VM's id is its row: every VM column has one row per VM
        with pytest.raises(PlacementError):
            Placement(
                vm_capacity=[1],
                vm_value=[1.0, 2.0],
                vm_delay_sensitive=[False],
                host_capacity=[10],
                host_rack=[0],
                vm_host=[0],
            )

    def test_rejects_bad_host_ids(self):
        with pytest.raises(PlacementError):
            placement([(1, 1.0)], [(0, 10)], [3])

    def test_rejects_wrong_vm_host_shape(self):
        with pytest.raises(PlacementError):
            placement([(1, 1.0)], [(0, 10)], [0, 0])


class TestQueries:
    def test_vms_on_host(self):
        pl = make_placement()
        np.testing.assert_array_equal(pl.vms_on_host(0), [0, 1])
        np.testing.assert_array_equal(pl.vms_on_host(2), [3])

    def test_vms_in_rack(self):
        pl = make_placement()
        np.testing.assert_array_equal(pl.vms_in_rack(0), [0, 1, 2])
        np.testing.assert_array_equal(pl.vms_in_rack(1), [3])

    def test_rack_of(self):
        pl = make_placement()
        assert pl.rack_of(3) == 1
        assert pl.rack_of(0) == 0

    def test_free_capacity(self):
        pl = make_placement()
        assert pl.free_capacity(0) == 20
        assert pl.free_capacity(2) == 45

    def test_load_fraction(self):
        pl = make_placement()
        np.testing.assert_allclose(pl.host_load_fraction(), [0.6, 0.6, 0.1])


class TestMigrate:
    def test_successful_move(self):
        pl = make_placement()
        pl.migrate(0, 2)
        assert pl.host_of(0) == 2
        np.testing.assert_array_equal(pl.host_used, [20, 30, 15])
        pl.check_invariants()

    def test_capacity_enforced(self):
        pl = make_placement()
        pl.migrate(2, 2)  # vm2 needs 30; host2 now used=35, free=15
        with pytest.raises(CapacityError):
            pl.migrate(1, 2)  # vm1 needs 20 > 15

    def test_noop_move_rejected(self):
        pl = make_placement()
        with pytest.raises(PlacementError):
            pl.migrate(0, 0)

    def test_unknown_ids_rejected(self):
        pl = make_placement()
        with pytest.raises(PlacementError):
            pl.migrate(99, 0)
        with pytest.raises(PlacementError):
            pl.migrate(0, 99)

    def test_migrate_many_lands_every_move_in_one_write(self):
        pl = make_placement()
        assert pl.migrate_many([0, 1], [2, 2])
        np.testing.assert_array_equal(pl.vm_host, [2, 2, 1, 2])
        np.testing.assert_array_equal(pl.host_used, [0, 30, 35])
        assert pl.generation == 2
        pl.check_invariants()

    @pytest.mark.parametrize(
        "vms, hosts, fault",
        [
            ([0, 1], [2, 99], None),  # unknown host
            ([0, 0], [1, 2], None),  # one VM twice
            ([0, 2], [0, 0], None),  # a no-op move
            ([1, 2], [2, 2], None),  # arrivals overfill host 2
            ([0], [2], "dead"),
            ([0], [2], "lost"),
        ],
    )
    def test_migrate_many_refuses_what_a_migrate_would(self, vms, hosts, fault):
        pl = make_placement()
        if fault == "dead":
            pl.disable_host(2)
        if fault == "lost":
            pl.mark_lost(0)
        before = (pl.vm_host.tolist(), pl.host_used.tolist(), pl.generation)
        assert not pl.migrate_many(vms, hosts)
        assert (pl.vm_host.tolist(), pl.host_used.tolist(), pl.generation) == before

    def test_drift_detection(self):
        pl = make_placement()
        pl.host_used[0] += 1  # corrupt
        with pytest.raises(PlacementError):
            pl.check_invariants()


class TestVMHostRecords:
    """The checks a VM or host row must pass (its id is its row)."""

    def test_vm_validation(self):
        with pytest.raises(ConfigurationError):
            placement([(0, 1.0)], [(0, 10)], [0])
        with pytest.raises(ConfigurationError):
            placement([(5, -1.0)], [(0, 10)], [0])

    def test_host_validation(self):
        with pytest.raises(ConfigurationError):
            placement([], [(0, 0)], [])
        with pytest.raises(ConfigurationError):
            placement([], [(-2, 10)], [])
