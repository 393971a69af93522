"""Placement accounting and migration invariants."""

import numpy as np
import pytest

from repro.cluster.host import Host
from repro.cluster.placement import Placement
from repro.cluster.vm import VM
from repro.errors import CapacityError, ConfigurationError, PlacementError


def make_placement():
    vms = [
        VM(0, 10, 1.0),
        VM(1, 20, 2.0),
        VM(2, 30, 3.0),
        VM(3, 5, 4.0, delay_sensitive=True),
    ]
    hosts = [Host(0, 0, 50), Host(1, 0, 50), Host(2, 1, 50)]
    return Placement(vms, hosts, [0, 0, 1, 2])


class TestConstruction:
    def test_accounting(self):
        pl = make_placement()
        np.testing.assert_array_equal(pl.host_used, [30, 30, 5])
        pl.check_invariants()

    def test_rejects_overfull_initial(self):
        vms = [VM(0, 60, 1.0)]
        hosts = [Host(0, 0, 50)]
        with pytest.raises(CapacityError):
            Placement(vms, hosts, [0])

    def test_rejects_misnumbered_vms(self):
        with pytest.raises(PlacementError):
            Placement([VM(5, 1, 1.0)], [Host(0, 0, 10)], [0])

    def test_rejects_bad_host_ids(self):
        with pytest.raises(PlacementError):
            Placement([VM(0, 1, 1.0)], [Host(0, 0, 10)], [3])

    def test_rejects_wrong_vm_host_shape(self):
        with pytest.raises(PlacementError):
            Placement([VM(0, 1, 1.0)], [Host(0, 0, 10)], [0, 0])


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

    def test_clone_is_independent(self):
        pl = make_placement()
        cl = pl.clone()
        cl.migrate(0, 2)
        assert pl.host_of(0) == 0
        assert cl.host_of(0) == 2
        # the generation (the cost slab's key) counts every mutation, per copy
        assert (pl.generation, cl.generation) == (0, 1)
        cl.mark_lost(1)
        cl.restore_lost(1)
        assert cl.generation == 3
        pl.check_invariants()
        cl.check_invariants()

    def test_drift_detection(self):
        pl = make_placement()
        pl.host_used[0] += 1  # corrupt
        with pytest.raises(PlacementError):
            pl.check_invariants()


class TestVMHostRecords:
    def test_vm_validation(self):
        with pytest.raises(ConfigurationError):
            VM(0, 0, 1.0)
        with pytest.raises(ConfigurationError):
            VM(0, 5, -1.0)
        with pytest.raises(ConfigurationError):
            VM(-1, 5, 1.0)

    def test_host_validation(self):
        with pytest.raises(ConfigurationError):
            Host(0, 0, 0)
        with pytest.raises(ConfigurationError):
            Host(-1, 0, 10)
        with pytest.raises(ConfigurationError):
            Host(0, -2, 10)
