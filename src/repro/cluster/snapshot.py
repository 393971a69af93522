"""Structure-of-arrays fleet snapshot — the round's shared hot-path state.

The per-shim planning code historically answered every per-entity question
(`which VMs sit on this host?`, `how much room has this host?`, `what are
this VM's PRIORITY attributes?`) by scanning or indexing the placement
arrays one entity at a time — thousands of tiny numpy fancy-indexing calls
per round at paper scale.  Within one management round the placement is
frozen (reservations live in the receiver registry; accepted moves land at
commit), so all of it can be gathered **once** into flat arrays and shared
read-only by every shim's :meth:`~repro.migration.manager.ShimManager.process_round`.

:class:`FleetSnapshot` is that gather:

* ``vm_rack`` — rack of every VM (``host_rack[vm_host]``, computed once);
* ``host_free`` — free capacity per host, already zeroed for dead hosts
  (the vectorized form of ``Placement.free_capacity``);
* ``host_load`` — per-host utilization fraction (destination steering);
* CSR-style indexes host → VMs and rack → VMs, so membership queries are
  an O(degree) slice instead of an O(num_vms) scan;
* an optional profile matrix ``W ∈ R^{N×R}`` (one row per VM, one column
  per resource) for the vectorized ALERT evaluation in
  :func:`repro.alerts.alert.compute_alerts`.

Every query returns values bit-identical to the scalar
:class:`~repro.cluster.placement.Placement` calls it replaces (same
integers, same gather order); the hypothesis suite in
``tests/property/test_fleet_kernels.py`` enforces this.  A snapshot is
valid until the next placement mutation — the engine builds one per round
after fault injection and discards it at commit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.placement import Placement

__all__ = ["FleetSnapshot"]


class FleetSnapshot:
    """Read-only SoA view of one round's placement state.

    Parameters
    ----------
    placement:
        The live placement; its arrays are referenced (not copied) where
        immutability within the round makes that safe.
    profile:
        Optional ``(num_vms, NUM_RESOURCES)`` predicted profile matrix
        ``W`` for vectorized ALERT evaluation.
    """

    def __init__(
        self, placement: Placement, *, profile: Optional[np.ndarray] = None
    ) -> None:
        pl = placement
        self.placement = pl
        self.num_vms = pl.num_vms
        self.num_hosts = pl.num_hosts
        self.num_racks = pl.num_racks
        self.vm_host = pl.vm_host
        self.vm_capacity = pl.vm_capacity
        self.vm_value = pl.vm_value
        self.vm_delay_sensitive = pl.vm_delay_sensitive
        self.host_rack = pl.host_rack
        # one gather for the whole fleet instead of one per query site
        self.vm_rack = pl.host_rack[pl.vm_host]
        # vectorized Placement.free_capacity: dead hosts report 0
        self.host_free = np.where(
            pl.host_alive, pl.host_capacity - pl.host_used, 0
        ).astype(np.int64)
        self.host_load = pl.host_used / pl.host_capacity
        self.generation = pl.generation
        self.profile = profile
        self._alert_token: Optional[Dict[int, float]] = None
        self._alert_vec: Optional[np.ndarray] = None

        # CSR host -> VMs: a stable argsort of vm_host keeps VM ids
        # ascending within each host, exactly the order np.nonzero
        # (and therefore Placement.vms_on_host) returns.
        order = np.argsort(pl.vm_host, kind="stable")
        counts = np.bincount(pl.vm_host, minlength=pl.num_hosts)
        self._host_order = order
        self._host_starts = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        # CSR rack -> VMs, same construction over vm_rack
        rorder = np.argsort(self.vm_rack, kind="stable")
        rcounts = np.bincount(self.vm_rack, minlength=pl.num_racks)
        self._rack_order = rorder
        self._rack_starts = np.concatenate(
            ([0], np.cumsum(rcounts))
        ).astype(np.int64)

    def vms_on_host(self, host: int) -> np.ndarray:
        """VM ids on *host*, ascending — same as ``Placement.vms_on_host``."""
        return self._host_order[self._host_starts[host] : self._host_starts[host + 1]]

    def vms_in_rack(self, rack: int) -> np.ndarray:
        """VM ids in *rack*, ascending — same as ``Placement.vms_in_rack``."""
        return self._rack_order[self._rack_starts[rack] : self._rack_starts[rack + 1]]

    def free_capacity(self, hosts: np.ndarray) -> np.ndarray:
        """Free capacity of *hosts* (vectorized, dead hosts = 0)."""
        return self.host_free[hosts]

    # ------------------------------------------------------------------ #
    def _alert_vector(self, vm_alerts: Dict[int, float]) -> np.ndarray:
        """This round's ALERT dict densified into a per-VM vector.

        Built on first use and keyed on the dict's identity, so a vector
        from another round's dict is never consulted.
        """
        if self._alert_token is not vm_alerts:
            vec = np.zeros(self.num_vms, dtype=np.float64)
            if vm_alerts:
                ids = np.fromiter(
                    vm_alerts.keys(), dtype=np.int64, count=len(vm_alerts)
                )
                vals = np.fromiter(
                    vm_alerts.values(), dtype=np.float64, count=len(vm_alerts)
                )
                vec[ids] = vals
            self._alert_vec = vec
            self._alert_token = vm_alerts
        return self._alert_vec

    def alerted_candidates(
        self, vm_ids, vm_alerts: Dict[int, float]
    ) -> List["CandidateVM"]:
        """Candidates for *vm_ids* restricted to ``alert > 0``.

        Identical to filtering :meth:`candidates` output on ``c.alert > 0``
        (same VMs, same ascending order, same field values), but the filter
        runs on the dense alert vector before any records are built.
        """
        ids = np.asarray(vm_ids, dtype=np.int64)
        if ids.size == 0:
            return []
        return self.candidates(ids[self._alert_vector(vm_alerts)[ids] > 0.0], vm_alerts)

    def candidates(self, vm_ids, vm_alerts: Dict[int, float]) -> List["CandidateVM"]:
        """PRIORITY candidate records for *vm_ids* via batched gathers.

        One fancy-indexing gather per attribute instead of one per (VM,
        attribute) pair; field values are the placement arrays' own.
        """
        from repro.migration.priority import CandidateVM

        ids = np.asarray(vm_ids, dtype=np.int64)
        if ids.size == 0:
            return []
        caps = self.vm_capacity[ids].tolist()
        vals = self.vm_value[ids].tolist()
        ds = self.vm_delay_sensitive[ids].tolist()
        get = vm_alerts.get
        return [
            CandidateVM(
                vm_id=vm,
                capacity=cap,
                value=val,
                alert=float(get(vm, 0.0)),
                delay_sensitive=d,
            )
            for vm, cap, val, d in zip(ids.tolist(), caps, vals, ds)
        ]
