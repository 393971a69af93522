"""Structure-of-arrays fleet snapshot — the round's shared hot-path state.

The per-shim planning code historically answered every per-entity question
(`which VMs sit on this host?`, `how much room has this host?`, `what are
this VM's PRIORITY attributes?`) by scanning or indexing the placement
arrays one entity at a time — thousands of tiny numpy fancy-indexing calls
per round at paper scale.  Within one management round the placement is
frozen (reservations live in the receiver registry; accepted moves land at
commit), so all of it can be gathered **once** into flat arrays and shared
read-only by the round's one
:meth:`~repro.migration.manager.ShimManager.process_round` call, the
racks it plans as columns and each it plans one at a time.

:class:`FleetSnapshot` is that gather:

* ``vm_rack`` — rack of every VM (``host_rack[vm_host]``, computed once);
* ``host_free`` — free capacity per host, already zeroed for dead hosts
  (the vectorized form of ``Placement.free_capacity``);
* ``host_load`` — per-host utilization fraction (destination steering);
* PRIORITY(F, 1) for every host at once (:meth:`host_winners`): the VM a
  SERVER alert evicts and how many candidates it was picked from, one
  ``np.lexsort`` over the round's alerted VMs instead of one gather, one
  record list and one ``max`` per alert;
* a CSR-style index rack → VMs for the β picks of a ToR alert, built on
  first use — a round of SERVER alerts sorts nothing but its alerted VMs.

Every query returns values bit-identical to the scalar
:class:`~repro.cluster.placement.Placement` calls it replaces (same
integers, same gather order) and the host table the picks of
:func:`~repro.migration.priority.priority_select`, which stays as the
scalar oracle; the hypothesis suite in
``tests/property/test_fleet_kernels.py`` enforces both.  A snapshot is
valid until the next placement mutation — the engine builds one per round
after fault injection and discards it at commit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
    """

    def __init__(self, placement: Placement) -> None:
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
        self._rack_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._winners_token: Optional[Dict[int, float]] = None
        self._winners: Tuple[List[int], List[int]] = ([], [])
        self._winner_arrays: Tuple[np.ndarray, np.ndarray] = (
            np.empty(0, np.int64), np.empty(0, np.int64)
        )

    def vms_in_rack(self, rack: int) -> np.ndarray:
        """VM ids in *rack*, ascending — same as ``Placement.vms_in_rack``."""
        if self._rack_csr is None:
            # a stable argsort keeps VM ids ascending within each rack,
            # exactly the order np.nonzero (Placement.vms_in_rack) returns
            counts = np.bincount(self.vm_rack, minlength=self.num_racks)
            self._rack_csr = (
                np.argsort(self.vm_rack, kind="stable"),
                np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
            )
        order, starts = self._rack_csr
        return order[starts[rack] : starts[rack + 1]]

    def free_capacity(self, hosts: np.ndarray) -> np.ndarray:
        """Free capacity of *hosts* (vectorized, dead hosts = 0)."""
        return self.host_free[hosts]

    # ------------------------------------------------------------------ #
    def host_winners(
        self, vm_alerts: Dict[int, float]
    ) -> Tuple[List[int], List[int]]:
        """PRIORITY(F, 1) of every host: ``(winner, candidates)`` per host.

        ``winner[h]`` is the VM ``priority_select(F, ONE)`` returns for
        ``F`` = the VMs on host ``h`` with ``alert > 0`` (``-1`` when it
        returns none), ``candidates[h]`` is ``len(F)``.  Alg. 2 drops the
        delay-sensitive VMs, then takes the highest ALERT, ties broken by
        largest capacity, then lowest value, then — ``max`` keeps the first
        of equals and ``F`` is id-ascending — lowest id: the first of each
        host group under ``np.lexsort`` by (host, -alert, -capacity, value,
        id).  Built on first use and keyed on the dict's identity, so a
        table from another round's dict is never consulted.
        """
        if self._winners_token is not vm_alerts:
            n = len(vm_alerts)
            ids = np.fromiter(vm_alerts.keys(), dtype=np.int64, count=n)
            alert = np.fromiter(vm_alerts.values(), dtype=np.float64, count=n)
            live = alert > 0.0  # NaN and zero alerts are not candidates
            ids, alert = ids[live], alert[live]
            counts = np.bincount(self.vm_host[ids], minlength=self.num_hosts)
            winners = np.full(self.num_hosts, -1, dtype=np.int64)
            movable = ~self.vm_delay_sensitive[ids]
            ids, alert = ids[movable], alert[movable]
            host = self.vm_host[ids]
            order = np.lexsort(
                (ids, self.vm_value[ids], -self.vm_capacity[ids], -alert, host)
            )
            ids, host = ids[order], host[order]
            first = np.ones(ids.size, dtype=bool)
            first[1:] = host[1:] != host[:-1]
            winners[host[first]] = ids[first]
            self._winner_arrays = (winners, counts)
            self._winners = (winners.tolist(), counts.tolist())
            self._winners_token = vm_alerts
        return self._winners

    def host_winner_arrays(
        self, vm_alerts: Dict[int, float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`host_winners`' table as its two ``int64`` arrays."""
        self.host_winners(vm_alerts)
        return self._winner_arrays

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
