"""VM placement state — the location function ``ξ`` of the paper.

The placement is the single mutable object the migration algorithms act on,
and the fleet's only inventory: the hosts ``H_ij`` and VMs ``M_ij`` are rows
of its columns (capacities, values, delay sensitivity, ``host_rack``), and
it is built from them, checking each (positive capacities, non-negative
values and rack ids).  Flat numpy arrays put per-host loads, per-rack loads
and balance metrics one ``np.bincount`` away — no Python loop over VMs in
the hot simulation path.

Capacity invariants (Eq. (8)/(9) of the problem formulation) are enforced
incrementally: ``migrate`` refuses to overfill a destination host, and
``check_invariants`` re-derives everything from scratch for the test-suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CapacityError, ConfigurationError, PlacementError

__all__ = ["Placement"]


class Placement:
    """Mapping VM → host → rack with capacity accounting.

    Built from its columns: VM ``i`` and host ``j`` are row ``i`` and
    row ``j`` (a global, stable id is an index, nothing more).

    Parameters
    ----------
    vm_capacity:
        Each VM's size in the paper's minimum capacity unit (Mbps):
        the knapsack weight of PRIORITY (Alg. 2), the slot a REQUEST
        (Alg. 4) asks for and the numerator of ``T(e)`` in Eq. (1).
        Positive integers.
    vm_value:
        Each VM's worth to the operator; PRIORITY evicts low-value,
        large-size VMs first.  Non-negative.
    vm_delay_sensitive:
        VMs that are never migrated (Alg. 2 line 1 eliminates them).
    host_capacity:
        Each host's capacity budget (Eq. (8)/(9)).  Positive integers.
    host_rack:
        The delegation node ``v_i`` of each host, fixed for its lifetime
        (Sheriff migrates VMs, never servers).  Non-negative.
    vm_host:
        Initial host id of each VM.
    """

    def __init__(
        self,
        *,
        vm_capacity: Sequence[int],
        vm_value: Sequence[float],
        vm_delay_sensitive: Sequence[bool],
        host_capacity: Sequence[int],
        host_rack: Sequence[int],
        vm_host: Sequence[int],
    ) -> None:
        self.vm_capacity = np.asarray(vm_capacity, dtype=np.int64)
        self.vm_value = np.asarray(vm_value, dtype=np.float64)
        self.vm_delay_sensitive = np.asarray(vm_delay_sensitive, dtype=bool)
        self.host_capacity = np.asarray(host_capacity, dtype=np.int64)
        self.host_rack = np.asarray(host_rack, dtype=np.int64)
        self.num_vms = self.vm_capacity.shape[0]
        self.num_hosts = self.host_capacity.shape[0]
        if (
            self.vm_capacity.ndim != 1
            or self.host_capacity.ndim != 1
            or self.vm_value.shape != (self.num_vms,)
            or self.vm_delay_sensitive.shape != (self.num_vms,)
            or self.host_rack.shape != (self.num_hosts,)
        ):
            raise PlacementError("VM and host columns must be 1-D, one row each")
        if (self.vm_capacity <= 0).any():
            raise ConfigurationError(
                "VM capacity must be a positive integer (minimum unit = 1 Mbps)"
            )
        if (self.vm_value < 0).any():
            raise ConfigurationError("VM value must be non-negative")
        if (self.host_capacity <= 0).any():
            raise ConfigurationError("host capacity must be positive")
        if (self.host_rack < 0).any():
            raise ConfigurationError("host rack id must be non-negative")
        self.num_racks = int(self.host_rack.max()) + 1 if self.num_hosts else 0

        vh = np.asarray(vm_host, dtype=np.int64)
        if vh.shape != (self.num_vms,):
            raise PlacementError(
                f"vm_host must have shape ({self.num_vms},), got {vh.shape}"
            )
        if self.num_vms and ((vh < 0) | (vh >= self.num_hosts)).any():
            raise PlacementError("vm_host contains out-of-range host ids")
        self.vm_host = vh.copy()
        self.host_used = np.bincount(
            self.vm_host, weights=self.vm_capacity.astype(np.float64),
            minlength=self.num_hosts,
        ).astype(np.int64)
        over = np.nonzero(self.host_used > self.host_capacity)[0]
        if over.size:
            raise CapacityError(
                f"initial placement overfills hosts {over[:5].tolist()} "
                f"(used {self.host_used[over[:5]].tolist()} vs "
                f"capacity {self.host_capacity[over[:5]].tolist()})"
            )
        self._generation = 0
        self.host_alive = np.ones(self.num_hosts, dtype=bool)
        self.lost_vms: set = set()  # VMs whose host crashed before evacuation

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def host_of(self, vm: int) -> int:
        return int(self.vm_host[vm])

    def rack_of(self, vm: int) -> int:
        return int(self.host_rack[self.vm_host[vm]])

    def vms_on_host(self, host: int) -> np.ndarray:
        """VM ids currently placed on *host* (ascending)."""
        return np.nonzero(self.vm_host == host)[0]

    def vms_in_rack(self, rack: int) -> np.ndarray:
        """VM ids currently placed in *rack* (ascending)."""
        return np.nonzero(self.host_rack[self.vm_host] == rack)[0]

    def hosts_in_rack(self, rack: int) -> np.ndarray:
        return np.nonzero(self.host_rack == rack)[0]

    def free_capacity(self, host: int) -> int:
        # plain-Python scalars: a REQUEST reads this once per verdict
        if not self.host_alive.item(host):
            return 0
        return int(self.host_capacity.item(host) - self.host_used.item(host))

    def host_load_fraction(self) -> np.ndarray:
        """Per-host utilization in ``[0, 1]`` — the Fig. 9/10 metric base."""
        return self.host_used / self.host_capacity

    @property
    def generation(self) -> int:
        """Monotone mutation counter: +1 per successful :meth:`migrate`,
        :meth:`mark_lost` and :meth:`restore_lost`.

        The cost model's regional slab is valid for one value of this
        counter (:meth:`repro.costs.model.CostModel.sync_cache`).
        """
        return self._generation

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def migrate(self, vm: int, dst_host: int) -> None:
        """Move *vm* to *dst_host*, maintaining capacity accounting.

        Raises :class:`CapacityError` when the destination lacks room and
        :class:`PlacementError` on a no-op move (the algorithms never emit
        one; silently accepting it would hide matching bugs).
        """
        if not (0 <= vm < self.num_vms):
            raise PlacementError(f"unknown vm {vm}")
        if not (0 <= dst_host < self.num_hosts):
            raise PlacementError(f"unknown host {dst_host}")
        if vm in self.lost_vms:
            raise PlacementError(f"vm {vm} is lost (its host crashed)")
        if not self.host_alive[dst_host]:
            raise PlacementError(f"host {dst_host} is down")
        src = int(self.vm_host[vm])
        if src == dst_host:
            raise PlacementError(f"vm {vm} is already on host {dst_host}")
        need = int(self.vm_capacity[vm])
        if self.free_capacity(dst_host) < need:
            raise CapacityError(
                f"host {dst_host} has {self.free_capacity(dst_host)} free, "
                f"vm {vm} needs {need}"
            )
        self.vm_host[vm] = dst_host
        self.host_used[src] -= need
        self.host_used[dst_host] += need
        self._generation += 1

    def migrate_many(self, vms: Sequence[int], dst_hosts: Sequence[int]) -> bool:
        """Move each ``vms[i]`` to ``dst_hosts[i]`` in one write, when each
        :meth:`migrate` in turn would pass: known, distinct, unlost VMs;
        known live destinations; no no-op; each destination's arrivals fit
        its free room on their own (departures only add room).  Else
        nothing changes and ``False`` is returned."""
        vms, dst = np.asarray(vms, dtype=np.int64), np.asarray(dst_hosts, dtype=np.int64)
        if not (((vms >= 0) & (vms < self.num_vms)).all() and
                ((dst >= 0) & (dst < self.num_hosts)).all()):
            return False
        src, ids, need = self.vm_host[vms], np.sort(vms), self.vm_capacity[vms]
        arriving = np.bincount(dst, weights=need, minlength=self.num_hosts)[dst]
        if (not self.host_alive[dst].all() or (src == dst).any()
                or (ids[1:] == ids[:-1]).any()
                or not self.lost_vms.isdisjoint(vms.tolist())
                or (self.host_capacity[dst] - self.host_used[dst] < arriving).any()):
            return False
        self.vm_host[vms] = dst
        np.subtract.at(self.host_used, src, need)
        np.add.at(self.host_used, dst, need)
        self._generation += vms.size  # one per move, as migrate counts
        return True

    # ------------------------------------------------------------------ #
    # failure state (see repro.faults)
    # ------------------------------------------------------------------ #
    def disable_host(self, host: int) -> None:
        """Mark *host* dead: it stops accepting placements.

        Resident VMs keep their ``vm_host`` entry (array indexing stays
        valid everywhere); the fault layer either evacuates them or marks
        them lost.  ``free_capacity`` reports 0 for a dead host, so the
        matching never selects it as a destination.
        """
        if not (0 <= host < self.num_hosts):
            raise PlacementError(f"unknown host {host}")
        if not self.host_alive[host]:
            raise PlacementError(f"host {host} is already down")
        self.host_alive[host] = False

    def enable_host(self, host: int) -> None:
        """Bring a dead host back; its booked capacity is valid again."""
        if not (0 <= host < self.num_hosts):
            raise PlacementError(f"unknown host {host}")
        if self.host_alive[host]:
            raise PlacementError(f"host {host} is not down")
        self.host_alive[host] = True

    def mark_lost(self, vm: int) -> None:
        """Record *vm* as lost (down with its crashed host).

        The VM keeps its slot on the dead host — its capacity stays booked
        there so accounting never drifts — but it must not migrate or hold
        reservations.  Bumps the generation, so cost caches start over.
        """
        if not (0 <= vm < self.num_vms):
            raise PlacementError(f"unknown vm {vm}")
        if vm in self.lost_vms:
            raise PlacementError(f"vm {vm} is already lost")
        self.lost_vms.add(vm)
        self._generation += 1

    def restore_lost(self, vm: int) -> None:
        """Un-lose *vm* (its host recovered); it resumes where it was."""
        if vm not in self.lost_vms:
            raise PlacementError(f"vm {vm} is not lost")
        self.lost_vms.discard(vm)
        self._generation += 1

    # ------------------------------------------------------------------ #
    # verification
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Re-derive accounting from scratch; raise on any drift."""
        used = np.bincount(
            self.vm_host, weights=self.vm_capacity.astype(np.float64),
            minlength=self.num_hosts,
        ).astype(np.int64)
        if not np.array_equal(used, self.host_used):
            raise PlacementError("host_used accounting has drifted")
        over = np.nonzero(used > self.host_capacity)[0]
        if over.size:
            raise CapacityError(f"hosts {over[:5].tolist()} overfilled")
        bad = [v for v in self.lost_vms if not (0 <= v < self.num_vms)]
        if bad:
            raise PlacementError(f"lost_vms contains unknown VMs {bad[:5]}")
