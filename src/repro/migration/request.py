"""REQUEST/ACK/REJECT receiver protocol (Alg. 4).

A migration destination is only valid once the destination's delegation
node accepts the request.  Requests are served first-come-first-served;
the receiver checks that it really is the candidate delegation for the
target host, that the host has room (accounting for capacity it has
already promised this round), and that no dependency conflict would
co-locate dependent VMs on one server (Sec. II-C's conflict graph).

Under Fig. 2's live-migration model the registry also takes the engine's
:class:`~repro.sim.inflight.InFlightTracker`: a VM already in flight is
refused outright, and capacity held on a host for an in-flight arrival is
not free room.  Those two rules run before the plain Alg. 4 checks; a VM
in flight to a host also counts as there for its dependents' conflicts.
:meth:`ReceiverRegistry.commit_round` lands the accepted reservations
instantly (the placement changes now) or, given a tracker and the round,
as timed migrations started on the tracker.

A REQUEST is O(1) and keeps no copy of the placement: the VM's capacity,
the host's rack and the host's free capacity
(:meth:`~repro.cluster.placement.Placement.free_capacity`) are read from
the placement at each REQUEST, so a host disabled or a VM moved between
two REQUESTs is seen by the second.  :meth:`ReceiverRegistry.admit` is
the same rules over a batch of REQUESTs in FCFS order, as columns — each
checked against the demand of the batch's earlier requests on its
destination — with a verdict per group of the batch;
:meth:`ReceiverRegistry.reserve` books the groups that ACK, in their FCFS
place among the REQUESTs :meth:`ReceiverRegistry.request` serves.  An
commit of many reservations lands them in one
:meth:`~repro.cluster.placement.Placement.migrate_many` write (instant)
or starts them with one :meth:`~repro.sim.inflight.InFlightTracker.start_many`
(timed) when every landing or start would pass, else one at a time.

The receiver is also the natural tracing point for the protocol: with a
tracer attached it records a :class:`~repro.obs.events.RequestAcked` /
:class:`~repro.obs.events.RequestRejected` row (with the Alg. 4 reason)
for every verdict and a :class:`~repro.obs.events.MigrationCommitted` row
per reservation applied.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import ProtocolError, ReproError
from repro.obs.events import MigrationCommitted, RequestAcked, RequestRejected
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.sim.inflight import InFlightTracker

__all__ = ["RequestOutcome", "ReceiverRegistry"]

_ONE_WRITE = 20
"""Fewest landings or timed starts committed in one write.  ``migrate_many``
costs ≈ 20 µs whatever the count, one ``migrate`` ≈ 1.3 µs: on a k = 8
fabric (1 280 hosts, one core) the loop is cheaper up to 16 landings, the
write from 20 on.  ``InFlightTracker.start_many`` (≈ 5 µs + 1.2 µs a start
against ≈ 1.8 µs a ``start``) draws level at ≈ 12 and wins from 16; the
timed landings (``InFlightTracker.complete_due``) take the same write."""


class RequestOutcome(Enum):
    """Receiver verdict on one REQUEST message."""

    ACK = "ack"
    REJECT = "reject"
    IGNORED = "ignored"  # addressed to the wrong delegation (Alg. 4 line 8)


class ReceiverRegistry:
    """Receiver-side state for one management round.

    One registry serves the whole cluster (each delegation's acceptances
    are independent, keyed by rack); reservations accumulate until
    :meth:`commit_round` applies the accepted migrations, or
    :meth:`reset_round` drops them.  With a *tracker*, admission also
    honours the migrations it has in flight.
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        tracker: Optional[InFlightTracker] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.cluster = cluster
        self.tracker = tracker
        self.tracer = tracer
        self._promised: Dict[int, int] = {}  # host -> capacity promised
        # vm -> (host, capacity) per ACK, in reservation order
        self._reserved: Dict[int, Tuple[int, int]] = {}
        # (vm, dst_host, dst_rack) -> verdict; populated only via redeliver()
        self._verdicts: Dict[Tuple[int, int, int], RequestOutcome] = {}

    # ------------------------------------------------------------------ #
    def _verdict(
        self, outcome: RequestOutcome, vm: int, dst_host: int, dst_rack: int,
        reason: str = "",
    ) -> RequestOutcome:
        """Record the receiver-side trace row for one verdict."""
        if self.tracer.enabled:
            if outcome is RequestOutcome.ACK:
                self.tracer.record(RequestAcked, (vm, dst_host, dst_rack))
            else:
                self.tracer.record(RequestRejected, (vm, dst_host, dst_rack, reason))
        return outcome

    def request(self, vm: int, dst_host: int, dst_rack: int) -> RequestOutcome:
        """Alg. 4 for one REQUEST(vm → dst_host) addressed to *dst_rack*.

        ``dst_rack`` models the addressing: a request routed to a
        delegation that does not own the host is ignored, not rejected.
        The rules run in a fixed order and the first that fails decides:
        with a tracker, ``in-flight`` then ``capacity-hold`` (the host's
        room less its promises and its in-flight holds is short); then
        the bounds errors, ``wrong-delegation`` (IGNORED), the duplicate
        reservation error, ``capacity`` and ``dependency-conflict`` (a VM
        dependent on *vm* is on the host, holds a reservation to it or,
        with a tracker, is in flight to it).
        """
        pl = self.cluster.placement
        tracker = self.tracker
        if tracker is not None:
            if vm in tracker:
                return self._verdict(
                    RequestOutcome.REJECT, vm, dst_host, dst_rack, "in-flight"
                )
            if 0 <= vm < pl.num_vms and 0 <= dst_host < pl.num_hosts:
                hold = tracker.hold_on(dst_host)
                if hold and (
                    pl.free_capacity(dst_host) - self._promised.get(dst_host, 0) - hold
                    < pl.vm_capacity.item(vm)
                ):
                    return self._verdict(
                        RequestOutcome.REJECT, vm, dst_host, dst_rack,
                        "capacity-hold",
                    )
        if not (0 <= vm < pl.num_vms):
            raise ProtocolError(f"unknown vm {vm}")
        if not (0 <= dst_host < pl.num_hosts):
            raise ProtocolError(f"unknown host {dst_host}")
        if pl.host_rack.item(dst_host) != dst_rack:
            return self._verdict(
                RequestOutcome.IGNORED, vm, dst_host, dst_rack, "wrong-delegation"
            )
        reserved = self._reserved
        if vm in reserved:
            raise ProtocolError(f"vm {vm} already holds a reservation this round")
        need = pl.vm_capacity.item(vm)
        promised = self._promised.get(dst_host, 0)
        if pl.free_capacity(dst_host) - promised < need:
            return self._verdict(
                RequestOutcome.REJECT, vm, dst_host, dst_rack, "capacity"
            )
        deps = self.cluster.dependencies
        dependents = deps.neighbors(vm)
        if deps.conflicts_on_host(pl, vm, dst_host) or any(
            reserved[b][0] == dst_host for b in dependents if b in reserved
        ) or (tracker is not None and any(
            tracker.destination(b) == dst_host for b in dependents
        )):
            return self._verdict(
                RequestOutcome.REJECT, vm, dst_host, dst_rack, "dependency-conflict"
            )
        self._promised[dst_host] = promised + need
        reserved[vm] = (dst_host, need)
        return self._verdict(RequestOutcome.ACK, vm, dst_host, dst_rack)

    def admit(self, vms, hosts, racks, ends) -> np.ndarray:
        """Alg. 4 over a batch of REQUESTs as columns; which groups ACK.

        REQUEST ``i`` asks for ``vms[i]`` → ``hosts[i]`` at ``racks[i]``,
        in FCFS order; group ``g`` ends before request ``ends[g]``.  Each
        is checked against every rule of :meth:`request` as if all before
        it were ACKed (its host's room less this round's promises and the
        demand of the batch's earlier requests to it).  Returns, per group,
        whether every request of it would be ACKed; a request for an
        unknown VM or host refuses its group and every later one.  Nothing
        is reserved (:meth:`reserve` does that) and no verdict is traced:
        the sender records them.
        """
        pl = self.cluster.placement
        n = int(ends[-1]) if len(ends) else 0
        known = (vms[:n] >= 0) & (vms[:n] < pl.num_vms)
        known &= (hosts[:n] >= 0) & (hosts[:n] < pl.num_hosts)
        n = n if known.all() else int(known.argmin())
        vms, hosts, racks = vms[:n], hosts[:n], racks[:n]
        need = pl.vm_capacity[vms]
        room = np.where(
            pl.host_alive[hosts], pl.host_capacity[hosts] - pl.host_used[hosts], 0
        )
        if self._promised:
            room -= np.array(
                [self._promised.get(h, 0) for h in hosts.tolist()], dtype=np.int64
            )
        # each request's destination demand so far, its own included
        order = np.argsort(hosts, kind="stable")
        ran = need[order].cumsum()
        head = np.ones(n, dtype=bool)
        head[1:] = hosts[order][1:] != hosts[order][:-1]
        demand = np.empty(n, dtype=np.int64)
        demand[order] = ran - np.maximum.accumulate(np.where(head, ran - need[order], 0))
        refused = (room < demand) | (pl.host_rack[hosts] != racks)
        tracker = self.tracker
        if tracker is not None:
            refused |= np.fromiter((vm in tracker for vm in vms.tolist()), bool, n)
            hold = np.fromiter(map(tracker.hold_on, hosts.tolist()), np.int64, n)
            refused |= (hold > 0) & (room - hold < demand)
        # a VM asked for twice, in this batch or since the round began
        by_vm = vms.argsort(kind="stable")
        refused[by_vm[1:][vms[by_vm[1:]] == vms[by_vm[:-1]]]] = True
        reserved = self._reserved
        if reserved:
            refused |= np.fromiter((vm in reserved for vm in vms.tolist()), bool, n)
        # dependency-conflict: a dependent on the destination, in flight to
        # it, or holding a reservation to it — made before the batch, or
        # earlier in it
        indptr, indices = self.cluster.dependencies.csr()
        degree = indptr[vms + 1] - indptr[vms]
        if degree.any():
            asker = np.repeat(np.arange(n), degree)
            nth = np.arange(asker.size) - np.repeat(degree.cumsum() - degree, degree)
            dependent = indices[indptr[vms][asker] + nth]
            there = hosts[asker]
            clash = pl.vm_host[dependent] == there
            if reserved:
                clash |= there == np.fromiter(
                    (reserved.get(b, (-1,))[0] for b in dependent.tolist()),
                    np.int64,
                    asker.size,
                )
            if tracker is not None:
                clash |= there == np.fromiter(
                    map(tracker.destination, dependent.tolist()), np.int64, asker.size
                )
            sorted_vms = vms[by_vm]
            at = by_vm[sorted_vms.searchsorted(dependent).clip(max=n - 1)]
            clash |= (vms[at] == dependent) & (at < asker) & (hosts[at] == there)
            refused[asker[clash]] = True
        # refusals before each group's end; an unknown id refuses from its group on
        ends = np.asarray(ends)
        counts = np.concatenate(([0], refused.cumsum()))[np.minimum(ends, n)]
        return (np.diff(counts, prepend=0) == 0) & (ends <= n)

    def reserve(
        self, vms: List[int], hosts: List[int], racks: Optional[List[int]] = None
    ) -> None:
        """Reserve each ``vms[i]`` → ``hosts[i]``, in order, as an ACK of
        :meth:`request` would: REQUESTs :meth:`admit` found ACKed.  Given
        their *racks*, each ACK is also cached as :meth:`redeliver`'s
        first delivery caches it."""
        ids = np.fromiter(vms, np.int64, len(vms))  # the list's ints stay the keys
        need = self.cluster.placement.vm_capacity[ids].tolist()
        promised = self._promised
        for host, c in zip(hosts, need):
            promised[host] = promised.get(host, 0) + c
        self._reserved.update(zip(vms, zip(hosts, need)))
        if racks is not None:
            self._verdicts.update(
                dict.fromkeys(zip(vms, hosts, racks), RequestOutcome.ACK)
            )

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of un-committed reservations."""
        return len(self._reserved)

    @property
    def reserved_moves(self) -> List[Tuple[int, int]]:
        """Un-committed ``(vm, dst_host)`` pairs, in reservation order.

        A read-only snapshot for pre-commit bookkeeping (e.g. the SLO
        accountant records each VM's source host before the placement
        mutates under :meth:`commit_round`).
        """
        return [(vm, host) for vm, (host, _) in self._reserved.items()]

    def holds_reservation(self, vm: int) -> bool:
        """Whether *vm* currently holds an un-committed reservation."""
        return vm in self._reserved

    def redeliver(self, vm: int, dst_host: int, dst_rack: int) -> RequestOutcome:
        """Idempotent REQUEST delivery for retrying senders.

        When an ACK is lost in transit the sender retries the same REQUEST;
        Alg. 4's FCFS receiver must answer with the *cached* verdict rather
        than re-run admission (a second pass would raise on the duplicate
        reservation, or double-promise capacity on a REJECT-then-free race).
        First delivery falls through to :meth:`request`.
        """
        cached = self._verdicts.get((vm, dst_host, dst_rack))
        if cached is not None:
            return cached
        outcome = self.request(vm, dst_host, dst_rack)
        self._verdicts[(vm, dst_host, dst_rack)] = outcome
        return outcome

    def cancel(self, vm: int) -> None:
        """Release *vm*'s reservation (sender gave up — lease expiry).

        Un-promises the destination capacity and forgets the cached
        verdict, so a later round (or a different sender) can re-use the
        slot.  Raises :class:`ProtocolError` if *vm* holds no reservation.
        """
        if vm not in self._reserved:
            raise ProtocolError(f"vm {vm} holds no reservation")
        host, capacity = self._reserved.pop(vm)
        self._promised[host] -= capacity
        if self._promised[host] <= 0:
            del self._promised[host]
        self._verdicts = {k: v for k, v in self._verdicts.items() if k[0] != vm}

    def commit_round(self, now: Optional[int] = None) -> List[Tuple[int, int]]:
        """Apply every accepted migration; returns ``(vm, host)`` pairs.

        With a tracker and the round *now*, each reservation starts a
        timed migration (:meth:`InFlightTracker.start`) that holds its
        destination until it lands; otherwise each move lands at once
        (:meth:`Placement.migrate`).

        Atomic: if a landing raises partway through the reservation list
        (a destination died mid-round, say), every landing already made is
        undone before the error propagates — placement and tracker are
        left exactly as they were, never half-committed.
        """
        return self._commit(now, atomic=True)[0]

    def commit_round_tolerant(
        self, now: Optional[int] = None
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, str]]]:
        """Commit what can be committed; report the rest.

        Degraded-mode variant of :meth:`commit_round` used when faults are
        active: a reservation that cannot land (destination died, VM lost,
        pre-copy cannot converge) is skipped and reported as
        ``(vm, host, reason)`` instead of aborting the round.  Returns
        ``(moved, failed)``.
        """
        return self._commit(now, atomic=False)

    def _commit(
        self, now: Optional[int], atomic: bool
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, str]]]:
        """The one commit loop behind both landings and both policies."""
        pl = self.cluster.placement
        tracker = self.tracker if now is not None else None
        reserved = self._reserved
        if len(reserved) >= _ONE_WRITE:
            vms, hosts = list(reserved), [host for host, _ in reserved.values()]
            if (
                pl.migrate_many(vms, hosts) if tracker is None
                else tracker.start_many(vms, hosts, now)
            ):
                # every landing or start passes: one write, nothing to roll back
                moved = list(zip(vms, hosts))
                self._record_commits(moved)
                self.reset_round()
                return moved, []
        moved: List[Tuple[int, int]] = []
        failed: List[Tuple[int, int, str]] = []
        sources: List[int] = []  # each instant landing's source, for rollback
        for i, (vm, (host, _)) in enumerate(reserved.items()):
            try:
                if tracker is not None:
                    tracker.start(vm, host, now)
                else:
                    src = pl.host_of(vm)
                    pl.migrate(vm, host)
                    sources.append(src)
            except Exception as exc:
                if atomic:
                    self._record_commits(moved)
                    for landed, _ in reversed(moved):
                        if tracker is not None:
                            tracker.abort(landed)
                        else:
                            pl.migrate(landed, sources.pop())
                    total = len(reserved)
                    self.reset_round()
                    raise ProtocolError(
                        f"commit aborted at reservation {i + 1} of {total}; "
                        f"{len(moved)} landings rolled back"
                    ) from exc
                if not isinstance(exc, ReproError):
                    raise
                failed.append((vm, host, str(exc)))
                continue
            moved.append((vm, host))
        self._record_commits(moved)
        self.reset_round()
        return moved, failed

    def _record_commits(self, moved: List[Tuple[int, int]]) -> None:
        """One ``MigrationCommitted`` row per applied ``(vm, host)``."""
        if self.tracer.enabled:
            self.tracer.record(MigrationCommitted, *moved)

    def reset_round(self) -> None:
        """Drop all reservations without applying them."""
        self._promised.clear()
        self._reserved.clear()
        self._verdicts.clear()
