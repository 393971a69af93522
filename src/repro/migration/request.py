"""REQUEST/ACK/REJECT receiver protocol (Alg. 4).

A migration destination is only valid once the destination's delegation
node accepts the request.  Requests are served first-come-first-served;
the receiver checks that it really is the candidate delegation for the
target host, that the host has room (accounting for capacity it has
already promised this round), and that no dependency conflict would
co-locate dependent VMs on one server (Sec. II-C's conflict graph).

The receiver is also the natural tracing point for the protocol: with a
tracer attached it records a :class:`~repro.obs.events.RequestAcked` /
:class:`~repro.obs.events.RequestRejected` row (with the Alg. 4 reason)
for every verdict and a :class:`~repro.obs.events.MigrationCommitted` row
per reservation applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.errors import ProtocolError, ReproError
from repro.obs.events import MigrationCommitted, RequestAcked, RequestRejected
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["RequestOutcome", "ReceiverRegistry"]


class RequestOutcome(Enum):
    """Receiver verdict on one REQUEST message."""

    ACK = "ack"
    REJECT = "reject"
    IGNORED = "ignored"  # addressed to the wrong delegation (Alg. 4 line 8)


@dataclass
class _Reservation:
    vm: int
    host: int
    capacity: int


class ReceiverRegistry:
    """Receiver-side state for one management round.

    One registry serves the whole cluster (each delegation's acceptances
    are independent, keyed by rack); reservations accumulate until
    :meth:`commit_round` applies the accepted migrations to the placement,
    or :meth:`reset_round` drops them.
    """

    def __init__(self, cluster: Cluster, *, tracer: Tracer = NULL_TRACER) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self._promised: Dict[int, int] = {}  # host -> capacity promised
        self._reservations: List[_Reservation] = []
        self._reserved_vms: set[int] = set()
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
        """
        pl = self.cluster.placement
        if not (0 <= vm < pl.num_vms):
            raise ProtocolError(f"unknown vm {vm}")
        if not (0 <= dst_host < pl.num_hosts):
            raise ProtocolError(f"unknown host {dst_host}")
        if int(pl.host_rack[dst_host]) != dst_rack:
            return self._verdict(
                RequestOutcome.IGNORED, vm, dst_host, dst_rack, "wrong-delegation"
            )
        if vm in self._reserved_vms:
            raise ProtocolError(f"vm {vm} already holds a reservation this round")
        need = int(pl.vm_capacity[vm])
        free = pl.free_capacity(dst_host) - self._promised.get(dst_host, 0)
        if free < need:
            return self._verdict(
                RequestOutcome.REJECT, vm, dst_host, dst_rack, "capacity"
            )
        if self.cluster.dependencies.conflicts_on_host(pl, vm, dst_host):
            return self._verdict(
                RequestOutcome.REJECT, vm, dst_host, dst_rack, "dependency-conflict"
            )
        self._promised[dst_host] = self._promised.get(dst_host, 0) + need
        self._reservations.append(_Reservation(vm=vm, host=dst_host, capacity=need))
        self._reserved_vms.add(vm)
        return self._verdict(RequestOutcome.ACK, vm, dst_host, dst_rack)

    def promise(self, host: int, capacity: int) -> None:
        """Count *capacity* on *host* as already spoken for this round.

        For room committed outside this registry — the destination holds
        of in-flight migrations, say — so the Alg. 4 capacity check never
        ACKs a VM onto it.  Dropped with the round like any promise.
        """
        self._promised[host] = self._promised.get(host, 0) + capacity

    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of un-committed reservations."""
        return len(self._reservations)

    @property
    def reserved_moves(self) -> List[Tuple[int, int]]:
        """Un-committed ``(vm, dst_host)`` pairs, in reservation order.

        A read-only snapshot for pre-commit bookkeeping (e.g. the SLO
        accountant records each VM's source host before the placement
        mutates under :meth:`commit_round`).
        """
        return [(res.vm, res.host) for res in self._reservations]

    def holds_reservation(self, vm: int) -> bool:
        """Whether *vm* currently holds an un-committed reservation."""
        return vm in self._reserved_vms

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
        if vm not in self._reserved_vms:
            raise ProtocolError(f"vm {vm} holds no reservation")
        for i, res in enumerate(self._reservations):
            if res.vm == vm:
                self._promised[res.host] -= res.capacity
                if self._promised[res.host] <= 0:
                    del self._promised[res.host]
                del self._reservations[i]
                break
        self._reserved_vms.discard(vm)
        self._verdicts = {k: v for k, v in self._verdicts.items() if k[0] != vm}

    def commit_round(self) -> List[Tuple[int, int]]:
        """Apply every accepted migration; returns ``(vm, host)`` pairs.

        Atomic: if :meth:`Placement.migrate` raises partway through the
        reservation list (a destination died mid-round, say), every move
        already applied is rolled back before the error propagates — the
        placement is left exactly as it was when the round was planned,
        never half-committed.
        """
        moved: List[Tuple[int, int]] = []
        applied: List[Tuple[int, int]] = []  # (vm, src) for rollback
        total = len(self._reservations)
        pl = self.cluster.placement
        try:
            for res in self._reservations:
                src = pl.host_of(res.vm)
                pl.migrate(res.vm, res.host)
                applied.append((res.vm, src))
                moved.append((res.vm, res.host))
        except Exception as exc:
            self._record_commits(moved)
            for vm, src in reversed(applied):
                pl.migrate(vm, src)
            self.reset_round()
            raise ProtocolError(
                f"commit aborted at move {len(applied) + 1} of {total}; "
                f"{len(applied)} applied moves rolled back"
            ) from exc
        self._record_commits(moved)
        self.reset_round()
        return moved

    def _record_commits(self, moved: List[Tuple[int, int]]) -> None:
        """One ``MigrationCommitted`` row per applied ``(vm, host)``."""
        if self.tracer.enabled:
            self.tracer.record(MigrationCommitted, *moved)

    def commit_round_tolerant(
        self,
    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int, str]]]:
        """Commit what can be committed; report the rest.

        Degraded-mode variant of :meth:`commit_round` used when faults are
        active: a reservation whose move fails (destination died, VM lost)
        is skipped and reported as ``(vm, host, reason)`` instead of
        aborting the round.  Returns ``(moved, failed)``.
        """
        moved: List[Tuple[int, int]] = []
        failed: List[Tuple[int, int, str]] = []
        pl = self.cluster.placement
        for res in self._reservations:
            try:
                pl.migrate(res.vm, res.host)
            except ReproError as exc:
                failed.append((res.vm, res.host, str(exc)))
                continue
            moved.append((res.vm, res.host))
        self._record_commits(moved)
        self.reset_round()
        return moved, failed

    def reset_round(self) -> None:
        """Drop all reservations without applying them."""
        self._promised.clear()
        self._reservations.clear()
        self._reserved_vms.clear()
        self._verdicts.clear()
