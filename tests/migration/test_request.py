"""REQUEST/ACK/REJECT protocol tests (Alg. 4)."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import ProtocolError
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.tracer import RecordingTracer
from repro.sim.inflight import InFlightTracker, MigrationTiming
from repro.topology import build_fattree


@pytest.fixture
def cluster():
    return build_cluster(
        build_fattree(4), hosts_per_rack=2, fill_fraction=0.4, seed=10,
        dependency_degree=0.0,
    )


def pick_vm_and_free_host(cluster):
    pl = cluster.placement
    vm = 0
    need = int(pl.vm_capacity[vm])
    src = pl.host_of(vm)
    for h in range(pl.num_hosts):
        if h != src and pl.free_capacity(h) >= need:
            return vm, h, int(pl.host_rack[h])
    pytest.skip("no free host in fixture")


class TestFCFS:
    def test_ack_and_commit(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert reg.request(vm, host, rack) is RequestOutcome.ACK
        assert reg.pending == 1
        moved = reg.commit_round()
        assert moved == [(vm, host)]
        assert cluster.placement.host_of(vm) == host
        cluster.placement.check_invariants()

    def test_reject_when_promised_capacity_exhausted(self, cluster):
        pl = cluster.placement
        reg = ReceiverRegistry(cluster)
        # fill one host's free capacity with promises until a reject occurs
        target = None
        for h in range(pl.num_hosts):
            if pl.free_capacity(h) > 0:
                target = h
                break
        assert target is not None
        rack = int(pl.host_rack[target])
        outcomes = []
        for vm in range(pl.num_vms):
            if pl.host_of(vm) == target:
                continue
            outcomes.append(reg.request(vm, target, rack))
            if outcomes[-1] is RequestOutcome.REJECT:
                break
        assert RequestOutcome.REJECT in outcomes
        # commits must still respect capacity
        reg.commit_round()
        pl.check_invariants()

    def test_wrong_delegation_ignored(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        wrong = (rack + 1) % cluster.num_racks
        assert reg.request(vm, host, wrong) is RequestOutcome.IGNORED
        assert reg.pending == 0

    def test_duplicate_reservation_raises(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        reg.request(vm, host, rack)
        with pytest.raises(ProtocolError):
            reg.request(vm, host, rack)

    def test_reset_round_drops_promises(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        reg.request(vm, host, rack)
        reg.reset_round()
        assert reg.pending == 0
        assert cluster.placement.host_of(vm) != host
        # capacity promise released: the same request works again
        assert reg.request(vm, host, rack) is RequestOutcome.ACK

    def test_unknown_ids_raise(self, cluster):
        reg = ReceiverRegistry(cluster)
        with pytest.raises(ProtocolError):
            reg.request(10**6, 0, 0)
        with pytest.raises(ProtocolError):
            reg.request(0, 10**6, 0)


class TestLiveState:
    """A REQUEST reads a host's liveness and room as they are now: what
    changes between two REQUESTs of one round is seen by the second."""

    @staticmethod
    def _reasons(tracer):
        return [e.reason for e in tracer.of_kind("RequestRejected")]

    def test_a_host_disabled_between_two_requests_refuses_the_second(self, cluster):
        pl = cluster.placement
        tracer = RecordingTracer()
        reg = ReceiverRegistry(cluster, tracer=tracer)
        vm, host, rack = pick_vm_and_free_host(cluster)
        other = next(
            v for v in range(pl.num_vms) if v != vm and pl.host_of(v) != host
        )
        assert reg.request(vm, host, rack) is RequestOutcome.ACK
        pl.disable_host(host)
        assert reg.request(other, host, rack) is RequestOutcome.REJECT
        assert self._reasons(tracer) == ["capacity"]

    def test_a_migrate_between_two_requests_is_seen(self, cluster):
        pl = cluster.placement
        tracer = RecordingTracer()
        reg = ReceiverRegistry(cluster, tracer=tracer)
        vm, host, rack = pick_vm_and_free_host(cluster)
        need = int(pl.vm_capacity[vm])
        # fill the host behind the registry's back until vm no longer fits
        moved = []
        while pl.free_capacity(host) >= need:
            room = pl.free_capacity(host)
            filler = max(
                (
                    v
                    for v in range(pl.num_vms)
                    if v != vm
                    and pl.host_of(v) != host
                    and int(pl.vm_capacity[v]) <= room
                ),
                key=lambda v: int(pl.vm_capacity[v]),
            )
            moved.append((filler, pl.host_of(filler)))
            pl.migrate(filler, host)
        assert reg.request(vm, host, rack) is RequestOutcome.REJECT
        assert self._reasons(tracer) == ["capacity"]
        # and moving them back off makes the room the next REQUEST takes
        for filler, src in reversed(moved):
            pl.migrate(filler, src)
        assert reg.request(vm, host, rack) is RequestOutcome.ACK


def pick_two_moves(cluster):
    """Two distinct VMs with two distinct free destination hosts."""
    pl = cluster.placement
    moves = []
    taken_hosts = set()
    for vm in range(pl.num_vms):
        src = pl.host_of(vm)
        need = int(pl.vm_capacity[vm])
        for h in range(pl.num_hosts):
            if h != src and h not in taken_hosts and pl.free_capacity(h) >= need:
                moves.append((vm, h, int(pl.host_rack[h])))
                # keep destinations disjoint from every involved host, so
                # killing one destination cannot block another rollback
                taken_hosts.add(h)
                taken_hosts.add(src)
                break
        if len(moves) == 2:
            return moves
    pytest.skip("fixture too full for two disjoint moves")


class TestAtomicCommit:
    """Regression: commit_round must never half-apply a round."""

    def test_failed_commit_rolls_back_applied_moves(self, cluster):
        pl = cluster.placement
        reg = ReceiverRegistry(cluster)
        (vm1, h1, r1), (vm2, h2, r2) = pick_two_moves(cluster)
        src1 = pl.host_of(vm1)
        assert reg.request(vm1, h1, r1) is RequestOutcome.ACK
        assert reg.request(vm2, h2, r2) is RequestOutcome.ACK
        pl.disable_host(h2)  # second destination dies mid-round
        with pytest.raises(ProtocolError, match="rolled back"):
            reg.commit_round()
        # the first move was applied, then undone: nothing half-committed
        assert pl.host_of(vm1) == src1
        assert pl.host_of(vm2) != h2
        assert reg.pending == 0
        pl.check_invariants()

    def test_tolerant_commit_reports_partial_failure(self, cluster):
        pl = cluster.placement
        reg = ReceiverRegistry(cluster)
        (vm1, h1, r1), (vm2, h2, r2) = pick_two_moves(cluster)
        reg.request(vm1, h1, r1)
        reg.request(vm2, h2, r2)
        pl.disable_host(h2)
        moved, failed = reg.commit_round_tolerant()
        assert moved == [(vm1, h1)]
        assert [(vm, host) for vm, host, _reason in failed] == [(vm2, h2)]
        assert pl.host_of(vm1) == h1
        assert pl.host_of(vm2) != h2
        pl.check_invariants()


class TestIdempotentRedelivery:
    """A re-delivered REQUEST answers with the cached verdict (lost-ACK
    retries must not double-reserve)."""

    def test_redelivered_ack_does_not_double_reserve(self, cluster):
        pl = cluster.placement
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        need = int(pl.vm_capacity[vm])
        assert reg.redeliver(vm, host, rack) is RequestOutcome.ACK
        assert reg.redeliver(vm, host, rack) is RequestOutcome.ACK  # duplicate
        assert reg.pending == 1
        assert reg._promised[host] == need  # promised once, not twice
        assert reg.commit_round() == [(vm, host)]
        pl.check_invariants()

    def test_first_delivery_falls_through_to_request(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        wrong = (rack + 1) % cluster.num_racks
        assert reg.redeliver(vm, host, wrong) is RequestOutcome.IGNORED
        assert reg.redeliver(vm, host, wrong) is RequestOutcome.IGNORED
        assert reg.pending == 0

    def test_cancel_releases_the_slot(self, cluster):
        reg = ReceiverRegistry(cluster)
        vm, host, rack = pick_vm_and_free_host(cluster)
        reg.redeliver(vm, host, rack)
        assert reg.holds_reservation(vm)
        reg.cancel(vm)
        assert not reg.holds_reservation(vm)
        assert reg.pending == 0
        # capacity and the verdict cache are both released
        assert reg.redeliver(vm, host, rack) is RequestOutcome.ACK

    def test_cancel_without_reservation_raises(self, cluster):
        reg = ReceiverRegistry(cluster)
        with pytest.raises(ProtocolError):
            reg.cancel(0)


class TestDependencyConflicts:
    def test_conflicting_destination_rejected(self, cluster):
        pl = cluster.placement
        reg = ReceiverRegistry(cluster)
        # make vm0 dependent on some VM of another host, then aim vm0 there
        for other in range(1, pl.num_vms):
            if pl.host_of(other) != pl.host_of(0):
                host = pl.host_of(other)
                if pl.free_capacity(host) >= int(pl.vm_capacity[0]):
                    cluster.dependencies.add_pair(0, other)
                    rack = int(pl.host_rack[host])
                    assert reg.request(0, host, rack) is RequestOutcome.REJECT
                    return
        pytest.skip("fixture too full for the conflict scenario")

    def _dependents_and_a_host(self, cluster):
        """Two VMs made dependent, on hosts other than a third host with
        room for both."""
        pl = cluster.placement
        a = 0
        for host in range(pl.num_hosts):
            for b in range(1, pl.num_vms):
                away = host not in (pl.host_of(a), pl.host_of(b))
                need = int(pl.vm_capacity[a] + pl.vm_capacity[b])
                if away and pl.free_capacity(host) >= need:
                    cluster.dependencies.add_pair(a, b)
                    return a, b, host, int(pl.host_rack[host])
        pytest.skip("fixture too full for two arrivals")

    def test_a_dependent_reserved_to_the_host_rejects_the_second(self, cluster):
        # regression: only the placement was read, so two dependent VMs
        # could both be ACKed onto one host in the same round
        a, b, host, rack = self._dependents_and_a_host(cluster)
        tracer = RecordingTracer()
        reg = ReceiverRegistry(cluster, tracer=tracer)
        assert reg.request(a, host, rack) is RequestOutcome.ACK
        assert reg.request(b, host, rack) is RequestOutcome.REJECT
        assert tracer.events[-1].reason == "dependency-conflict"
        # a cancelled reservation no longer holds the host
        reg.cancel(a)
        assert reg.request(b, host, rack) is RequestOutcome.ACK

    def test_admit_rejects_a_dependent_earlier_in_the_batch_or_reserved(self, cluster):
        a, b, host, rack = self._dependents_and_a_host(cluster)
        reg = ReceiverRegistry(cluster)
        batch = (np.array([a, b]), np.array([host, host]), np.array([rack, rack]))
        # two groups: the first ACKs, the second asks for its dependent's host
        assert reg.admit(*batch, np.array([1, 2])).tolist() == [True, False]
        assert reg.pending == 0  # a verdict reserves nothing
        reg.reserve(batch[0][:1], batch[1][:1])
        assert reg.reserved_moves == [(a, host)]
        # and the reservation refuses b on its own too
        assert reg.admit(*(col[1:] for col in batch), np.array([1])).tolist() == [False]
        reg.reset_round()
        assert reg.admit(*batch, np.array([2])).tolist() == [False]
        assert reg.pending == 0

    def test_a_dependent_in_flight_to_the_host_rejects_the_request(self, cluster):
        # regression: only the placement and this round's reservations were
        # read, so a VM could be ACKed onto the host its dependent was still
        # in flight to, and both landed there
        a, b, host, rack = self._dependents_and_a_host(cluster)
        tracker = InFlightTracker(cluster, MigrationTiming(round_seconds=1.0))
        tracker.start(b, host, 0)
        tracer = RecordingTracer()
        reg = ReceiverRegistry(cluster, tracker=tracker, tracer=tracer)
        assert reg.request(a, host, rack) is RequestOutcome.REJECT
        assert tracer.events[-1].reason == "dependency-conflict"
        batch = np.array([a]), np.array([host]), np.array([rack]), np.array([1])
        assert reg.admit(*batch).tolist() == [False]
        # an aborted flight no longer holds the host against its dependent
        tracker.abort(b)
        assert reg.request(a, host, rack) is RequestOutcome.ACK
