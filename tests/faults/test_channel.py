"""Lossy REQUEST/ACK channel: retry, timeout, idempotence, lease expiry,
and the fates read ahead (``answered``) against a scalar walk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.faults.channel import ChannelPolicy, UnreliableChannel
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.events import RequestTimedOut
from repro.obs.tracer import RecordingTracer
from repro.rng import stream_for
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


class ScriptedRng:
    """Feed the channel an exact loss script: values < p read as 'lost'.

    The channel takes its draws in blocks (``random(size)``); a block
    reaching past the script is filled with draws that are never lost."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        block, self.values = self.values[:size], self.values[size:]
        return np.array(block + [0.99] * (size - len(block)))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelPolicy(loss_probability=1.0)
        with pytest.raises(ConfigurationError):
            ChannelPolicy(max_retries=-1)


class TestLosslessPassthrough:
    def test_zero_loss_matches_direct_request(self, cluster):
        reg = ReceiverRegistry(cluster)
        ch = UnreliableChannel(reg, ChannelPolicy(loss_probability=0.0))
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.ACK
        assert (ch.retries, ch.timeouts, ch.rollbacks) == (0, 0, 0)
        assert reg.pending == 1


class TestLossAndRetry:
    def make(self, cluster, script, *, max_retries=2):
        reg = ReceiverRegistry(cluster)
        ch = UnreliableChannel(
            reg,
            ChannelPolicy(loss_probability=0.5, max_retries=max_retries),
        )
        ch._rng = ScriptedRng(script)
        return reg, ch

    def test_request_leg_loss_then_success(self, cluster):
        # attempt 0: request lost (one draw); attempt 1: both legs survive
        reg, ch = self.make(cluster, [0.1, 0.9, 0.9])
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.ACK
        assert ch.retries == 1
        assert reg.pending == 1

    def test_lost_ack_redelivery_is_idempotent(self, cluster):
        """The REQUEST satellite: a re-delivered ACKed request must not
        double-reserve."""
        # attempt 0: request delivered, ACK lost; attempt 1: both survive
        reg, ch = self.make(cluster, [0.9, 0.1, 0.9, 0.9])
        vm, host, rack = pick_vm_and_free_host(cluster)
        need = int(cluster.placement.vm_capacity[vm])
        assert ch.request(vm, host, rack) is RequestOutcome.ACK
        assert reg.pending == 1  # one reservation despite two deliveries
        assert reg._promised[host] == need  # capacity promised exactly once
        moved = reg.commit_round()
        assert moved == [(vm, host)]
        cluster.placement.check_invariants()

    def test_exhaustion_cancels_orphan_reservation(self, cluster):
        # both attempts deliver the request but lose every reply: the
        # receiver reserved, the sender believes REJECT -> lease expiry
        reg, ch = self.make(cluster, [0.9, 0.1, 0.9, 0.1], max_retries=1)
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.REJECT
        assert reg.pending == 0
        assert not reg.holds_reservation(vm)
        assert (ch.timeouts, ch.rollbacks) == (1, 1)
        # commit of an empty round is a no-op
        assert reg.commit_round() == []
        cluster.placement.check_invariants()

    def test_retries_counted_in_metrics(self, cluster):
        # the channel's own counts, which the plan stage takes each round
        reg, ch = self.make(cluster, [0.1, 0.1, 0.9, 0.9])
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.ACK
        assert ch.take_counts() == (2, 0, 0)
        assert (ch.retries, ch.timeouts, ch.rollbacks) == (0, 0, 0)


class TestDownRack:
    def test_down_rack_times_out_into_reject(self, cluster):
        reg = ReceiverRegistry(cluster)
        pol = ChannelPolicy(loss_probability=0.0, max_retries=3)
        ch = UnreliableChannel(reg, pol, is_rack_down=lambda rack: True)
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.REJECT
        assert ch.timeouts == 1
        # every retry spent
        assert ch.retries == 3
        assert reg.pending == 0  # the receiver never saw the request


class ScalarChannel(UnreliableChannel):
    """The channel's rule one scalar draw at a time: each attempt draws
    the request leg, and a delivered one runs the receiver and draws the
    reply leg; a down shim draws nothing."""

    def _lost(self):
        p = self.policy.loss_probability
        return p > 0.0 and self._rng.random() < p

    def request(self, vm, dst_host, dst_rack):
        for attempt in range(self.policy.max_retries + 1):
            if not self._is_rack_down(dst_rack) and not self._lost():
                outcome = self.inner.redeliver(vm, dst_host, dst_rack)
                if not self._lost():
                    self.retries += attempt
                    return outcome
        self.retries += self.policy.max_retries
        self.timeouts += 1
        if self.tracer.enabled:
            self.tracer.emit(RequestTimedOut(
                vm=vm, dst_host=dst_host, dst_rack=dst_rack,
                attempts=self.policy.max_retries + 1,
            ))
        if self.inner.holds_reservation(vm):
            self.inner.cancel(vm)
            self.rollbacks += 1
        return RequestOutcome.REJECT


def scalar_fates(policy, down, racks):
    """Each REQUEST's (attempt answered or -1, draws), one draw at a time."""
    rng = stream_for(policy.seed, "channel")
    p = policy.loss_probability
    fates = []
    for rack in racks:
        attempt, draws = -1, 0
        for a in range(policy.max_retries + 1):
            if rack in down:
                continue
            draws += p > 0.0
            if p > 0.0 and rng.random() < p:
                continue  # the request leg was lost
            draws += p > 0.0
            if not (p > 0.0 and rng.random() < p):
                attempt = a
                break
        fates.append((attempt, draws))
    return fates


policies = st.builds(
    ChannelPolicy,
    loss_probability=st.sampled_from([0.0, 0.05, 0.3, 0.7]),
    max_retries=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)


class TestAnsweredIsTheScalarWalk:
    @settings(max_examples=60, deadline=None)
    @given(
        policy=policies,
        down=st.sets(st.integers(0, 7), max_size=3),
        racks=st.lists(st.integers(0, 7), max_size=1500),
        cuts=st.lists(st.integers(0, 1500), max_size=4),
    )
    def test_answered_then_take_reads_the_scalar_walk(self, policy, down, racks, cuts):
        """Fates read in runs, each run's draws taken before the next (the
        column pass's use, across buffer refills), are the scalar walk's;
        reading them needs no receiver."""
        ch = UnreliableChannel(None, policy, is_rack_down=down.__contains__)
        got = []
        bounds = [0, *sorted(min(c, len(racks)) for c in cuts), len(racks)]
        for lo, hi in zip(bounds, bounds[1:]):
            attempts, draws = ch.answered(racks[lo:hi])
            # reading ahead takes nothing
            assert ch.answered(racks[lo:hi])[1].tolist() == draws.tolist()
            ch.take(int(draws.sum()), int(attempts[attempts > 0].sum()))
            got += zip(attempts.tolist(), draws.tolist())
        assert got == scalar_fates(policy, down, racks)
        assert ch._taken + ch._pos == sum(d for _, d in got)

    @settings(max_examples=40, deadline=None)
    @given(
        policy=policies,
        down=st.sets(st.integers(0, 7), max_size=3),
        asks=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 15)), max_size=60),
    )
    def test_request_reads_its_fate_as_the_scalar_channel_does(
        self, policy, down, asks
    ):
        """Verdicts, counts, the receiver's state and the trace rows of a
        REQUEST sequence equal the scalar channel's."""

        def drive(cls):
            cluster = build_cluster(
                build_fattree(4), hosts_per_rack=2, fill_fraction=0.7, seed=3,
                dependency_degree=2.0,
            )
            reg = ReceiverRegistry(cluster, tracer=RecordingTracer())
            ch = cls(reg, policy, is_rack_down=down.__contains__, tracer=reg.tracer)
            pl = cluster.placement
            outcomes = []
            for vm, host in asks:
                if reg.holds_reservation(vm):
                    continue
                outcomes.append(ch.request(vm, host, int(pl.host_rack[host])))
            return (
                outcomes, ch.take_counts(), dict(reg._reserved), dict(reg._promised),
                dict(reg._verdicts), [e.as_dict() for e in reg.tracer.events],
            )

        assert drive(UnreliableChannel) == drive(ScalarChannel)
