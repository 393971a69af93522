"""Lossy REQUEST/ACK channel: retry, timeout, idempotence, lease expiry."""

import pytest

from repro.cluster import build_cluster
from repro.errors import ConfigurationError
from repro.faults.channel import ChannelPolicy, UnreliableChannel
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.metrics import MetricsRegistry
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
    """Feed the channel an exact loss script: values < p read as 'lost'."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


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
        assert ch.retries == 0 and ch.timeouts == 0
        assert reg.pending == 1


class TestLossAndRetry:
    def make(self, cluster, script, *, max_retries=2, metrics=None):
        reg = ReceiverRegistry(cluster)
        ch = UnreliableChannel(
            reg,
            ChannelPolicy(loss_probability=0.5, max_retries=max_retries),
            metrics=metrics,
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
        metrics = MetricsRegistry()
        reg, ch = self.make(
            cluster, [0.9, 0.1, 0.9, 0.1], max_retries=1, metrics=metrics
        )
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.REJECT
        assert ch.timeouts == 1 and ch.cancels == 1
        assert reg.pending == 0
        assert not reg.holds_reservation(vm)
        assert metrics.total("sheriff_request_timeouts_total") == 1
        assert metrics.total("sheriff_rollbacks_total") == 1
        # commit of an empty round is a no-op
        assert reg.commit_round() == []
        cluster.placement.check_invariants()

    def test_retries_counted_in_metrics(self, cluster):
        metrics = MetricsRegistry()
        reg, ch = self.make(cluster, [0.1, 0.1, 0.9, 0.9], metrics=metrics)
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.ACK
        assert ch.retries == 2
        assert metrics.total("sheriff_channel_retries_total") == 2


class TestDownRack:
    def test_down_rack_times_out_into_reject(self, cluster):
        reg = ReceiverRegistry(cluster)
        pol = ChannelPolicy(loss_probability=0.0, max_retries=3)
        ch = UnreliableChannel(reg, pol, is_rack_down=lambda rack: True)
        vm, host, rack = pick_vm_and_free_host(cluster)
        assert ch.request(vm, host, rack) is RequestOutcome.REJECT
        assert ch.timeouts == 1 and ch.retries == 3  # every retry spent
        assert reg.pending == 0  # the receiver never saw the request
