"""Alg. 4 admission with in-flight holds, under interleaved operations.

A :class:`ReceiverRegistry` built with an :class:`InFlightTracker` is driven
through random mixes of REQUESTs, timed commits (atomic and tolerant),
tracker aborts, landings and destination crashes.  At every step:

* no host that is up ever has ``free - promised - holds < 0`` — an ACK
  never books room that an in-flight arrival holds;
* every verdict is the first failing rule of the documented order
  (``in-flight``, ``capacity-hold``, ``wrong-delegation``, duplicate
  reservation, ``capacity``, ``dependency-conflict`` — a dependent on the
  host, in flight to it or holding a reservation to it), recomputed here
  from public state;
* every ACKed reservation starts, and an atomic commit that fails (its
  last destination crashed) leaves placement and tracker exactly as
  they were before it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.errors import ProtocolError
from repro.migration.request import ReceiverRegistry, RequestOutcome
from repro.obs.tracer import RecordingTracer
from repro.sim.inflight import InFlightTracker, MigrationTiming
from repro.topology import build_fattree

N = 10**6
# a few VMs ask again and again, so in-flight ones are asked for too
REQUEST = st.tuples(
    st.just("request"), st.integers(0, 11), st.integers(0, N), st.integers(0, 7)
)
OPS = st.one_of(
    REQUEST,
    REQUEST,
    REQUEST,
    st.tuples(st.just("commit"), st.booleans()),
    st.tuples(st.just("abort"), st.integers(0, N)),
    st.tuples(st.just("land")),
    st.tuples(st.just("crash")),
)


def expected_verdict(cluster, tracker, reg, vm, host, rack):
    """The first failing Alg. 4 rule, from public state only."""
    pl = cluster.placement
    if vm in tracker:
        return "in-flight"
    need = int(pl.vm_capacity[vm])
    promised = sum(
        int(pl.vm_capacity[v]) for v, h in reg.reserved_moves if h == host
    )
    room = pl.free_capacity(host) - promised
    hold = tracker.hold_on(host)
    if hold and room - hold < need:
        return "capacity-hold"
    if int(pl.host_rack[host]) != rack:
        return "wrong-delegation"
    if reg.holds_reservation(vm):
        return ProtocolError
    if room < need:
        return "capacity"
    deps = cluster.dependencies
    if (
        deps.conflicts_on_host(pl, vm, host)
        or any(h == host and deps.are_dependent(vm, v) for v, h in reg.reserved_moves)
        or any(tracker.destination(v) == host for v in deps.neighbors(vm))
    ):
        return "dependency-conflict"
    return "ack"


def observed_verdict(reg, tracer, vm, host, rack):
    try:
        outcome = reg.request(vm, host, rack)
    except ProtocolError:
        return ProtocolError
    if outcome is RequestOutcome.ACK:
        return "ack"
    return tracer.events[-1].reason


def snapshot(cluster, tracker):
    pl = cluster.placement
    flights = {
        vm: (rec.src_host, rec.dst_host, rec.complete_round)
        for vm, rec in tracker._active.items()
    }
    holds = {h: tracker.hold_on(h) for h in range(pl.num_hosts)}
    return pl.vm_host.tolist(), pl.host_used.tolist(), flights, holds


def assert_no_overbooking(cluster, tracker, reg):
    pl = cluster.placement
    promised = {}
    for vm, host in reg.reserved_moves:
        promised[host] = promised.get(host, 0) + int(pl.vm_capacity[vm])
    for h in range(pl.num_hosts):
        if pl.host_alive[h]:
            room = pl.free_capacity(h) - promised.get(h, 0) - tracker.hold_on(h)
            assert room >= 0, f"host {h} overbooked by {-room}"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 3), ops=st.lists(OPS, min_size=40, max_size=120))
def test_admission_with_inflight_holds(seed, ops):
    # one small host per rack, most of it full: one hold can block a host
    cluster = build_cluster(
        build_fattree(4), hosts_per_rack=1, host_capacity=40, fill_fraction=0.6,
        skew=0.5, dependency_degree=0.5, delay_sensitive_fraction=0.0, seed=seed,
    )
    pl = cluster.placement
    # windows of many rounds: holds outlive the commits that took them
    tracker = InFlightTracker(cluster, MigrationTiming(round_seconds=1.0))
    tracer = RecordingTracer()
    reg = ReceiverRegistry(cluster, tracker=tracker, tracer=tracer)
    now = 0
    crashes = 0
    for op in ops:
        kind = op[0]
        if kind == "request":
            _, a, b, misroute = op
            vm, host = a % pl.num_vms, b % pl.num_hosts
            if pl.host_of(vm) == host:
                continue  # the planner never asks for a no-op move
            rack = int(pl.host_rack[host])
            if misroute == 0:
                rack = (rack + 1) % cluster.num_racks
            want = expected_verdict(cluster, tracker, reg, vm, host, rack)
            assert observed_verdict(reg, tracer, vm, host, rack) == want
        elif kind == "commit":
            # every ACK was checked against holds, so every start succeeds
            pending = reg.reserved_moves
            if op[1]:
                started = reg.commit_round(now)
            else:
                started, failed = reg.commit_round_tolerant(now)
                assert failed == []
            assert started == pending
            assert all(vm in tracker for vm, _ in started)
            assert reg.pending == 0
        elif kind == "abort":
            flying = sorted(tracker.vms_in_flight)
            if flying:
                vm = flying[op[1] % len(flying)]
                tracker.abort(vm)
                assert vm not in tracker
        elif kind == "land":
            now += 1
            tracker.complete_due(now)
        elif kind == "crash":
            # the last reservation's destination dies before an atomic
            # commit, as HOST_CRASH does (its in-flight migrations abort
            # first): the commit must undo every start before that one
            pending = reg.reserved_moves
            if not pending or crashes >= 2:
                continue
            host = pending[-1][1]
            for vm in sorted(tracker.vms_in_flight):
                rec = tracker._active[vm]
                if host in (rec.src_host, rec.dst_host):
                    tracker.abort(vm)
            pl.disable_host(host)
            crashes += 1
            before = snapshot(cluster, tracker)
            with pytest.raises(ProtocolError, match="rolled back"):
                reg.commit_round(now)
            assert snapshot(cluster, tracker) == before
            assert reg.pending == 0
        assert_no_overbooking(cluster, tracker, reg)
    pl.check_invariants()

