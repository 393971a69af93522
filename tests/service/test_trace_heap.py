"""A traced round leaves nothing for the collector.

``RecordingTracer`` keeps each event kind's field values as typed
columns (arrays, and lists of atoms where a column is not typed), with no
container per event for CPython to track.  A seeded k = 4
run with every opt-in layer on — faults, a lossy channel, timed
migrations, the SLO ledger — records hundreds of events a round, yet the
GC-tracked heap grows by a small constant per round, and every column
the hot sites write stays typed.
"""

import gc

from repro.cluster import build_cluster
from repro.config import SheriffConfig
from repro.faults import ChannelPolicy, FaultKind, FaultSchedule, FaultSpec
from repro.obs.tracer import RecordingTracer, _Values
from repro.sim.engine import SheriffSimulation
from repro.sim.inflight import MigrationTiming
from repro.sim.scenario import inject_fraction_alerts
from repro.topology import build_fattree

SEED = 2015
WARM = 5
ROUNDS = 20
# the kinds the hot sites write by the thousand, as columns
HOT = {
    "AlertDelivered", "PrioritySelected", "MatchingSolved", "RequestSent",
    "RequestAcked", "MigrationCommitted", "MigrationLanded", "SloViolation",
}


def _degraded_run():
    cluster = build_cluster(
        build_fattree(4),
        hosts_per_rack=4,
        fill_fraction=0.5,
        seed=SEED,
        delay_sensitive_fraction=0.1,
    )
    tracer = RecordingTracer()
    sim = SheriffSimulation(
        cluster,
        SheriffConfig(
            balance_weight=25.0,
            migration_timing=MigrationTiming(),
            with_flows=True,
            slo=True,
            tracer=tracer,
            channel_policy=ChannelPolicy(
                loss_probability=0.1, max_retries=3, seed=SEED
            ),
            fault_schedule=FaultSchedule(
                [
                    FaultSpec(FaultKind.MIGRATION_ABORT, probability=0.25),
                    # rack ids are 0..7, so node 8 is an aggregation switch
                    FaultSpec(FaultKind.SWITCH_FAIL, target=8, at_round=1),
                    FaultSpec(FaultKind.SWITCH_RECOVER, target=8, at_round=3),
                    FaultSpec(
                        FaultKind.SHIM_DOWN, target=4, at_round=9, duration=2
                    ),
                ],
                seed=SEED,
            ),
        ),
    )
    return cluster, sim, tracer


def _round(cluster, sim, r):
    alerts, vma = inject_fraction_alerts(cluster, 0.1, time=r, seed=SEED + r)
    sim.run_round(alerts, vma)


def test_a_traced_round_leaves_a_constant_number_of_objects():
    cluster, sim, tracer = _degraded_run()
    for r in range(WARM):  # instruments, caches and the switch fault
        _round(cluster, sim, r)
    gc.collect()
    tracked, events = len(gc.get_objects()), len(tracer.events)
    for r in range(WARM, WARM + ROUNDS):
        _round(cluster, sim, r)
    gc.collect()
    growth = (len(gc.get_objects()) - tracked) / ROUNDS
    per_round = (len(tracer.events) - events) / ROUNDS
    kinds = set(tracer.kinds())
    assert {"RequestTimedOut", "MigrationLanded", "SloViolation"} <= kinds
    # one tracked object per event would grow with per_round
    assert per_round >= 50, per_round
    assert growth <= 10, (growth, per_round)
    # what the store holds is typed arrays and lists of atoms or tuples of
    # atoms (string tables, ids, an untyped column), which a collection
    # untracks
    listed = [buf for buf in tracer._buffers() if isinstance(buf, list)]
    assert not any(gc.is_tracked(value) for buf in listed for value in buf)


def test_the_hot_kinds_keep_their_typed_columns():
    # an off-type value at a hot site (a numpy scalar, an int in a float
    # field) would turn that column into a list of boxed values for good
    cluster, sim, tracer = _degraded_run()
    for r in range(WARM + ROUNDS):
        _round(cluster, sim, r)
    hot = [kind for kind in tracer._kinds if kind.cls.__name__ in HOT]
    assert {kind.cls.__name__ for kind in hot} == HOT
    spilled = [
        f"{kind.cls.__name__}.{name}"
        for kind in hot
        for name, make, col in zip(kind.names, kind._makers, kind.cols)
        if make is not _Values and type(col) is _Values
    ]
    assert not spilled, spilled
