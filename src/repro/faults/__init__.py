"""Deterministic fault injection for the Sheriff simulator.

The paper assumes crashes "could be resolved by backup system"
(Sec. II); this package is that backup system made testable.  It
schedules switch death (which the engine's
:class:`~repro.migration.reroute.FlowTable` carries out), host crashes,
delegation/shim outages, in-flight migration aborts and a lossy
REQUEST/ACK channel — all seed-reproducible, all off by default:
with no :class:`FaultSchedule` and no :class:`ChannelPolicy` configured,
every simulation is byte-identical to a build without this package.

See ``docs/robustness.md`` for the fault model and degraded-mode
semantics, and ``python -m repro chaos`` for the campaign runner.
"""

from repro.faults.adversarial import run_adversarial_campaign
from repro.faults.campaign import default_schedule, run_chaos_campaign
from repro.faults.channel import ChannelPolicy, UnreliableChannel
from repro.faults.injector import FaultInjector, RoundFaults
from repro.faults.schedule import FaultKind, FaultSchedule, FaultSpec

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultSchedule",
    "ChannelPolicy",
    "UnreliableChannel",
    "FaultInjector",
    "RoundFaults",
    "default_schedule",
    "run_chaos_campaign",
    "run_adversarial_campaign",
]
