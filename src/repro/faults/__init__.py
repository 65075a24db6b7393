"""Fault-injection fabric (see ``docs/robustness.md``).

Declarative, seeded, deterministic faults for the simulated transport:
message drop / duplication / corruption / bounded reordering on the
inter-node wire, plus scripted NIC degradation and comm-thread stalls.
Off by default; a runtime without a plan pays one ``is None`` check.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import (
    FOREVER,
    KINDS,
    PROCESS_KINDS,
    FaultPlan,
    FaultSession,
    FaultWindow,
)

__all__ = [
    "FaultPlan",
    "FaultWindow",
    "FaultInjector",
    "FaultStats",
    "FaultSession",
    "KINDS",
    "PROCESS_KINDS",
    "FOREVER",
]
