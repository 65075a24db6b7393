"""End-to-end backpressure and credit-based flow control (see ``docs/robustness.md``).

Bounded occupancy for the comm-thread and NIC virtual-clock servers,
credit-based admission between pipeline stages, backpressure into the
TramLib source buffers, an overload detector with scheme escalation,
and an explicit per-destination shedding policy whose drops the
conservation ledger accounts. Off by default; a runtime without a
config pays one ``is None`` check per message.
"""

from repro.flow.config import FlowConfig, FlowSession
from repro.flow.controller import FlowController, FlowStats, conservation_ledger
from repro.flow.credit import CreditGate

__all__ = [
    "FlowConfig",
    "FlowController",
    "FlowStats",
    "CreditGate",
    "conservation_ledger",
    "FlowSession",
]
