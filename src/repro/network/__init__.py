"""Network substrate: messages, per-node NICs and the wire model.

The model is the classic alpha–beta one the paper motivates with its
Fig 1 ping-pong: a message of ``b`` bytes costs a per-message latency
``alpha`` plus ``b * beta`` transmission time, with the NIC serializing
injections per node. Intra-node inter-process transfers bypass the NIC
and use the cheaper ``alpha_intra`` transport (CMA/xpmem-style).
"""

from repro.network.message import NetMessage, Route
from repro.network.nic import Nic, NicStats
from repro.network.pingpong import PingPongResult, measure_pingpong

__all__ = [
    "NetMessage",
    "Nic",
    "NicStats",
    "PingPongResult",
    "Route",
    "measure_pingpong",
]
