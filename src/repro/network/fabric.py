"""Wire model between nodes (and between processes within a node).

The paper targets modern flat/fat-tree topologies where topology-aware
multi-hop routing buys little, so the fabric is distance-insensitive:
every node pair has the same ``alpha_inter`` latency. Intra-node
inter-process transfers use ``alpha_intra``. The model is deliberately a
pure-latency pipe; *serialization* (bandwidth contention) is modelled at
the NICs, which is where it physically occurs on such fabrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.costs import CostModel


@dataclass(frozen=True)
class Fabric:
    """Latency oracle for the interconnect.

    Parameters
    ----------
    costs:
        Cost model supplying ``alpha_inter_ns`` / ``alpha_intra_ns``.
    """

    costs: CostModel

    def latency_between_nodes(self, src_node: int, dst_node: int) -> float:
        """One-way latency between two nodes (ns); intra if equal."""
        return self.costs.wire_latency_ns(src_node == dst_node)
