"""Unit tests for the wire latency model and message envelope."""

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.network.message import NetMessage, Route


MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)
COSTS = CostModel(alpha_inter_ns=1900.0, alpha_intra_ns=700.0)


class TestFabric:
    def test_same_node_uses_intra_alpha(self):
        node = MACHINE.node_of_process
        assert COSTS.wire_latency_ns(node(0) == node(1)) == 700.0

    def test_cross_node_uses_inter_alpha(self):
        node = MACHINE.node_of_process
        assert COSTS.wire_latency_ns(node(0) == node(2)) == 1900.0

    def test_node_level(self):
        assert COSTS.wire_latency_ns(True) == COSTS.alpha_intra_ns
        assert COSTS.wire_latency_ns(False) == COSTS.alpha_inter_ns


class TestNetMessage:
    def test_worker_addressing(self):
        m = NetMessage(kind="k", src_worker=0, dst_process=1, size_bytes=10)
        assert m.dst_worker is None
        m2 = NetMessage(
            kind="k", src_worker=0, dst_process=1, size_bytes=10, dst_worker=3
        )
        assert m2.dst_worker == 3

    def test_route_enum_members(self):
        assert {r.value for r in Route} == {
            "intra_process",
            "intra_node",
            "inter_node",
        }
