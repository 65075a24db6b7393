"""Unit tests for the fabric latency oracle and message envelope."""

import pytest

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.network.fabric import Fabric
from repro.network.message import NetMessage, Route


MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


@pytest.fixture
def fabric():
    return Fabric(CostModel())


class TestFabric:
    def test_same_node_uses_intra_alpha(self, fabric):
        node = MACHINE.node_of_process
        assert (
            fabric.latency_between_nodes(node(0), node(1))
            == fabric.costs.alpha_intra_ns
        )

    def test_cross_node_uses_inter_alpha(self, fabric):
        node = MACHINE.node_of_process
        assert (
            fabric.latency_between_nodes(node(0), node(2))
            == fabric.costs.alpha_inter_ns
        )

    def test_node_level(self, fabric):
        assert fabric.latency_between_nodes(0, 0) == fabric.costs.alpha_intra_ns
        assert fabric.latency_between_nodes(0, 1) == fabric.costs.alpha_inter_ns


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
