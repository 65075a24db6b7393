"""Unit tests for the cost model."""

import pytest

from repro.errors import ConfigError
from repro.machine.costs import CostModel
from repro.machine.presets import delta_machine, nonsmp_machine


@pytest.fixture
def costs():
    return CostModel()


class TestDerivedCharges:
    def test_wire_latency_selects_alpha(self, costs):
        assert costs.wire_latency_ns(same_node=False) == costs.alpha_inter_ns
        assert costs.wire_latency_ns(same_node=True) == costs.alpha_intra_ns
        assert costs.alpha_intra_ns < costs.alpha_inter_ns

    def test_tx_occupancy_linear_in_bytes(self, costs):
        base = costs.tx_occupancy_ns(0)
        assert costs.tx_occupancy_ns(1000) == pytest.approx(
            base + 1000 * costs.beta_ns_per_byte
        )

    def test_comm_service(self, costs):
        assert costs.comm_service_ns(0) == costs.comm_msg_ns
        assert costs.comm_service_ns(100) > costs.comm_msg_ns

    def test_nonsmp_services(self, costs):
        assert costs.nonsmp_send_service_ns(0) == costs.nonsmp_send_ns
        assert costs.nonsmp_recv_service_ns(0) == costs.nonsmp_recv_ns

    def test_pp_insert_grows_with_contention(self, costs):
        c1 = costs.pp_insert_ns(1)
        c8 = costs.pp_insert_ns(8)
        assert c1 == pytest.approx(costs.item_insert_ns + costs.atomic_ns)
        assert c8 > c1

    def test_pp_insert_floor_at_one_worker(self, costs):
        assert costs.pp_insert_ns(0) == costs.pp_insert_ns(1)

    def test_group_cost_is_g_plus_t(self, costs):
        assert costs.group_cost_ns(100, 8) == pytest.approx(
            costs.group_elem_ns * 108
        )

    def test_message_bytes_resized(self, costs):
        assert costs.message_bytes(0, 8) == costs.header_bytes
        assert costs.message_bytes(10, 8) == costs.header_bytes + 80


class TestCachePenalty:
    def test_within_cache_no_penalty(self, costs):
        assert costs.cache_penalty(0) == 1.0
        assert costs.cache_penalty(costs.cache_bytes_per_worker) == 1.0

    def test_grows_then_saturates(self, costs):
        cache = costs.cache_bytes_per_worker
        mid = costs.cache_penalty(1.5 * cache)
        assert 1.0 < mid < costs.cache_miss_factor
        assert costs.cache_penalty(100 * cache) == costs.cache_miss_factor

    def test_disabled_when_zero_cache(self):
        costs = CostModel(cache_bytes_per_worker=0.0)
        assert costs.cache_penalty(10**9) == 1.0


class TestValidationAndCopy:
    def test_negative_field_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(alpha_inter_ns=-1.0)

    def test_replace(self, costs):
        faster = costs.replace(comm_msg_ns=100.0)
        assert faster.comm_msg_ns == 100.0
        assert costs.comm_msg_ns != 100.0  # original untouched


class TestPresets:
    def test_delta_machine_layout(self):
        m = delta_machine(4)
        assert m.nodes == 4
        assert m.processes_per_node == 8
        assert m.workers_per_process == 8
        assert m.smp

    def test_nonsmp_machine(self):
        m = nonsmp_machine(2, ranks_per_node=64)
        assert not m.smp
        assert m.workers_per_node == 64
        assert m.workers_per_process == 1
