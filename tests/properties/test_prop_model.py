"""Property-based tests for the analytic models and topology maps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    aggregated_send_cost_ns,
    buffer_bytes_per_core,
    buffer_bytes_per_process,
    direct_send_cost_ns,
    expected_fill_latency_ns,
    message_bounds_per_source,
)
from repro.machine import CostModel, MachineConfig

machines = st.builds(
    MachineConfig,
    nodes=st.integers(1, 16),
    processes_per_node=st.integers(1, 8),
    workers_per_process=st.integers(1, 8),
)


class TestTopologyProperties:
    @given(machines, st.data())
    def test_worker_roundtrip(self, m, data):
        w = data.draw(st.integers(0, m.total_workers - 1))
        p = m.process_of_worker(w)
        r = m.local_rank_of_worker(w)
        assert p * m.workers_per_process + r == w
        assert w in m.workers_of_process(p)
        assert w in m.workers_of_node(m.node_of_worker(w))

    @given(machines)
    def test_partitions_cover_exactly(self, m):
        seen = []
        for p in range(m.total_processes):
            seen.extend(m.workers_of_process(p))
        assert seen == list(range(m.total_workers))
        seen_nodes = []
        for n in range(m.nodes):
            seen_nodes.extend(m.processes_of_node(n))
        assert seen_nodes == list(range(m.total_processes))

    @given(machines, st.data())
    def test_same_process_implies_same_node(self, m, data):
        a = data.draw(st.integers(0, m.total_workers - 1))
        b = data.draw(st.integers(0, m.total_workers - 1))
        if m.same_process(a, b):
            assert m.node_of_worker(a) == m.node_of_worker(b)


class TestAnalysisProperties:
    @given(st.integers(1, 10**6), st.integers(1, 4096), st.integers(1, 1024))
    @settings(max_examples=60)
    def test_aggregation_never_loses_on_alpha(self, z, g, b):
        """Aggregated send cost <= direct send cost whenever g >= 1 and
        the per-item payload is what travels (header amortized)."""
        direct = direct_send_cost_ns(z, b)
        agg = aggregated_send_cost_ns(z, g, b)
        assert agg <= direct + 1e-6

    @given(st.integers(1, 4096), st.integers(1, 64), st.integers(1, 64),
           st.integers(1, 64))
    def test_memory_hierarchy_invariant(self, g, m, n, t):
        """WW/core >= WPs/core >= PP/core for every configuration."""
        ww = buffer_bytes_per_core("WW", g, m, n, t)
        wps = buffer_bytes_per_core("WPs", g, m, n, t)
        pp = buffer_bytes_per_core("PP", g, m, n, t)
        assert ww >= wps >= pp
        assert buffer_bytes_per_process("WW", g, m, n, t) == t * ww

    @given(machines, st.integers(1, 10**6), st.integers(1, 4096))
    @settings(max_examples=60)
    def test_message_bound_ordering(self, machine, z, g):
        """Lower <= upper always; WW's flush slack >= WPs' >= stream
        limit."""
        lo_ww, hi_ww = message_bounds_per_source("WW", z, g, machine)
        lo_wps, hi_wps = message_bounds_per_source("WPs", z, g, machine)
        assert lo_ww <= hi_ww
        assert lo_ww == lo_wps
        assert hi_ww >= hi_wps

    @given(machines, st.integers(2, 4096), st.floats(1e-6, 1.0))
    @settings(max_examples=60)
    def test_fill_latency_scheme_ordering(self, machine, g, rate):
        ww = expected_fill_latency_ns("WW", g, rate, machine)
        wps = expected_fill_latency_ns("WPs", g, rate, machine)
        pp = expected_fill_latency_ns("PP", g, rate, machine)
        assert ww >= wps >= pp >= 0.0


class TestCostModelProperties:
    @given(st.floats(0, 1e9, allow_nan=False))
    def test_cache_penalty_bounded_monotone(self, footprint):
        costs = CostModel()
        p = costs.cache_penalty(footprint)
        assert 1.0 <= p <= costs.cache_miss_factor
        assert costs.cache_penalty(footprint * 2) >= p

    @given(st.integers(1, 128))
    def test_pp_insert_monotone_in_workers(self, t):
        costs = CostModel()
        assert costs.pp_insert_ns(t + 1) >= costs.pp_insert_ns(t)

    @given(st.integers(0, 10**7), st.integers(0, 10**7))
    def test_tx_occupancy_superadditive_split(self, a, b):
        """Splitting a payload into two messages never costs less on
        the NIC (per-message overhead)."""
        costs = CostModel()
        whole = costs.tx_occupancy_ns(a + b)
        split = costs.tx_occupancy_ns(a) + costs.tx_occupancy_ns(b)
        assert split >= whole
