"""Unit tests for the NIC server model."""

import pytest

from repro.errors import SimulationError
from repro.machine.costs import CostModel
from repro.network.message import NetMessage
from repro.network.nic import Nic
from repro.sim.engine import Engine


def make_pair(costs=None):
    engine = Engine()
    costs = costs or CostModel()
    src = Nic(engine=engine, costs=costs, node_id=0)
    dst = Nic(engine=engine, costs=costs, node_id=1)
    delivered = []
    dst.sink = lambda msg: delivered.append((engine.now, msg))
    return engine, costs, src, dst, delivered


def msg(size=100, mid=0):
    return NetMessage(
        kind="t", src_worker=0, dst_process=1, size_bytes=size, dst_worker=1
    )


class TestTransmission:
    def test_single_message_timing(self):
        engine, costs, src, dst, delivered = make_pair()
        m = msg(size=1000)
        engine.after(0.0, src.inject, m, dst, 500.0)
        engine.run()
        occupancy = costs.tx_occupancy_ns(1000)
        expected = occupancy + 500.0 + occupancy  # tx + wire + rx
        assert delivered[0][0] == pytest.approx(expected)

    def test_tx_serialization_queues_messages(self):
        engine, costs, src, dst, delivered = make_pair()
        for _ in range(3):
            engine.after(0.0, src.inject, msg(size=10_000), dst, 0.0)
        engine.run()
        occ = costs.tx_occupancy_ns(10_000)
        times = [t for t, _ in delivered]
        # Arrivals separated by one tx occupancy each (pipeline).
        assert times[1] - times[0] == pytest.approx(occ)
        assert times[2] - times[1] == pytest.approx(occ)
        assert src.stats.tx_queue_wait_ns > 0

    def test_rx_serialization(self):
        engine, costs, src1, dst, delivered = make_pair()
        src2 = Nic(engine=engine, costs=costs, node_id=2)
        engine.after(0.0, src1.inject, msg(size=10_000), dst, 0.0)
        engine.after(0.0, src2.inject, msg(size=10_000), dst, 0.0)
        engine.run()
        assert dst.stats.rx_queue_wait_ns > 0
        assert len(delivered) == 2

    def test_stats_counters(self):
        engine, costs, src, dst, delivered = make_pair()
        engine.after(0.0, src.inject, msg(size=256), dst, 100.0)
        engine.run()
        assert src.stats.tx_messages == 1
        assert src.stats.tx_bytes == 256
        assert dst.stats.rx_messages == 1
        assert dst.stats.rx_bytes == 256

    def test_missing_sink_raises(self):
        engine = Engine()
        nic = Nic(engine=engine, costs=CostModel(), node_id=0)
        engine.after(0.0, nic.receive, msg())
        with pytest.raises(SimulationError):
            engine.run()

    def test_backlog_properties(self):
        engine, costs, src, dst, _ = make_pair()
        engine.after(0.0, src.inject, msg(size=100_000), dst, 0.0)
        engine.after(0.0, src.inject, msg(size=100_000), dst, 0.0)

        def check():
            assert src.tx_backlog_ns > 0

        engine.after(1.0, check)
        engine.run()
        assert src.tx_backlog_ns == 0.0  # drained at the end


class TestAsymmetricRxCosts:
    def test_receive_uses_rx_occupancy(self):
        costs = CostModel().replace(rx_nic_msg_ns=5_000.0, rx_beta_ns_per_byte=1.0)
        engine, costs, src, dst, delivered = make_pair(costs)
        engine.after(0.0, src.inject, msg(size=1000), dst, 500.0)
        engine.run()
        expected = (
            costs.tx_occupancy_ns(1000) + 500.0 + costs.rx_occupancy_ns(1000)
        )
        assert delivered[0][0] == pytest.approx(expected)
        assert costs.rx_occupancy_ns(1000) != costs.tx_occupancy_ns(1000)

    def test_rx_defaults_mirror_tx(self):
        costs = CostModel()
        assert costs.rx_occupancy_ns(4096) == costs.tx_occupancy_ns(4096)


class TestBurstInjection:
    """Same-timestamp bursts: the virtual-clock FIFO must charge exact
    cumulative queue waits on both sides."""

    N = 5

    def test_tx_queue_wait_is_exact_for_same_time_burst(self):
        engine, costs, src, dst, delivered = make_pair()
        for _ in range(self.N):
            engine.after(0.0, src.inject, msg(size=10_000), dst, 0.0)
        engine.run()
        occ = costs.tx_occupancy_ns(10_000)
        # Message i waits i occupancies: 0 + 1 + ... + (N-1).
        expected = occ * self.N * (self.N - 1) / 2
        assert src.stats.tx_queue_wait_ns == pytest.approx(expected)
        assert len(delivered) == self.N

    def test_rx_queue_wait_is_exact_for_simultaneous_arrivals(self):
        # N sources inject at the same instant towards one destination:
        # tx sides are independent, so all copies hit rx simultaneously
        # and the rx server charges the same arithmetic-series wait.
        engine = Engine()
        costs = CostModel()
        dst = Nic(engine=engine, costs=costs, node_id=99)
        delivered = []
        dst.sink = lambda m: delivered.append(engine.now)
        for i in range(self.N):
            src = Nic(engine=engine, costs=costs, node_id=i)
            engine.after(0.0, src.inject, msg(size=10_000), dst, 0.0)
        engine.run()
        occ = costs.rx_occupancy_ns(10_000)
        expected = occ * self.N * (self.N - 1) / 2
        assert dst.stats.rx_queue_wait_ns == pytest.approx(expected)
        # Deliveries drain one rx occupancy apart.
        gaps = [b - a for a, b in zip(delivered, delivered[1:])]
        assert gaps == pytest.approx([occ] * (self.N - 1))

    def test_queue_wait_zero_when_spaced_out(self):
        engine, costs, src, dst, _ = make_pair()
        occ = costs.tx_occupancy_ns(1000)
        for i in range(3):
            # Inject strictly after the previous message finished tx.
            engine.after(i * (occ + 10.0), src.inject, msg(size=1000), dst, 0.0)
        engine.run()
        assert src.stats.tx_queue_wait_ns == 0.0
        assert dst.stats.rx_queue_wait_ns == 0.0
