"""Unit tests for RuntimeSystem wiring and QDCounter."""

import pytest

from repro.errors import ConfigError, QuiescenceError
from repro.runtime.quiescence import QDCounter


class TestRuntimeSystem:
    def test_component_counts(self, tiny_rt):
        assert len(tiny_rt.workers) == 8
        assert len(tiny_rt.processes) == 4
        assert len(tiny_rt.nodes) == 2

    def test_commthreads_wired_in_smp(self, tiny_rt):
        for proc in tiny_rt.processes:
            assert proc.commthread is not None
            assert proc.commthread.on_outbound_done is not None

    def test_nic_sinks_installed(self, tiny_rt):
        for node in tiny_rt.nodes:
            assert node.nic.sink is not None

    def test_duplicate_handler_rejected(self, tiny_rt):
        tiny_rt.register_handler("k", lambda ctx, m: None)
        with pytest.raises(ConfigError):
            tiny_rt.register_handler("k", lambda ctx, m: None)
        tiny_rt.register_handler("k", lambda ctx, m: None, overwrite=True)

    def test_post_with_delay(self, tiny_rt):
        seen = []
        tiny_rt.post(0, lambda ctx: seen.append(ctx.now), delay=250.0)
        tiny_rt.run()
        assert seen == [250.0]

    def test_now_property(self, tiny_rt):
        assert tiny_rt.now == 0.0
        tiny_rt.post(0, lambda ctx: ctx.charge(10.0))
        tiny_rt.run()
        assert tiny_rt.now == 10.0

    def test_process_helpers(self, tiny_rt):
        proc = tiny_rt.process(1)
        assert proc.node_id == 0
        assert list(proc.workers) == [2, 3]
        assert proc.all_workers_idle()

    def test_node_helpers(self, tiny_rt):
        node = tiny_rt.node(1)
        assert list(node.processes) == [2, 3]
        assert list(node.workers) == [4, 5, 6, 7]


class TestQDCounter:
    def test_balanced_lifecycle(self):
        qd = QDCounter()
        qd.produce(5)
        qd.consume(3)
        assert not qd.balanced
        assert qd.outstanding == 2
        qd.consume(2)
        assert qd.balanced
        qd.require_balanced()

    def test_overconsumption_raises_immediately(self):
        qd = QDCounter()
        qd.produce(1)
        with pytest.raises(QuiescenceError, match="duplicate"):
            qd.consume(2)

    def test_require_balanced_raises_when_outstanding(self):
        qd = QDCounter()
        qd.produce(3)
        with pytest.raises(QuiescenceError, match="undelivered"):
            qd.require_balanced()

    def test_negative_amounts_rejected(self):
        qd = QDCounter()
        with pytest.raises(QuiescenceError):
            qd.produce(-1)
        with pytest.raises(QuiescenceError):
            qd.consume(-1)

    def test_require_balanced_reports_loss(self):
        qd = QDCounter()
        qd.produce(5)
        qd.consume(3)
        with pytest.raises(
            QuiescenceError, match=r"2 undelivered item\(s\) \(3 consumed / 5"
        ):
            qd.require_balanced()
        qd.consume(2)
        qd.require_balanced()  # no raise


class TestReceiverPolicy:
    def test_fixed_policy_pins_first_pe(self, tiny_rt):
        proc = tiny_rt.process(1)
        proc.receiver_policy = "fixed"
        assert [proc.next_receiver() for _ in range(4)] == [2, 2, 2, 2]

    def test_round_robin_cycles(self, tiny_rt):
        proc = tiny_rt.process(1)
        assert [proc.next_receiver() for _ in range(4)] == [2, 3, 2, 3]
