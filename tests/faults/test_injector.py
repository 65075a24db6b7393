"""Unit tests for the seeded FaultInjector dice."""

import numpy as np

from repro.faults import FOREVER, FaultPlan, FaultWindow
from repro.faults.injector import FaultInjector
from repro.network.message import NetMessage


def make_injector(plan, seed=0):
    return FaultInjector(plan=plan, rng=np.random.default_rng(seed))


def msg(count=5, seq=None):
    class Payload:
        pass

    p = Payload()
    p.count = count
    return NetMessage(
        kind="t", src_worker=0, dst_process=1, size_bytes=64, payload=p, seq=seq
    )


class TestWireOutcomes:
    def test_certain_drop_destroys_message(self):
        inj = make_injector(FaultPlan(drop=1.0))
        assert inj.wire_outcomes(msg(), dst_node=1, now=0.0) == []
        assert inj.stats.messages_dropped == 1
        assert inj.stats.messages_lost == 1
        assert inj.stats.items_lost == 5

    def test_protected_drop_is_not_counted_lost(self):
        # A message with a sequence number will be retransmitted; its
        # loss is the reliability layer's to account, not the fabric's.
        inj = make_injector(FaultPlan(drop=1.0))
        assert inj.wire_outcomes(msg(seq=7), dst_node=1, now=0.0) == []
        assert inj.stats.messages_dropped == 1
        assert inj.stats.messages_lost == 0
        assert inj.stats.items_lost == 0

    def test_certain_dup_yields_two_copies(self):
        inj = make_injector(FaultPlan(dup=1.0))
        m = msg()
        outcomes = inj.wire_outcomes(m, dst_node=1, now=0.0)
        assert len(outcomes) == 2
        (orig, d0), (copy, d1) = outcomes
        assert orig is m
        assert copy is not m
        assert copy.payload is m.payload
        assert (d0, d1) == (0.0, 0.0)
        assert inj.stats.messages_duplicated == 1

    def test_certain_corrupt_clears_checksum(self):
        inj = make_injector(FaultPlan(corrupt=1.0))
        m = msg()
        [(out, _)] = inj.wire_outcomes(m, dst_node=1, now=0.0)
        assert out is m
        assert not m.checksum_ok
        assert inj.stats.messages_corrupted == 1

    def test_certain_reorder_adds_bounded_delay(self):
        inj = make_injector(FaultPlan(reorder=1.0, reorder_max_ns=2_000.0))
        for _ in range(50):
            [(_, extra)] = inj.wire_outcomes(msg(), dst_node=1, now=0.0)
            assert 0.0 <= extra <= 2_000.0
        assert inj.stats.messages_reordered == 50

    def test_clean_plan_passes_message_through(self):
        inj = make_injector(FaultPlan(drop=0.0, dup=0.0))
        m = msg()
        assert inj.wire_outcomes(m, dst_node=1, now=0.0) == [(m, 0.0)]
        assert m.checksum_ok

    def test_unprotected_drops_count_their_items_lost(self):
        inj = make_injector(FaultPlan(drop=1.0))
        inj.wire_outcomes(msg(count=3), dst_node=1, now=0.0)
        # A tuple payload's ``count`` is a method: control traffic
        # carries no items.
        control = NetMessage(
            kind="t", src_worker=0, dst_process=1, size_bytes=64, payload=(1, 2)
        )
        inj.wire_outcomes(control, dst_node=1, now=0.0)
        assert inj.stats.messages_lost == 2
        assert inj.stats.items_lost == 3


class TestDiceIndependence:
    """Enabling one fault must not reshuffle another's placement."""

    def drops(self, plan, n=400, seed=42):
        inj = make_injector(plan, seed=seed)
        out = []
        for _ in range(n):
            out.append(inj.wire_outcomes(msg(), dst_node=1, now=0.0) == [])
        return out

    def test_drop_placement_invariant_under_dup_and_corrupt(self):
        baseline = self.drops(FaultPlan(drop=0.2))
        with_dup = self.drops(FaultPlan(drop=0.2, dup=0.5, corrupt=0.3))
        assert baseline == with_dup

    def test_same_seed_same_outcomes(self):
        plan = FaultPlan(drop=0.1, dup=0.1, corrupt=0.1, reorder=0.1)
        assert self.drops(plan, seed=7) == self.drops(plan, seed=7)


class TestWindows:
    def test_drop_window_raises_probability_while_active(self):
        plan = FaultPlan(
            windows=(FaultWindow(100.0, 200.0, "drop", magnitude=1.0),)
        )
        inj = make_injector(plan)
        assert inj.wire_outcomes(msg(), dst_node=1, now=50.0) != []
        assert inj.wire_outcomes(msg(), dst_node=1, now=150.0) == []
        assert inj.wire_outcomes(msg(), dst_node=1, now=250.0) != []

    def test_drop_window_scoped_to_destination_node(self):
        plan = FaultPlan(
            windows=(
                FaultWindow(0.0, FOREVER, "drop", target=2, magnitude=1.0),
            )
        )
        inj = make_injector(plan)
        assert inj.wire_outcomes(msg(), dst_node=2, now=0.0) == []
        assert inj.wire_outcomes(msg(), dst_node=1, now=0.0) != []

    def test_nic_degrade_multiplier(self):
        plan = FaultPlan(
            windows=(
                FaultWindow(0.0, 100.0, "nic_degrade", target=0, magnitude=4.0),
                FaultWindow(0.0, 100.0, "nic_degrade", target=None, magnitude=2.0),
            )
        )
        inj = make_injector(plan)
        assert inj.nic_occupancy_multiplier(0, 50.0) == 8.0  # both stack
        assert inj.nic_occupancy_multiplier(1, 50.0) == 2.0  # broadcast only
        assert inj.nic_occupancy_multiplier(0, 150.0) == 1.0  # expired

    def test_ct_stall_until(self):
        plan = FaultPlan(
            windows=(
                FaultWindow(100.0, 300.0, "ct_stall", target=1),
                FaultWindow(100.0, 500.0, "ct_stall", target=1),
            )
        )
        inj = make_injector(plan)
        assert inj.ct_stall_until(1, 200.0) == 500.0  # longest covering wins
        assert inj.ct_stall_until(0, 200.0) == 200.0  # other process untouched
        assert inj.ct_stall_until(1, 600.0) == 600.0  # after the windows
