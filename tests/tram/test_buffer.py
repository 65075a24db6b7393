"""Unit tests for aggregation buffers and the proportional split."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.tram.buffer import (
    CountBuffer,
    ItemBuffer,
    proportional_take,
    split_sources,
)
from repro.tram.item import Item


def item(dst=0, src=1, t=0.0):
    return Item(dst, src, t, None, None)


class TestProportionalTake:
    def test_exact_fractions(self):
        assert proportional_take([10, 20, 30], 30, 60) == [5, 10, 15]

    def test_sum_invariant_with_remainders(self):
        arr = [7, 11, 3, 19]
        take = proportional_take(arr, 13, sum(arr))
        assert sum(take) == 13
        assert all(0 <= t <= a for t, a in zip(take, arr))

    def test_take_all(self):
        assert proportional_take([4, 0, 6], 10, 10) == [4, 0, 6]

    def test_take_more_than_total_rejected(self):
        with pytest.raises(SimulationError):
            proportional_take([1, 2], 5, 3)

    def test_deterministic(self):
        assert proportional_take([5, 5, 5], 7, 15) == proportional_take(
            [5, 5, 5], 7, 15
        )

    def test_tied_remainders_go_to_lowest_slot(self):
        assert proportional_take([5, 5, 5], 7, 15) == [3, 2, 2]
        assert proportional_take([1, 2, 1, 2], 3, 6) == [1, 1, 0, 1]

    def test_zero_slots_untouched(self):
        take = proportional_take([0, 10, 0, 10], 11, 20)
        assert take[0] == 0 and take[2] == 0
        assert sum(take) == 11


class TestSplitSources:
    def test_single_source_needs_no_split(self):
        shares = split_sources(np.array([9]), [2, 3, 4], 9)
        assert [s.tolist() for s in shares] == [[2], [3], [4]]
        assert all(s.dtype == np.int64 for s in shares)

    def test_sections_take_from_what_is_left(self):
        shares = split_sources(np.array([3, 3]), [3, 3], 6)
        # The first section's tie goes to source 0, so the second
        # section gets the leftover of source 1.
        assert [s.tolist() for s in shares] == [[2, 1], [1, 2]]


class TestItemBuffer:
    def test_add_reports_full(self):
        buf = ItemBuffer(3)
        assert not buf.add(item())
        assert not buf.add(item())
        assert buf.add(item())
        assert buf.count == 3

    def test_drain_all(self):
        buf = ItemBuffer(4)
        items = [item(dst=i) for i in range(3)]
        for it in items:
            buf.add(it)
        out = buf.drain()
        assert out == items
        assert buf.empty

    def test_drain_partial_keeps_order(self):
        buf = ItemBuffer(10)
        for i in range(5):
            buf.add(item(dst=i))
        out = buf.drain(2)
        assert [it.dst for it in out] == [0, 1]
        assert [it.dst for it in buf.drain()] == [2, 3, 4]


class TestCountBuffer:
    def test_plain_counting(self):
        buf = CountBuffer(8)
        buf.add_counts(3, now=10.0)
        buf.add_counts(5, now=20.0)
        assert buf.count == 8
        assert buf.t_sum == pytest.approx(3 * 10.0 + 5 * 20.0)
        assert buf.t_min == 10.0

    def test_take_splits_moments(self):
        buf = CountBuffer(100)
        buf.add_counts(10, now=10.0)
        batch = buf.take(4)
        assert batch.count == 4
        assert batch.t_sum == pytest.approx(40.0)
        assert buf.count == 6
        assert buf.t_sum == pytest.approx(60.0)

    def test_take_all_resets(self):
        buf = CountBuffer(10)
        buf.add_counts(7, now=1.0)
        batch = buf.take(buf.count)
        assert batch.count == 7
        assert buf.empty
        assert buf.t_sum == 0.0
        assert buf.t_min == float("inf")

    def test_destination_slots(self):
        dst_ids = np.array([4, 5, 6, 7])
        buf = CountBuffer(100, dst_ids=dst_ids)
        buf.add_counts(6, now=0.0, dst_slot_counts=np.array([1, 2, 3, 0]))
        buf.add_counts(4, now=0.0, dst_slot_counts=np.array([0, 0, 0, 4]))
        batch = buf.take(5)
        assert batch.dst_counts.sum() == 5
        assert (batch.dst_counts <= np.array([1, 2, 3, 4])).all()
        assert list(batch.dst_ids) == [4, 5, 6, 7]
        assert buf.dst_counts.sum() == 5

    def test_source_slots(self):
        src_ids = np.array([0, 1])
        buf = CountBuffer(100, src_ids=src_ids)
        buf.add_counts(4, now=0.0, src_slot=0)
        buf.add_counts(6, now=0.0, src_slot=1)
        batch = buf.take(5)
        assert batch.src_counts.sum() == 5

    def test_missing_slot_info_rejected(self):
        buf = CountBuffer(10, dst_ids=np.array([0, 1]))
        with pytest.raises(SimulationError):
            buf.add_counts(1, now=0.0)
        buf2 = CountBuffer(10, src_ids=np.array([0, 1]))
        with pytest.raises(SimulationError):
            buf2.add_counts(1, now=0.0)

    def test_invalid_amounts_rejected(self):
        buf = CountBuffer(10)
        with pytest.raises(SimulationError):
            buf.add_counts(0, now=0.0)
        buf.add_counts(2, now=0.0)
        with pytest.raises(SimulationError):
            buf.take(3)
        with pytest.raises(SimulationError):
            buf.take(0)
