"""Property-based tests for buffers and the proportional split."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tram.buffer import (
    CountBuffer,
    ItemBuffer,
    proportional_take,
    split_sources,
)
from repro.tram.item import Item


def numpy_take(arr, k: int, total: int) -> np.ndarray:
    """The earlier numpy largest-remainder split, kept as the reference
    the integer :func:`proportional_take` must reproduce exactly."""
    arr = np.asarray(arr, dtype=np.int64)
    if k == total:
        return arr.copy()
    prod = arr * k
    take = prod // total
    deficit = int(k - take.sum())
    if deficit:
        rem = prod - take * total
        order = np.argsort(-rem, kind="stable")[:deficit]
        take[order] += 1
    return take


count_lists = st.lists(st.integers(0, 1000), min_size=1, max_size=32).filter(
    lambda a: sum(a) > 0
)

#: Slot vectors of length 1-64: free counts, a few small values (many
#: equal remainders), and one repeated value (every remainder tied).
slot_vectors = st.one_of(
    st.lists(st.integers(0, 1000), min_size=1, max_size=64),
    st.lists(st.sampled_from([0, 1, 2, 3, 7]), min_size=1, max_size=64),
    st.builds(lambda c, n: [c] * n, st.integers(1, 50), st.integers(1, 64)),
).filter(lambda a: sum(a) > 0)


class TestProportionalTakeProperties:
    @given(count_lists, st.data())
    def test_take_invariants(self, arr, data):
        total = sum(arr)
        k = data.draw(st.integers(1, total))
        take = proportional_take(arr, k, total)
        assert sum(take) == k
        assert all(0 <= t <= a for t, a in zip(take, arr))

    @given(count_lists)
    def test_repeated_takes_drain_exactly(self, arr):
        """Carving g-chunks until empty conserves every slot's count."""
        total = sum(arr)
        remaining = list(arr)
        g = max(1, total // 7)
        taken = [0] * len(arr)
        left = total
        while left > 0:
            k = min(g, left)
            part = proportional_take(remaining, k, left)
            remaining = [r - p for r, p in zip(remaining, part)]
            taken = [t + p for t, p in zip(taken, part)]
            left -= k
        assert taken == arr
        assert remaining == [0] * len(arr)

    @given(slot_vectors, st.data())
    @settings(max_examples=300)
    def test_equals_numpy_reference(self, arr, data):
        """Same split as the numpy version, ties to the lowest slot."""
        total = sum(arr)
        k = data.draw(st.one_of(st.just(total), st.integers(1, total)))
        assert proportional_take(arr, k, total) == numpy_take(arr, k, total).tolist()

    @given(slot_vectors, st.data())
    @settings(max_examples=100)
    def test_split_sources_equals_sequential_reference(self, src, data):
        """The shared splitter equals sequential numpy takes, each from
        what the sections before it left."""
        total = sum(src)
        cuts = set()
        if total > 1:
            cuts = data.draw(st.sets(st.integers(1, total - 1), max_size=8))
        bounds = [0, *sorted(cuts), total]
        sections = [b - a for a, b in zip(bounds, bounds[1:])]
        shares = split_sources(np.array(src, dtype=np.int64), sections, total)
        remaining, left = np.array(src, dtype=np.int64), total
        for n, share in zip(sections, shares):
            expected = numpy_take(remaining, n, left)
            assert share.dtype == np.int64
            assert share.tolist() == expected.tolist()
            remaining, left = remaining - expected, left - n


class TestCountBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.floats(0, 1e6, allow_nan=False)),
            min_size=1,
            max_size=30,
        ),
        st.integers(1, 64),
    )
    @settings(max_examples=50)
    def test_chunked_drain_conserves_count_and_tsum(self, adds, g):
        buf = CountBuffer(10**9)
        total = 0
        t_sum = 0.0
        for n, t in adds:
            buf.add_counts(n, now=t)
            total += n
            t_sum += n * t
        drained = 0
        drained_tsum = 0.0
        while not buf.empty:
            batch = buf.take(min(g, buf.count))
            drained += batch.count
            drained_tsum += batch.t_sum
        assert drained == total
        np.testing.assert_allclose(drained_tsum, t_sum, rtol=1e-9)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=300))
    def test_item_buffer_fifo(self, dsts):
        buf = ItemBuffer(10**9)
        for i, d in enumerate(dsts):
            buf.add(Item(d, 0, float(i)))
        out = buf.drain()
        assert [it.dst for it in out] == dsts
