"""Unit tests for the event queue (ordering, lazy deletion, compaction).

The engine pushes onto and pops from a queue's heap list directly and
leaves dead heads to :meth:`EventQueue.peek`; ``push`` and ``pop`` below
do the same.
"""

from heapq import heappop, heappush

from repro.sim.event import EV_SEQ, EV_STATE, EV_TIME, ST_PENDING
from repro.sim.queue import EventQueue


def ev(time, seq):
    return [time, seq, ST_PENDING, lambda: None, ()]


def push(q, event):
    heappush(q._heap, event)


def pop(q):
    """The earliest live event, removed; ``None`` when none is left."""
    event = q.peek()
    if event is not None:
        heappop(q._heap)
    return event


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            push(q, ev(t, int(t)))
        times = [pop(q)[EV_TIME] for _ in range(5)]
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ties_broken_by_seq_fifo(self):
        q = EventQueue()
        for seq in (0, 1, 2):
            push(q, ev(7.0, seq))
        seqs = [pop(q)[EV_SEQ] for _ in range(3)]
        assert seqs == [0, 1, 2]

    def test_pop_empty_returns_none(self):
        assert pop(EventQueue()) is None

    def test_peek_returns_earliest_time_without_removing(self):
        q = EventQueue()
        push(q, ev(9.0, 0))
        push(q, ev(2.0, 1))
        assert q.peek_time() == 2.0
        assert len(q) == 2

    def test_peek_empty_returns_none(self):
        assert EventQueue().peek_time() is None


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        first = ev(1.0, 0)
        push(q, first)
        push(q, ev(2.0, 1))
        assert q.cancel(first)
        popped = pop(q)
        assert popped[EV_TIME] == 2.0

    def test_live_count_tracks_cancellation(self):
        q = EventQueue()
        a, b = ev(1.0, 0), ev(2.0, 1)
        push(q, a)
        push(q, b)
        assert q.live_count == 2
        q.cancel(a)
        assert q.live_count == 1
        assert bool(q)

    def test_double_cancel_reports_false(self):
        q = EventQueue()
        a = ev(1.0, 0)
        push(q, a)
        assert q.cancel(a)
        assert not q.cancel(a)
        assert q.live_count == 0

    def test_peek_discards_dead_heads(self):
        q = EventQueue()
        a = ev(1.0, 0)
        push(q, a)
        push(q, ev(5.0, 1))
        q.cancel(a)
        assert q.peek_time() == 5.0

    def test_compact_drops_corpses(self):
        q = EventQueue()
        events = [ev(float(i), i) for i in range(10)]
        for e in events:
            push(q, e)
        for e in events[:5]:
            q.cancel(e)
        assert len(q._heap) == 10
        q.compact()
        assert len(q._heap) == 5
        assert q.live_count == 5
        assert pop(q)[EV_TIME] == 5.0

    def test_all_cancelled_means_empty(self):
        q = EventQueue()
        a = ev(1.0, 0)
        push(q, a)
        q.cancel(a)
        assert not q
        assert pop(q) is None


class TestAutoCompaction:
    def test_triggers_once_corpses_reach_half(self):
        q = EventQueue(compact_min=16)
        events = [ev(float(i), i) for i in range(32)]
        for e in events:
            push(q, e)
        # Cancel 15: below compact_min, no rebuild yet.
        for e in events[:15]:
            q.cancel(e)
        assert len(q._heap) == 32
        # The 16th cancel reaches compact_min AND half the heap.
        q.cancel(events[15])
        assert len(q._heap) == 16
        assert q.live_count == 16
        assert pop(q)[EV_TIME] == 16.0

    def test_respects_compact_min_floor(self):
        q = EventQueue(compact_min=256)
        events = [ev(float(i), i) for i in range(10)]
        for e in events:
            push(q, e)
        for e in events:
            q.cancel(e)
        # All corpses, but far below the floor: no rebuild.
        assert len(q._heap) == 10
        assert q.live_count == 0

    def test_order_preserved_across_auto_compaction(self):
        q = EventQueue(compact_min=8)
        events = [ev(float(i % 5), i) for i in range(64)]
        for e in events:
            push(q, e)
        cancelled = set(range(0, 64, 2))
        for i in cancelled:
            q.cancel(events[i])
        expected = sorted(
            (e[EV_TIME], e[EV_SEQ]) for i, e in enumerate(events)
            if i not in cancelled
        )
        popped = []
        while q:
            e = pop(q)
            popped.append((e[EV_TIME], e[EV_SEQ]))
        assert popped == expected


class TestEventRepresentation:
    def test_lt_uses_time_then_seq(self):
        assert ev(1.0, 5) < ev(2.0, 0)
        assert ev(1.0, 0) < ev(1.0, 1)
        assert not (ev(2.0, 0) < ev(1.0, 9))

    def test_cancel_clears_state(self):
        q = EventQueue()
        e = ev(1.0, 0)
        push(q, e)
        assert e[EV_STATE]
        q.cancel(e)
        assert not e[EV_STATE]
