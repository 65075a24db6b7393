"""Edge cases of the engine's run-control semantics."""

import pytest

from repro.sim.engine import Engine
from repro.sim.queue import EventQueue


class TestHorizonBoundaries:
    def test_event_exactly_at_horizon_deferred(self):
        """An event AT the horizon belongs to the next window.

        ``run(until=h)`` fires strictly-less-than ``h``: successive
        horizons ``h1 < h2 < ...`` fire every event exactly once, in the
        window ``[h_{k-1}, h_k)`` containing it. (Regression: the general
        and sampled loops used to disagree on this boundary.)
        """
        eng = Engine()
        fired = []
        eng.at(50.0, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.now == 50.0
        eng.run(until=50.0 + 1e-9)
        assert fired == ["x"]

    def test_event_just_after_horizon_deferred(self):
        eng = Engine()
        fired = []
        eng.at(50.0 + 1e-9, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.pending == 1

    def test_boundary_agrees_between_general_and_window_loops(self):
        """The fast loop and the general (max_events) loop fire the same
        strictly-less-than boundary set, call a boundary sampler at the
        same times, and fire same-timestamp timers next to the horizon
        in the same order."""
        for kwargs in ({}, {"max_events": 100}):
            eng = Engine()
            fired = []
            for t in (10.0, 50.0, 50.0, 90.0):
                eng.at(t, fired.append, t)
            eng.run(until=50.0, **kwargs)
            assert fired == [10.0]
            eng.run(until=90.0, **kwargs)
            assert fired == [10.0, 50.0, 50.0]
            eng.run(**kwargs)
            assert fired == [10.0, 50.0, 50.0, 90.0]

        class StubSampler:
            def __init__(self):
                self.next_due = 25.0
                self.boundaries = []

            def on_boundary(self, t):
                self.boundaries.append((t, len(fired)))
                self.next_due = (t // 25.0 + 1) * 25.0
                return self.next_due

        seen = []
        for kwargs in ({}, {"max_events": 100}):
            eng = Engine()
            eng.sampler = StubSampler()
            fired = []
            for t in (10.0, 25.0, 30.0, 49.0, 120.0, 130.0):
                eng.at(t, fired.append, t)
            eng.run(until=120.0, **kwargs)
            assert fired == [10.0, 25.0, 30.0, 49.0]
            eng.run(**kwargs)
            seen.append(eng.sampler.boundaries)
        assert seen[0] == seen[1] == [(25.0, 1), (120.0, 4), (130.0, 5)]

        orders = []
        for kwargs in ({}, {"max_events": 100}):
            eng = Engine()
            fired = []
            eng.timer_at(40.0, fired.append, "w1")
            eng.at(40.0, fired.append, "h")
            eng.timer_at(40.0, fired.append, "w2")
            eng.timer_at(40.0, fired.append, "w3")
            late = [eng.timer_at(50.0, fired.append, f"x{i}") for i in range(3)]
            stats = eng.run(until=50.0, **kwargs)
            assert stats.horizon_reached and eng.now == 50.0
            assert eng.pending == 3
            eng.cancel(late[1])
            eng.run(**kwargs)
            orders.append(fired)
        assert orders[0] == orders[1] == ["w1", "h", "w2", "w3", "x0", "x2"]

    def test_timer_event_at_horizon_deferred(self):
        eng = Engine()
        fired = []
        eng.timer_at(50.0, fired.append, "x")
        stats = eng.run(until=50.0)
        assert fired == []
        assert stats.horizon_reached
        assert eng.pending == 1
        eng.run()
        assert fired == ["x"]

    def test_last_event_time_not_advanced_to_horizon(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.at(200.0, lambda: None)
        stats = eng.run(until=100.0)
        assert stats.last_event_time == 10.0
        assert stats.end_time == 100.0

    def test_successive_horizons(self):
        eng = Engine()
        fired = []
        for t in (10.0, 20.0, 30.0):
            eng.at(t, fired.append, t)
        eng.run(until=15.0)
        assert fired == [10.0]
        eng.run(until=25.0)
        assert fired == [10.0, 20.0]
        eng.run()
        assert fired == [10.0, 20.0, 30.0]

    def test_horizon_with_empty_queue(self):
        eng = Engine()
        stats = eng.run(until=100.0)
        assert stats.events_fired == 0
        # With nothing to do the clock does not jump to the horizon.
        assert eng.now == 0.0

    def test_clock_does_not_retreat_after_horizon(self):
        eng = Engine()
        eng.at(200.0, lambda: None)
        eng.run(until=100.0)
        assert eng.now == 100.0
        eng.run()
        assert eng.now == 200.0


class TestRequeuedEventIdentity:
    def test_deferred_event_not_duplicated(self):
        eng = Engine()
        count = [0]
        eng.at(100.0, lambda: count.__setitem__(0, count[0] + 1))
        eng.run(until=50.0)
        eng.run(until=75.0)
        eng.run()
        assert count[0] == 1

    def test_cancel_after_defer_still_works(self):
        """Handles survive horizon deferral: run() leaves an event
        beyond the horizon queued, so the handle still refers to the
        queued event and cancelling it really cancels it."""
        eng = Engine()
        fired = []
        handle = eng.at(100.0, fired.append, "x")
        eng.at(200.0, fired.append, "y")
        eng.run(until=50.0)
        eng.cancel(handle)
        assert eng.pending == 1
        eng.run()
        assert fired == ["y"]


class TestZeroDurationChains:
    def test_many_zero_delay_events_same_time(self):
        eng = Engine()
        order = []

        def chain(n):
            order.append(n)
            if n:
                eng.after(0.0, chain, n - 1)

        eng.after(0.0, chain, 100)
        eng.run(max_events=500)
        assert order == list(range(100, -1, -1))
        assert eng.now == 0.0


class TestOwnerSlotTieOrder:
    def test_callback_at_now_with_smaller_seq_fires_before_queued_timer(self):
        """Owner-slot seqs are not monotone in arm order: a callback can
        schedule an event at ``now`` whose seq is smaller than that of a
        timer already queued for ``now``. Every loop must still fire in
        ``(time, seq)`` order, whichever queue the events wait in.
        (Regression: the fast loop once fired same-time timers as a
        batch and gave a, b, c.)"""
        orders = []
        for use_timer in (True, False):
            for kwargs in ({}, {"max_events": 100}):
                eng = Engine()
                eng.configure_owners(2)
                arm = eng.timer_at if use_timer else eng.at
                order = []

                def a():
                    order.append("a")
                    eng.at(eng.now, order.append, "c")

                eng.current_owner = 0
                arm(10.0, a)
                eng.current_owner = 1
                for _ in range(5):
                    eng.at(1.0, lambda: None)
                arm(10.0, order.append, "b")
                eng.current_owner = 0
                eng.run(**kwargs)
                orders.append(order)
        assert orders == [["a", "c", "b"]] * 4


class TestTimerQueueCompaction:
    """More than ``compact_min`` cancelled timers, interleaved with
    main-queue events and horizons: the timer heap is rebuilt in place
    under the engine's alias while the run loops keep merging it."""

    @staticmethod
    def _churn(kwargs):
        eng = Engine()
        eng.configure_owners(3)
        handles = {}
        fired = []
        cancelled = set()

        def arm(tag, t, timer):
            eng.current_owner = tag % 3
            fn = eng.timer_at if timer else eng.at
            handles[tag] = fn(t, fired.append, tag)

        def cancel(tags):
            for tag in tags:
                eng.cancel(handles[tag])
                cancelled.add(tag)

        def live():
            done = cancelled.union(fired)
            return [tag for tag in handles if tag not in done]

        # 1000 timers and 500 main-queue events over t = 100..499.
        for tag in range(1500):
            arm(tag, float(100 + (tag * 37) % 400), timer=tag % 3 != 0)
        eng.current_owner = 0
        timer_tags = [tag for tag in handles if tag % 3]
        raw = eng._timers.raw_size
        cancel(timer_tags[::2])
        assert len(cancelled) > EventQueue().compact_min
        assert eng._timers.raw_size < raw  # compaction ran
        assert eng._theap is eng._timers._heap
        assert eng.pending == len(live())

        eng.run(until=300.0, **kwargs)
        assert eng.now == 300.0
        assert eng.pending == len(live())
        # The earliest survivor is the event the horizon deferred.
        deferred = min(live(), key=lambda tag: handles[tag][:2])
        assert deferred % 3 and handles[deferred][0] == 300.0

        # A second churn wave crosses the floor again with the deferred
        # timer back in the heap; then cancel the deferred timer.
        for tag in range(1500, 2100):
            arm(tag, float(300 + tag % 200), timer=True)
        eng.current_owner = 0
        raw = eng._timers.raw_size
        cancel(range(1500, 2100))
        assert eng._timers.raw_size < raw
        cancel([deferred])
        assert eng.pending == len(live())

        eng.run(until=400.0, **kwargs)
        assert eng.pending == len(live())
        eng.run(**kwargs)
        assert eng.pending == 0
        assert deferred not in fired
        survivors = [tag for tag in handles if tag not in cancelled]
        assert fired == sorted(survivors, key=lambda tag: handles[tag][:2])
        return fired

    def test_cancelled_timers_past_compaction_floor(self):
        assert self._churn({}) == self._churn({"max_events": 10_000})
