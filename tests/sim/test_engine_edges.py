"""Edge cases of the engine's run-control semantics."""

import pytest

from repro.sim.engine import Engine


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
        same times, and fire a same-timestamp wheel cohort next to the
        horizon in the same order."""
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

    def test_wheel_event_at_horizon_deferred(self):
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
