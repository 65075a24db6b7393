"""Unit tests for the DES engine."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine
from repro.sim.event import EV_STATE, ST_CONSUMED


class TestScheduling:
    def test_after_advances_clock(self):
        eng = Engine()
        fired = []
        eng.after(100.0, fired.append, 1)
        stats = eng.run()
        assert fired == [1]
        assert eng.now == 100.0
        assert stats.events_fired == 1
        assert stats.end_time == 100.0

    def test_at_absolute_time(self):
        eng = Engine()
        seen = []
        eng.at(50.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [50.0]

    def test_past_scheduling_rejected(self):
        eng = Engine()
        eng.after(10.0, lambda: None)
        eng.run()
        with pytest.raises(SchedulingError):
            eng.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Engine().after(-1.0, lambda: None)

    def test_fifo_among_simultaneous_events(self):
        eng = Engine()
        order = []
        for i in range(5):
            eng.at(1.0, order.append, i)
        eng.run()
        assert order == [0, 1, 2, 3, 4]

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.at(30.0, order.append, "c")
        eng.at(10.0, order.append, "a")
        eng.at(20.0, order.append, "b")
        eng.run()
        assert order == ["a", "b", "c"]

    def test_handler_can_schedule_more(self):
        eng = Engine()
        seen = []

        def chain(n):
            seen.append((eng.now, n))
            if n > 0:
                eng.after(10.0, chain, n - 1)

        eng.after(0.0, chain, 3)
        eng.run()
        assert seen == [(0.0, 3), (10.0, 2), (20.0, 1), (30.0, 0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        handle = eng.after(10.0, fired.append, "x")
        eng.cancel(handle)
        eng.run()
        assert fired == []
        assert eng.pending == 0

    def test_double_cancel_is_safe(self):
        eng = Engine()
        handle = eng.after(10.0, lambda: None)
        eng.cancel(handle)
        eng.cancel(handle)
        assert eng.pending == 0


class TestRunControl:
    def test_until_horizon_preserves_future_events(self):
        eng = Engine()
        fired = []
        eng.after(10.0, fired.append, "early")
        eng.after(100.0, fired.append, "late")
        stats = eng.run(until=50.0)
        assert fired == ["early"]
        assert stats.horizon_reached
        assert eng.now == 50.0
        assert eng.pending == 1
        eng.run()
        assert fired == ["early", "late"]

    def test_max_events_guard(self):
        eng = Engine()

        def loop():
            eng.after(1.0, loop)

        eng.after(0.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=100)

    def test_run_not_reentrant(self):
        eng = Engine()
        err = {}

        def reenter():
            try:
                eng.run()
            except SimulationError as exc:
                err["e"] = exc

        eng.after(0.0, reenter)
        eng.run()
        assert "e" in err

    def test_reset(self):
        eng = Engine()
        eng.after(5.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert eng.pending == 0

    def test_empty_run(self):
        stats = Engine().run()
        assert stats.events_fired == 0
        assert stats.end_time == 0.0


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build():
            eng = Engine()
            fired = []
            for i in range(20):
                eng.at(float(i % 7), lambda i=i: fired.append((eng.now, i)))
            eng.run()
            return fired

        trace = build()
        assert trace == build()
        # Time order, and same-time events in arm order.
        assert trace == sorted((float(i % 7), i) for i in range(20))


class TestTimerQueueMerge:
    def test_merge_preserves_time_seq_order_across_sources(self):
        eng = Engine()
        order = []
        eng.at(10.0, order.append, "h1")        # seq 0
        eng.timer_at(10.0, order.append, "t1")  # seq 1: tie broken by seq
        eng.at(10.0, order.append, "h2")        # seq 2
        eng.timer_at(5.0, order.append, "t0")   # seq 3: earliest time
        eng.run()
        assert order == ["t0", "h1", "t1", "h2"]

    def test_timer_validation_matches_at(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.run()
        with pytest.raises(SchedulingError):
            eng.timer_at(5.0, lambda: None)
        with pytest.raises(SchedulingError):
            eng.timer_after(-1.0, lambda: None)

    def test_timer_cancel_via_engine(self):
        eng = Engine()
        fired = []
        h = eng.timer_after(10.0, fired.append, "x")
        eng.timer_after(20.0, fired.append, "y")
        eng.cancel(h)
        eng.cancel(h)  # double cancel safe
        eng.run()
        assert fired == ["y"]
        assert eng.pending == 0

    def test_timer_deferred_past_horizon_keeps_handle(self):
        eng = Engine()
        fired = []
        h = eng.timer_at(100.0, fired.append, "x")
        stats = eng.run(until=50.0)
        assert stats.horizon_reached
        assert eng.pending == 1
        eng.cancel(h)
        eng.run()
        assert fired == []

    def test_pending_and_peek_time_span_both_queues(self):
        eng = Engine()
        eng.at(30.0, lambda: None)
        eng.timer_at(20.0, lambda: None)
        assert eng.pending == 2
        assert eng.peek_time() == 20.0


class TestNoHandleTier:
    def test_call_events_share_the_main_queue_order(self):
        """``call_*`` events take seqs from the same counter as ``at`` and
        fire in ``(time, seq)`` order beside handle-bearing events."""
        eng = Engine()
        order = []
        eng.call_after(1.0, order.append, ("c0",))
        h = eng.at(1.0, order.append, "h")
        eng.call_at(1.0, order.append, ("c1",))
        eng.timer_at(1.0, order.append, "t")
        eng.call_at(0.5, order.append, ("c2",))
        assert eng.pending == 5
        eng.run()
        assert order == ["c2", "c0", "h", "c1", "t"]
        assert h[EV_STATE] == ST_CONSUMED

    def test_cancelled_handle_stays_dead_beside_call_events(self):
        eng = Engine()
        fired = []
        h = eng.at(5.0, fired.append, "cancelled")
        eng.cancel(h)
        for i in range(10):
            eng.call_after(float(i), fired.append, (i,))
        eng.run()
        assert fired == list(range(10))
        # Stale cancel of the long-dead handle is still a safe noop.
        eng.cancel(h)
        eng.call_after(1.0, fired.append, ("tail",))
        eng.run()
        assert fired[-1] == "tail"
        assert eng.now == 10.0
