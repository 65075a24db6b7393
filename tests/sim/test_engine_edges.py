"""Edge cases of the engine's run-control semantics."""

from dataclasses import asdict

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Engine
from repro.sim.queue import EventQueue


class StubSampler:
    """Boundary sampler on a 25 ns cadence that records, per boundary,
    its time and how many events had fired before it."""

    def __init__(self, fired):
        self.fired = fired
        self.next_due = 25.0
        self.boundaries = []

    def on_boundary(self, t):
        self.boundaries.append((t, len(self.fired)))
        self.next_due = (t // 25.0 + 1) * 25.0
        return self.next_due


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

    def test_sampler_and_same_time_timers_at_the_horizon(self):
        """Successive horizons fire the strictly-less-than boundary set,
        a boundary sampler is called before the first event at or past
        each boundary but never for an event the horizon defers, and
        same-time timers next to the horizon keep ``(time, seq)`` order."""
        eng = Engine()
        fired = []
        for t in (10.0, 50.0, 50.0, 90.0):
            eng.at(t, fired.append, t)
        eng.run(until=50.0)
        assert fired == [10.0]
        eng.run(until=90.0)
        assert fired == [10.0, 50.0, 50.0]

        eng = Engine()
        fired = []
        eng.sampler = StubSampler(fired)
        for t in (10.0, 25.0, 30.0, 49.0, 120.0, 130.0):
            eng.at(t, fired.append, t)
        eng.run(until=120.0)
        assert fired == [10.0, 25.0, 30.0, 49.0]
        assert eng.sampler.boundaries == [(25.0, 1)]
        eng.run()
        assert eng.sampler.boundaries == [(25.0, 1), (120.0, 4), (130.0, 5)]

        eng = Engine()
        fired = []
        eng.timer_at(40.0, fired.append, "w1")
        eng.at(40.0, fired.append, "h")
        eng.timer_at(40.0, fired.append, "w2")
        eng.timer_at(40.0, fired.append, "w3")
        late = [eng.timer_at(50.0, fired.append, f"x{i}") for i in range(3)]
        stats = eng.run(until=50.0)
        assert stats.horizon_reached and eng.now == 50.0
        assert eng.pending == 3
        eng.cancel(late[1])
        eng.run()
        assert fired == ["w1", "h", "w2", "w3", "x0", "x2"]

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
        timer already queued for ``now``. The run loop must still fire in
        ``(time, seq)`` order, whichever queue the events wait in.
        (Regression: the fast loop once fired same-time timers as a
        batch and gave a, b, c.)"""
        orders = []
        for use_timer in (True, False):
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
            eng.run()
            orders.append(order)
        assert orders == [["a", "c", "b"]] * 2


class TestTimerQueueCompaction:
    """More than ``compact_min`` cancelled timers, interleaved with
    main-queue events and horizons: the timer heap is rebuilt in place
    under the engine's alias while the run loop keeps merging it."""

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
        raw = len(eng._theap)
        cancel(timer_tags[::2])
        assert len(cancelled) > EventQueue().compact_min
        assert len(eng._theap) < raw  # compaction ran
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
        raw = len(eng._theap)
        cancel(range(1500, 2100))
        assert len(eng._theap) < raw
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
        # A bound far above the event count must not change the stream.
        assert self._churn({}) == self._churn({"max_events": 10_000})


class TestMaxEvents:
    """``run(max_events=N)`` is a bound on the one run loop: it raises
    exactly when an (N+1)th event would fire before ``until``, and a
    bound the run never needs changes nothing."""

    @staticmethod
    def _scenario(bounds):
        """Main-queue, no-handle and timer events on a two-owner engine
        with a cancelled handle, a boundary sampler and three run()
        windows; ``bounds[k]`` is window k's ``max_events``."""
        eng = Engine()
        eng.configure_owners(2)
        fired = []
        eng.sampler = StubSampler(fired)

        def chain(tag, n):
            fired.append((eng.now, tag))
            if n:
                eng.current_owner = n % 2
                eng.call_after(15.0, chain, (tag, n - 1))

        for i, t in enumerate((10.0, 50.0, 50.0, 90.0, 130.0)):
            eng.current_owner = i % 2
            eng.timer_at(t, fired.append, (t, f"w{i}"))
            eng.at(t, chain, f"c{i}", 2)
        eng.cancel(eng.timer_at(120.0, fired.append, (120.0, "dead")))
        eng.current_owner = 0
        runs = []
        for until, bound in zip((45.0, 100.0, None), bounds):
            stats = eng.run(until=until, max_events=bound)
            runs.append((asdict(stats), eng.now))
        return fired, runs, eng.sampler.boundaries

    def _counts(self):
        _, runs, _ = self._scenario((None, None, None))
        return [stats["events_fired"] for stats, _ in runs]

    def test_bound_at_or_above_event_count_changes_nothing(self):
        unbounded = self._scenario((None, None, None))
        counts = self._counts()
        assert all(counts) and unbounded[1][0][0]["horizon_reached"]
        for extra in (0, 1, 1000):
            bounds = tuple(n + extra for n in counts)
            assert self._scenario(bounds) == unbounded

    def test_raises_when_one_more_event_would_fire_before_until(self):
        counts = self._counts()
        for k, n in enumerate(counts):
            bounds = [None, None, None]
            bounds[k] = n - 1
            with pytest.raises(SimulationError, match=f"max_events={n - 1}"):
                self._scenario(bounds)

    def test_event_at_horizon_does_not_count(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.timer_at(50.0, lambda: None)
        stats = eng.run(until=50.0, max_events=1)
        assert stats.horizon_reached and stats.events_fired == 1
        assert eng.now == 50.0 and eng.pending == 1
        with pytest.raises(SimulationError, match="max_events=0"):
            eng.run(max_events=0)
        assert eng.pending == 1  # the event that would exceed stays queued

    def test_cancelled_event_after_the_bound_does_not_count(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.cancel(eng.after(20.0, lambda: None))
        eng.cancel(eng.timer_after(30.0, lambda: None))
        stats = eng.run(max_events=1)
        assert stats.events_fired == 1 and not stats.horizon_reached
        assert eng.now == 10.0
        assert Engine().run(max_events=0).events_fired == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(SimulationError, match="max_events"):
            Engine().run(max_events=-1)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteTimes:
    """A NaN or infinite time or delay is refused where it is scheduled:
    queued, a NaN would fire and set ``now`` to NaN, and an infinite
    time would sit past every horizon."""

    @pytest.mark.parametrize("method", ["at", "timer_at"])
    @pytest.mark.parametrize("time", NON_FINITE)
    def test_absolute_time_refused(self, method, time):
        eng = Engine(now=5.0)
        with pytest.raises(SchedulingError):
            getattr(eng, method)(time, lambda: None)
        assert eng.pending == 0
        assert eng.run().events_fired == 0 and eng.now == 5.0

    @pytest.mark.parametrize("method", ["after", "timer_after"])
    @pytest.mark.parametrize("delay", NON_FINITE)
    def test_delay_refused(self, method, delay):
        eng = Engine(now=5.0)
        with pytest.raises(SchedulingError):
            getattr(eng, method)(delay, lambda: None)
        assert eng.pending == 0
        assert eng.run().events_fired == 0 and eng.now == 5.0

    def test_finite_edges_still_accepted(self):
        eng = Engine(now=5.0)
        fired = []
        eng.at(5.0, fired.append, "at now")
        eng.timer_at(5.0, fired.append, "timer now")
        eng.after(0.0, fired.append, "after 0")
        eng.timer_after(1e300, fired.append, "timer far")
        eng.run()
        assert fired == ["at now", "timer now", "after 0", "timer far"]
        assert eng.now == 5.0 + 1e300

    def test_unbounded_run_leaves_the_clock_at_its_last_event(self):
        """``call_at`` stays unchecked, so an event at t=inf can still be
        queued; a run without ``until`` then stops before it without
        parking the clock at a horizon it does not have."""
        eng = Engine()
        fired = []
        eng.call_at(3.0, fired.append, (3.0,))
        eng.call_at(float("inf"), fired.append, ("never",))
        stats = eng.run()
        assert fired == [3.0]
        assert eng.now == stats.end_time == stats.last_event_time == 3.0
        assert eng.pending == 1
