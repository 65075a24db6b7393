"""Property-based tests for the DES substrate."""

from dataclasses import asdict
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.event import EV_SEQ, EV_TIME, ST_PENDING
from repro.sim.queue import EventQueue

times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                  allow_infinity=False)


def _event(t, seq):
    return [t, seq, ST_PENDING, lambda: None, ()]


def _drain(q):
    """Pop every live event the way the engine does: ``peek`` skims the
    dead head, ``heappop`` takes the live one."""
    popped = []
    while q:
        popped.append(q.peek())
        heappop(q._heap)
    return popped


class TestQueueProperties:
    @given(st.lists(times, min_size=1, max_size=200))
    def test_pop_order_matches_sorted(self, ts):
        q = EventQueue()
        for i, t in enumerate(ts):
            heappush(q._heap, _event(t, i))
        assert [e[EV_TIME] for e in _drain(q)] == sorted(ts)

    @given(
        st.lists(times, min_size=1, max_size=100),
        st.data(),
    )
    def test_cancellation_preserves_remaining_order(self, ts, data):
        q = EventQueue(compact_min=8)  # low floor: exercise auto-compaction
        events = [_event(t, i) for i, t in enumerate(ts)]
        for e in events:
            heappush(q._heap, e)
        to_cancel = data.draw(
            st.sets(st.integers(0, len(events) - 1), max_size=len(events))
        )
        for idx in to_cancel:
            q.cancel(events[idx])
        survivors = sorted(
            (e[EV_TIME], e[EV_SEQ])
            for i, e in enumerate(events)
            if i not in to_cancel
        )
        popped = [(e[EV_TIME], e[EV_SEQ]) for e in _drain(q)]
        assert popped == survivors

    @given(st.lists(st.tuples(times, times), min_size=1, max_size=50))
    def test_engine_clock_never_goes_backwards(self, pairs):
        eng = Engine()
        observed = []

        def record():
            observed.append(eng.now)

        for t0, dt in pairs:
            eng.at(t0, record)
        eng.run()
        assert observed == sorted(observed)


class TestEngineChaining:
    @given(st.integers(1, 50), st.floats(0.1, 100.0))
    @settings(max_examples=25)
    def test_chained_events_count(self, n, step):
        eng = Engine()
        count = [0]

        def tick(remaining):
            count[0] += 1
            if remaining > 1:
                eng.after(step, tick, remaining - 1)

        eng.after(0.0, tick, n)
        stats = eng.run()
        assert count[0] == n
        assert stats.events_fired == n
        assert eng.now <= (n - 1) * step + 1e-6


# ----------------------------------------------------------------------
# Timer-queue / main-queue determinism equivalence
# ----------------------------------------------------------------------
# Delays are multiples of 250 ns so exact deadline ties are common, and
# the script interleaves arms, cancels, and horizon-split runs — the
# workload shape of retransmit and ack timers. Each arm also draws the
# owner it is allocated under and a zero-delay follow-up its callback
# schedules (none, through ``after``, or through the arm call itself):
# on a multi-owner engine a follow-up can take a smaller seq than an
# event already queued for ``now``.
arm_st = st.tuples(
    st.integers(0, 40),   # delay / 250 ns
    st.booleans(),        # timer?
    st.integers(0, 2),    # owner (mod the engine's owner count)
    st.integers(0, 2),    # follow-up: none / after(0) / same arm call
)
step_st = st.tuples(
    st.integers(0, 8),                       # driver advance (x250 ns)
    st.lists(arm_st, max_size=5),            # arms this step
    st.lists(st.integers(0, 40), max_size=4),  # cancel targets (arm index)
)
script_st = st.lists(step_st, min_size=1, max_size=25)
horizons_st = st.lists(st.integers(1, 60), max_size=3)


class _Sampler:
    """Boundary sampler on a 1000 ns cadence recording, per boundary, its
    time and how many events had fired before it."""

    def __init__(self, fired):
        self.fired = fired
        self.next_due = 1000.0
        self.boundaries = []

    def on_boundary(self, t):
        self.boundaries.append((t, len(self.fired)))
        self.next_due = (t // 1000.0 + 1) * 1000.0
        return self.next_due


def _run_script(script, horizons, use_timers: bool, n_owners: int = 1,
                bounds=None, sampler: bool = False):
    """Interpret the script on one engine, one ``run()`` call per horizon
    and a last unbounded one, ``bounds[k]`` being call k's
    ``max_events``. Returns the fired sequence, each call's
    ``(RunStats, clock after it)`` and the sampler's boundaries."""
    eng = Engine()
    eng.configure_owners(n_owners)
    fired = []
    handles = []
    if sampler:
        eng.sampler = _Sampler(fired)

    def payload(tag, follow, arm):
        fired.append((eng.now, tag))
        if follow == 1:
            eng.after(0.0, fired.append, (eng.now, f"{tag}+"))
        elif follow == 2:
            arm(0.0, fired.append, (eng.now, f"{tag}+"))

    def step(i):
        advance, arms, cancels = script[i]
        for delay, is_timer, owner, follow in arms:
            tag = len(handles)
            arm = eng.timer_after if is_timer and use_timers else eng.after
            eng.current_owner = owner % n_owners
            handles.append(arm(delay * 250.0, payload, tag, follow, arm))
        for target in cancels:
            if target < len(handles):
                eng.cancel(handles[target])  # may already have fired: noop
        if i + 1 < len(script):
            next_adv = script[i + 1][0]
            eng.after(next_adv * 250.0, step, i + 1)

    eng.after(script[0][0] * 250.0, step, 0)
    windows = [h * 250.0 for h in sorted(horizons)] + [None]
    runs = []
    for k, until in enumerate(windows):
        # Deferred events keep their handles.
        stats = eng.run(
            until=until, max_events=None if bounds is None else bounds[k]
        )
        runs.append((asdict(stats), eng.now))
    assert eng.pending == 0
    return fired, runs, eng.sampler.boundaries if sampler else None


class TestTimerQueueEquivalence:
    @given(script_st, horizons_st, st.sampled_from((1, 3)))
    @settings(max_examples=300, deadline=None)
    def test_identical_fire_sequence(self, script, horizons, n_owners):
        """An engine that arms some events through ``timer_after`` fires
        the exact (time, seq, fn) sequence of one that arms everything
        through ``after``, under randomized arm/cancel/requeue, on
        single- and three-owner engines (where seqs are not monotone in
        arm order), with and without a boundary sampler: the fired
        (now, tag) streams, every run's stats and clock, and the sampled
        boundaries must match element for element."""
        for sampler in (False, True):
            heap_only, timers = (
                _run_script(script, horizons, use_timers, n_owners,
                            sampler=sampler)
                for use_timers in (False, True)
            )
            assert timers == heap_only


class TestMaxEventsBound:
    @given(script_st, horizons_st, st.sampled_from((1, 3)),
           st.integers(0, 2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bound_changes_nothing_until_exceeded(
        self, script, horizons, n_owners, extra, data
    ):
        """Per ``run()`` call, a ``max_events`` bound at or above the
        call's event count gives the unbounded run's fired stream,
        stats, clock and sampler boundaries; one below it raises,
        because one more event would fire before that call's ``until``."""
        free = _run_script(script, horizons, True, n_owners, sampler=True)
        counts = [stats["events_fired"] for stats, _ in free[1]]
        bounds = [n + extra for n in counts]
        assert _run_script(script, horizons, True, n_owners,
                           bounds=bounds, sampler=True) == free
        k = data.draw(st.integers(0, len(counts) - 1))
        if counts[k]:
            bounds = [None] * len(counts)
            bounds[k] = counts[k] - 1
            with pytest.raises(SimulationError,
                               match=f"max_events={counts[k] - 1};"):
                _run_script(script, horizons, True, n_owners,
                            bounds=bounds, sampler=True)
