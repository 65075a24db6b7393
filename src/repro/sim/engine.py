"""The discrete-event simulation engine.

The engine owns the simulated clock and two event queues, both
:class:`~repro.sim.queue.EventQueue` lazy-deletion binary heaps, which
it merges into one deterministic stream:

* the main queue, for everything scheduled through :meth:`Engine.at` /
  :meth:`Engine.after` and the no-handle fast paths
  :meth:`Engine.call_at` / :meth:`Engine.call_after` /
  :meth:`Engine.wire_call_at`;
* the timer queue, for timeouts armed through :meth:`Engine.timer_at` /
  :meth:`Engine.timer_after`: retransmit, ack and probe timers and
  credit releases. Keeping them apart means a population of
  long-deadline timers never deepens the heap the ordinary events
  stream through.

Running to event-queue exhaustion is the simulator's notion of
*quiescence* — the applications in :mod:`repro.apps` are written so that
a finished run drains naturally (timers are one-shot and conditional).

Determinism
-----------
Two runs with the same configuration and seeds execute the identical
event sequence: ties in firing time are broken by ``seq``, and all
randomness flows through :class:`repro.sim.rng.RngStreams`. The two
queues cannot reorder anything: the run loop compares the two live
heads as ``[time, seq, ...]`` lists and fires the smaller, so the merged
stream is the exact ``(time, seq)`` total order regardless of which
queue an event waited in. ``tests/properties/test_prop_sim.py`` pins
this with a randomized ``after``-versus-``timer_after`` equivalence
test on single- and multi-owner engines.

Owner-slot sequence numbers
---------------------------
By default ``seq`` is a single global counter. A multi-owner engine
(:meth:`Engine.configure_owners`, used by multi-node runtimes) instead
allocates from per-owner counters and encodes the allocating slot into
the sequence number::

    seq = per_slot_counter * n_slots + slot

with one slot per owner (simulated node) plus one slot per *directed
owner pair* for cross-node wire events. Each slot's counter advances
only from causally-local activity; the encoding fixes the tie order of
same-time events in multi-node runs, so changing it changes artifact
bytes. With a single owner the encoding collapses to ``seq = counter``.
Seqs are unique but not monotone in arm order across owners: a callback
can schedule an event at ``now`` whose seq is smaller than that of an
event already queued for ``now``.

Events are plain lists (see :mod:`repro.sim.event`): slot 2 is the
state, and the list itself is the cancellation handle.

One run loop
------------
:meth:`Engine.run` has a single loop, :meth:`Engine._run_fast`, for every
run: unbounded, to a horizon, with a timeline sampler, and under the
tests' ``max_events`` runaway guard. The guard costs one local compare
per event, so the tests drive the loop the figures run.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.event import ST_CONSUMED, ST_PENDING, ST_TIMER
from repro.sim.queue import EventQueue

_heappush = heappush
_heappop = heappop


@dataclass
class RunStats:
    """Summary of one :meth:`Engine.run` call."""

    events_fired: int = 0
    end_time: float = 0.0
    horizon_reached: bool = False
    #: Time of the last event actually fired by this call (unlike
    #: ``end_time``, never advanced to an un-fired horizon).
    last_event_time: float = 0.0


class Engine:
    """Deterministic discrete-event engine."""

    __slots__ = (
        "now",
        "sampler",
        "current_owner",
        "_queue",
        "_timers",
        "_heap",
        "_theap",
        "_owner_seq",
        "_n_owners",
        "_n_slots",
        "_owner_mod",
        "_running",
    )

    def __init__(self, now: float = 0.0) -> None:
        #: Optional boundary sampler (a
        #: :class:`~repro.obs.timeline.TimelineRecorder`): before firing
        #: the first event at-or-past ``sampler.next_due``, the run loop
        #: calls ``sampler.on_boundary(t)``. Driving sampling from the
        #: event stream (rather than self-rescheduling sampler events)
        #: keeps run-to-exhaustion quiescence intact; the loop folds
        #: ``next_due`` into its single "next stop" compare.
        self.sampler: Optional[Any] = None
        #: Owner slot of the event currently firing (multi-owner engines
        #: only; stays 0 otherwise). Events scheduled from inside a
        #: callback are allocated under this owner.
        self.current_owner = 0
        self.now = now
        self._queue = EventQueue()
        self._timers = EventQueue()
        #: Aliases of the two queues' heap lists; EventQueue.compact()
        #: rebuilds in place so these aliases never go stale.
        self._heap = self._queue._heap
        self._theap = self._timers._heap
        self._n_owners = 1
        self._n_slots = 1
        #: 0 disables per-event owner decoding (single-owner engines);
        #: equals ``_n_slots`` otherwise.
        self._owner_mod = 0
        self._owner_seq = [0]
        self._running = False

    # ------------------------------------------------------------------
    # Owner configuration (multi-node runtimes)
    # ------------------------------------------------------------------
    def configure_owners(self, n_owners: int) -> None:
        """Switch to owner-slot seq allocation over ``n_owners``.

        Must be called before anything is scheduled. Slots ``0..n-1``
        are per-owner counters; slot ``n + src*n + dst`` orders the
        directed cross-owner wire channel ``src -> dst``. With
        ``n_owners == 1`` the engine stays on the plain global counter.
        """
        if n_owners < 1:
            raise SimulationError(f"n_owners must be >= 1, got {n_owners}")
        if self.pending or any(self._owner_seq):
            raise SimulationError(
                "configure_owners() must run before any event is scheduled"
            )
        self._n_owners = n_owners
        self._n_slots = 1 if n_owners == 1 else n_owners + n_owners * n_owners
        self._owner_mod = 0 if n_owners == 1 else self._n_slots
        self._owner_seq = [0] * self._n_slots
        self.current_owner = 0

    # ------------------------------------------------------------------
    # Scheduling — main queue
    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``.

        Returns the event list, usable as a :meth:`cancel` handle.

        Raises
        ------
        SchedulingError
            If ``time`` is in the past (strictly before ``now``).
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} (now={self.now}): time is in the past"
            )
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [time, oseq * self._n_slots + cur, ST_PENDING, fn, args]
        _heappush(self._heap, ev)
        return ev

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Schedule ``fn(*args)`` ``delay`` ns from the current time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [self.now + delay, oseq * self._n_slots + cur, ST_PENDING, fn, args]
        _heappush(self._heap, ev)
        return ev

    def call_at(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """No-handle fast path: like :meth:`at` but skips the past-time
        check (callers pass times derived from ``now`` plus non-negative
        costs) and returns nothing. Use for internal fire-and-forget
        scheduling on hot paths; anything that might be cancelled needs
        :meth:`at` or :meth:`timer_at`."""
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        _heappush(
            self._heap, [time, oseq * self._n_slots + cur, ST_PENDING, fn, args]
        )

    def call_after(self, delay: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """No-handle fast path twin of :meth:`after` (delay must be >= 0,
        unchecked)."""
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        _heappush(
            self._heap,
            [self.now + delay, oseq * self._n_slots + cur, ST_PENDING, fn, args],
        )

    # ------------------------------------------------------------------
    # Scheduling — cross-owner wire channels
    # ------------------------------------------------------------------
    def wire_seq(self, src_owner: int, dst_owner: int) -> int:
        """Allocate a seq on the ordered ``src -> dst`` wire channel.

        Wire events are *executed* by their destination owner but their
        allocation order depends only on the sender, so the counter
        lives in a dedicated per-pair slot.
        """
        n = self._n_owners
        slot = n + src_owner * n + dst_owner
        seqs = self._owner_seq
        oseq = seqs[slot]
        seqs[slot] = oseq + 1
        return oseq * self._n_slots + slot

    def wire_call_at(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        src_owner: int,
        dst_owner: int,
    ) -> None:
        """:meth:`call_at` on the ``src -> dst`` wire channel.

        Falls back to :meth:`call_at` on single-owner engines (no pair
        slots exist, and none are needed).
        """
        if not self._owner_mod:
            self.call_at(time, fn, args)
            return
        seq = self.wire_seq(src_owner, dst_owner)
        _heappush(self._heap, [time, seq, ST_PENDING, fn, args])

    # ------------------------------------------------------------------
    # Scheduling — timer queue (timeouts)
    # ------------------------------------------------------------------
    def timer_at(self, time: float, fn: Callable[..., Any], *args: Any) -> list:
        """Arm a timeout at absolute time ``time``.

        Identical observable semantics to :meth:`at` — the two queues
        are merged in exact ``(time, seq)`` order — but the event waits
        in the timer queue, so parked timeouts never deepen the main
        heap."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at t={time} (now={self.now}): time is in the past"
            )
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [time, oseq * self._n_slots + cur, ST_TIMER, fn, args]
        _heappush(self._theap, ev)
        return ev

    def timer_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> list:
        """Arm a timeout ``delay`` ns from now (see :meth:`timer_at`)."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay}")
        cur = self.current_owner
        seqs = self._owner_seq
        oseq = seqs[cur]
        seqs[cur] = oseq + 1
        ev = [self.now + delay, oseq * self._n_slots + cur, ST_TIMER, fn, args]
        _heappush(self._theap, ev)
        return ev

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, event: list) -> None:
        """Cancel a scheduled event. O(1) amortized.

        Safe no-op if the event already fired or was cancelled. Handles
        stay valid across run horizons: :meth:`run` never removes an
        event it does not fire, so a handle scheduled beyond ``until``
        still cancels the real queued event."""
        state = event[2]
        if state == ST_PENDING:
            self._queue.cancel(event)
        elif state == ST_TIMER:
            self._timers.cancel(event)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live events waiting to fire (both queues)."""
        return self._queue.live_count + self._timers.live_count

    def peek_time(self) -> Optional[float]:
        """Firing time of the next live event, or ``None``."""
        qt = self._queue.peek_time()
        tt = self._timers.peek_time()
        if qt is None:
            return tt
        if tt is None:
            return qt
        return qt if qt <= tt else tt

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> RunStats:
        """Process events until exhaustion or a horizon.

        Parameters
        ----------
        until:
            If given, fire events *strictly before* this time and stop;
            the clock is advanced to ``until``. An event scheduled
            exactly at the horizon is deferred — it belongs to the next
            ``run()`` call. (This strict semantics makes ``until`` a
            composable window boundary: successive calls with
            ``until=h1, h2, ...`` fire each event exactly once, in the
            window ``[h_{k-1}, h_k)`` that contains it.) Deferred events
            stay queued, so their handles remain valid and a later
            :meth:`run` call fires them.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` when
            an event would fire (before ``until``) after this many have
            (catches accidental infinite loops). A run that needs no
            more events returns exactly as an unbounded one would.

        Returns
        -------
        RunStats
            Count of fired events and the final clock value.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        if max_events is None:
            cap = -1
        elif max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        else:
            cap = max_events
        self._running = True
        stats = RunStats()
        stats.last_event_time = self.now
        try:
            self._run_fast(stats, until, cap)
        finally:
            self._running = False
        stats.end_time = self.now
        return stats

    def _run_fast(self, stats: RunStats, until: Optional[float], cap: int) -> None:
        """The run loop: the simulator's hot path.

        One "next stop" time, ``min(until, sampler.next_due)`` (``inf``
        when neither is set), covers both the horizon and the timeline
        sampler at one float compare per event. An event at or past
        ``until`` is put back in the queue it came from, so it stays
        queued and its handle still cancels.

        While the timer queue is empty the loop pops the main heap
        directly; otherwise it fires the smaller of the two live heads.

        ``cap`` is ``max_events`` (``-1`` when unbounded). The loop exits
        once ``cap`` events have fired; only then does it look for a
        further live event before ``until``, and raise if there is one.
        """
        queue = self._queue
        heap = self._heap
        timers = self._timers
        theap = self._theap
        sampler = self.sampler
        mod = self._owner_mod
        nown = self._n_owners
        limit = float("inf") if until is None else until
        stop = limit if sampler is None else min(limit, sampler.next_due)
        fired = 0
        while fired != cap:
            if theap:
                ev = timers.peek()
                hev = queue.peek()
                if hev is not None and (ev is None or hev < ev):
                    ev = _heappop(heap)
                elif ev is not None:
                    _heappop(theap)
                else:
                    break
            else:
                # Main-heap-only fast path: skim corpses inline.
                while heap:
                    ev = _heappop(heap)
                    if ev[2]:
                        break
                    queue._corpses -= 1
                else:
                    break
            t = ev[0]
            if t >= stop:
                if t >= limit:
                    # It belongs to a later run() call; put it back.
                    _heappush(theap if ev[2] == ST_TIMER else heap, ev)
                    stats.horizon_reached = True
                    break
                # Sample state-at-boundary before the crossing event
                # fires; all applied events are strictly earlier.
                stop = min(limit, sampler.on_boundary(t))
            self.now = t
            if mod:
                slot = ev[1] % mod
                self.current_owner = slot if slot < nown else (slot - nown) % nown
            fired += 1
            ev[2] = ST_CONSUMED
            ev[3](*ev[4])
        else:
            t = self.peek_time()
            if t is not None:
                if t < limit:
                    raise SimulationError(
                        f"exceeded max_events={cap}; probable runaway loop"
                    )
                stats.horizon_reached = True
        stats.events_fired = fired
        stats.last_event_time = self.now
        if stats.horizon_reached and self.now < until:
            # A deferred event exists; park the clock at the horizon.
            self.now = until

    def reset(self) -> None:
        """Clear the queue and rewind the clock (for test reuse)."""
        if self._running:
            raise SimulationError("cannot reset a running engine")
        self._queue = EventQueue()
        self._heap = self._queue._heap
        self._timers = EventQueue()
        self._theap = self._timers._heap
        self.now = 0.0
        self._owner_seq = [0] * self._n_slots
        self.current_owner = 0
