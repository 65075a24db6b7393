"""Scheduled events, represented as plain 5-slot lists.

An event is ``[time, seq, state, fn, args]``. Ordering is by
``(time, seq)`` where ``seq`` is a unique sequence number assigned by
the engine, making the simulation fully deterministic even when many
events share a timestamp (FIFO among ties on a single-owner engine;
owner-slot order on a multi-owner one, see :mod:`repro.sim.engine`) —
and because the first two slots are the sort key, ``list.__lt__`` gives
the heap exactly that ordering **in C**, with no Python-level ``__lt__``
call per comparison. Profiling showed heap comparisons dominating the hot path
(fig 11 quick: ~1.15M ``Event.__lt__`` calls for 98k events), which is
why events are lists rather than instances: the list *is* both the heap
entry and the cancellation handle.

State machine (slot ``EV_STATE``):

``ST_CANCELLED`` (0)
    Cancelled; a corpse. Dropped lazily when it surfaces at the head of
    whichever queue holds it. Falsy on purpose: liveness checks are
    ``if ev[EV_STATE]:``.
``ST_PENDING`` (1)
    Live, waiting in the engine's main queue; the caller may hold the
    list as a cancellation handle.
``ST_CONSUMED`` (2)
    Popped and fired. Terminal.
``ST_TIMER`` (3)
    Live, waiting in the engine's timer queue (armed through
    :meth:`Engine.timer_at` / :meth:`Engine.timer_after`).

Events scheduled through the engine's no-handle tier
(:meth:`Engine.call_at` and its twins) are ``ST_PENDING`` too; they
differ only in that no reference to the list escapes the engine.

Cancellation is *lazy*: the engine flips the state slot to 0 and counts
the corpse; the queues discard dead events when they reach the head
(or during compaction). This keeps cancellation O(1) amortized.
"""

# Slot indices of an event list.
EV_TIME = 0
EV_SEQ = 1
EV_STATE = 2
EV_FN = 3
EV_ARGS = 4

# EV_STATE values.
ST_CANCELLED = 0
ST_PENDING = 1
ST_CONSUMED = 2
ST_TIMER = 3
