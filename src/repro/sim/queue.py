"""Binary-heap event queue with stable ordering, lazy deletion, and
corpse auto-compaction.

A thin wrapper over a :mod:`heapq` list. The engine owns two, the main
queue and the timer queue, and pushes and pops their heap lists
directly on its hot paths; the queue owns what needs bookkeeping:
cancellation, the skim of dead heads in :meth:`EventQueue.peek`, and
compaction. It exists as its own module so the ordering/lazy-deletion
invariants can be unit- and property-tested in isolation (see
``tests/sim/test_queue.py``).

Events are the plain lists of :mod:`repro.sim.event`; the heap orders
them by their leading ``(time, seq)`` slots entirely in C. Liveness is
tracked by a *corpse counter* rather than per-event bookkeeping:
``live_count == len(heap) - corpses``.

Compaction is automatic: when cancelled corpses are both numerous
(``compact_min``) and at least half the heap, the heap is rebuilt
without them, so arm-then-cancel churn cannot grow the heap without
bound. The cost is amortized O(1) per cancel — after a rebuild, at
least ``live_count`` further cancels are needed before the ratio trips
again.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import Optional

from repro.sim.event import EV_STATE, EV_TIME, ST_CANCELLED


class EventQueue:
    """Min-heap of event lists ordered by ``(time, seq)``.

    Dead (cancelled) events are dropped lazily when they surface at the
    head or when auto-compaction trips; :attr:`live_count` stays exact
    throughout.
    """

    __slots__ = ("_heap", "_corpses", "compact_min")

    def __init__(self, compact_min: int = 256) -> None:
        self._heap: list = []
        #: Cancelled events still physically in the heap.
        self._corpses = 0
        #: Auto-compaction floor: never rebuild for fewer corpses.
        self.compact_min = compact_min

    def cancel(self, event: list) -> bool:
        """Cancel an event that lives in this heap. O(1) amortized.

        The corpse stays in the heap until it surfaces or compaction
        removes it. Returns False if the event was already dead.
        """
        if not event[EV_STATE]:
            return False
        event[EV_STATE] = ST_CANCELLED
        corpses = self._corpses + 1
        self._corpses = corpses
        if corpses >= self.compact_min and corpses * 2 >= len(self._heap):
            self.compact()
        return True

    def peek(self) -> Optional[list]:
        """The earliest live event without removing it, or ``None``.

        Discards dead events at the head as a side effect.
        """
        heap = self._heap
        while heap:
            ev = heap[0]
            if ev[EV_STATE]:
                return ev
            heappop(heap)
            self._corpses -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        ev = self.peek()
        return None if ev is None else ev[EV_TIME]

    @property
    def live_count(self) -> int:
        """Number of live (non-cancelled) events currently queued."""
        return len(self._heap) - self._corpses

    def __len__(self) -> int:
        return len(self._heap) - self._corpses

    def __bool__(self) -> bool:
        return len(self._heap) > self._corpses

    def compact(self) -> None:
        """Rebuild the heap dropping cancelled events.

        Runs automatically from :meth:`cancel` once corpses reach both
        ``compact_min`` and half of the heap; callable directly too.
        Rebuilds **in place** so aliases of the heap list (the engine
        keeps one for its scheduling fast path) stay valid.
        """
        heap = self._heap
        heap[:] = [ev for ev in heap if ev[EV_STATE]]
        heapify(heap)
        self._corpses = 0
