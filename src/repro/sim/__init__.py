"""Deterministic discrete-event simulation (DES) substrate.

This package is the foundation of the whole reproduction: simulated time
replaces wall-clock time, so all performance claims are made about the
*model* rather than about the Python interpreter (see DESIGN.md §2).

Public surface
--------------
:class:`~repro.sim.engine.Engine`
    The event loop: schedule callbacks at absolute or relative simulated
    times (``at``/``after``, no-handle ``call_at`` / ``call_after``, and
    ``timer_at``/``timer_after`` for timeouts, which wait in a second
    queue), run to exhaustion or to a horizon.
:func:`~repro.sim.event.Event`
    Factory for a cancellable scheduled callback (a plain list; see
    :mod:`repro.sim.event` for the representation).
:class:`~repro.sim.queue.EventQueue`
    The lazy-deletion binary heap behind both of the engine's queues.
:class:`~repro.sim.rng.RngStreams`
    Named, independently-seeded ``numpy`` generator streams so that every
    component draws from its own reproducible stream.
:mod:`~repro.sim.simtime`
    Time-unit constants (nanosecond base) and formatting helpers.
"""

from repro.sim.engine import Engine, RunStats
from repro.sim.event import Event
from repro.sim.queue import EventQueue
from repro.sim.rng import RngStreams
from repro.sim.simtime import MS, NS, SEC, US, fmt_time

__all__ = [
    "Engine",
    "Event",
    "EventQueue",
    "MS",
    "NS",
    "RngStreams",
    "RunStats",
    "SEC",
    "US",
    "fmt_time",
]
