"""Quiescence accounting.

The engine's natural notion of quiescence is event-queue exhaustion; the
:class:`QDCounter` adds an *application-level* check: every produced item
must eventually be consumed. Applications create one counter, tick it on
item creation/consumption, and assert :meth:`require_balanced` after the
run — this is how the apps and the test suite catch lost or duplicated
deliveries. It counts apart from TramLib's own counters; losses that a
fault, crash or shed caused are accounted by the conservation ledger
(:func:`repro.flow.conservation_ledger`), not here, so an app run that
loses items fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QuiescenceError


@dataclass
class QDCounter:
    """Produced/consumed item accounting.

    Raises :class:`~repro.errors.QuiescenceError` immediately if
    consumption ever exceeds production (duplicate delivery).
    """

    produced: int = 0
    consumed: int = 0

    def produce(self, n: int = 1) -> None:
        """Record ``n`` items entering the system."""
        if n < 0:
            raise QuiescenceError(f"cannot produce {n} items")
        self.produced += n

    def consume(self, n: int = 1) -> None:
        """Record ``n`` items delivered to the application."""
        if n < 0:
            raise QuiescenceError(f"cannot consume {n} items")
        self.consumed += n
        if self.consumed > self.produced:
            raise QuiescenceError(
                f"consumed {self.consumed} > produced {self.produced}: "
                f"duplicate delivery detected"
            )

    @property
    def balanced(self) -> bool:
        """Whether every produced item was consumed."""
        return self.produced == self.consumed

    @property
    def outstanding(self) -> int:
        """Items produced but not yet consumed."""
        return self.produced - self.consumed

    def require_balanced(self) -> None:
        """Raise unless all items were delivered."""
        if not self.balanced:
            raise QuiescenceError(
                f"quiescence reached with {self.outstanding} undelivered "
                f"item(s) ({self.consumed} consumed / {self.produced} "
                f"produced)"
            )
