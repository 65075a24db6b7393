"""Structured simulation tracing.

Tracing is off by default (it is on the hot path); benchmarks never
enable it. Tests use it to assert the order in which events fire.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple


class Tracer:
    """Bounded in-memory trace of categorized records.

    Parameters
    ----------
    categories:
        Categories to capture; ``None`` captures everything. The
        library records one category: ``"event"``, one record per
        fired event, from the engine's instrumented run loop.
    capacity:
        Maximum retained records (oldest evicted first).
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        capacity: int = 100_000,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._categories = frozenset(categories) if categories is not None else None
        self._records: Deque[Tuple[str, Dict[str, Any]]] = deque(maxlen=capacity)
        self.dropped = 0

    def wants(self, category: str) -> bool:
        """Whether records of ``category`` would be captured."""
        return self._categories is None or category in self._categories

    def record(self, category: str, **fields: Any) -> None:
        """Capture one record if the category is enabled."""
        if not self.wants(category):
            return
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append((category, fields))

    def records(self, category: Optional[str] = None) -> list:
        """Return captured records, optionally filtered by category."""
        if category is None:
            return list(self._records)
        return [(c, f) for c, f in self._records if c == category]

    def count(self, category: str) -> int:
        """Number of captured records in ``category``."""
        return sum(1 for c, _ in self._records if c == category)

    def clear(self) -> None:
        """Drop all captured records."""
        self._records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)
