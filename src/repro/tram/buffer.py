"""Aggregation buffers.

Two implementations back the two fidelity levels (see
:mod:`repro.tram.item`): :class:`ItemBuffer` stores actual
:class:`~repro.tram.item.Item` objects; :class:`CountBuffer` stores only
per-slot counts plus timestamp moments, with an exact
largest-remainder proportional split when a full ``g``-item message is
carved out of an over-full buffer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.tram.item import BulkBatch, Item


def proportional_take(arr: np.ndarray, k: int, total: int) -> np.ndarray:
    """Take ``k`` of ``total`` items from slots ``arr`` proportionally.

    Uses the largest-remainder method; deterministic (ties broken by
    slot index) and guaranteed to satisfy ``0 <= take <= arr`` and
    ``take.sum() == k``.
    """
    if k > total:
        raise SimulationError(f"cannot take {k} of {total}")
    if k == total:
        return arr.copy()
    prod = arr * k
    take = prod // total
    deficit = int(k - take.sum())
    if deficit:
        rem = prod - take * total
        # Only slots with rem > 0 are eligible and there are always at
        # least ``deficit`` of them; ceil never exceeds arr when k<total.
        order = np.argsort(-rem, kind="stable")[:deficit]
        take[order] += 1
    return take


class ItemBuffer:
    """Fixed-capacity buffer of real :class:`Item` objects.

    Partial drains advance a head cursor instead of shifting the tail
    left (``del items[:k]`` is O(n) per call); the backing list is
    compacted only once the dead prefix reaches half its length, so a
    sequence of partial drains costs amortized O(1) per drained item.
    """

    __slots__ = ("capacity", "dest", "_items", "_head")

    def __init__(self, capacity: int, dest=None) -> None:
        self.capacity = capacity
        #: ``(dst_process, dst_worker_or_None)`` routing of this buffer.
        self.dest = dest
        self._items: List[Item] = []
        self._head = 0

    def add(self, item: Item) -> bool:
        """Append an item; return True when the buffer reached capacity."""
        self._items.append(item)
        return len(self._items) - self._head >= self.capacity

    def drain(self, k: Optional[int] = None) -> List[Item]:
        """Remove and return the oldest ``k`` items (all if ``None``)."""
        items = self._items
        head = self._head
        if k is None or k >= len(items) - head:
            out = items[head:] if head else items
            self._items = []
            self._head = 0
            return out
        end = head + k
        out = items[head:end]
        self._head = end
        if end * 2 >= len(items):
            del items[:end]
            self._head = 0
        return out

    @property
    def count(self) -> int:
        return len(self._items) - self._head

    @property
    def empty(self) -> bool:
        return len(self._items) == self._head


class CountBuffer:
    """Fixed-capacity buffer of item *counts* (bulk/flow mode).

    Parameters
    ----------
    capacity:
        ``g`` — items before the buffer is considered full.
    dst_ids:
        Global worker ids of the destination slots tracked (``None`` for
        a single-destination buffer, e.g. WW).
    src_ids:
        Global worker ids of the possible contributors (``None`` for a
        single-source buffer).
    """

    __slots__ = (
        "capacity",
        "count",
        "dst_ids",
        "dst_counts",
        "src_ids",
        "src_counts",
        "t_sum",
        "t_min",
        "dest",
    )

    def __init__(
        self,
        capacity: int,
        dst_ids: Optional[np.ndarray] = None,
        src_ids: Optional[np.ndarray] = None,
        dest=None,
    ) -> None:
        self.capacity = capacity
        self.count = 0
        self.dst_ids = dst_ids
        self.dst_counts = (
            np.zeros(len(dst_ids), dtype=np.int64) if dst_ids is not None else None
        )
        self.src_ids = src_ids
        self.src_counts = (
            np.zeros(len(src_ids), dtype=np.int64) if src_ids is not None else None
        )
        self.t_sum = 0.0
        self.t_min = float("inf")
        self.dest = dest

    @property
    def empty(self) -> bool:
        return self.count == 0

    def add_counts(
        self,
        n: int,
        now: float,
        dst_slot_counts: Optional[np.ndarray] = None,
        src_slot: Optional[int] = None,
    ) -> None:
        """Account ``n`` items created at ``now``.

        ``dst_slot_counts`` distributes them over destination slots (must
        sum to ``n``); ``src_slot`` attributes them to one contributor.
        """
        if n <= 0:
            raise SimulationError(f"add_counts with n={n}")
        self.count += n
        self.t_sum += n * now
        if now < self.t_min:
            self.t_min = now
        if self.dst_counts is not None:
            if dst_slot_counts is None:
                raise SimulationError("buffer tracks destinations; counts required")
            self.dst_counts += dst_slot_counts
        if self.src_counts is not None:
            if src_slot is None:
                raise SimulationError("buffer tracks sources; src_slot required")
            self.src_counts[src_slot] += n

    def take(self, k: int) -> BulkBatch:
        """Carve ``k`` items out of the buffer as a :class:`BulkBatch`.

        Destination and source marginals are split proportionally
        (largest remainder); timestamp moments are split pro-rata.
        """
        if k <= 0 or k > self.count:
            raise SimulationError(f"take({k}) from buffer of {self.count}")
        frac = k / self.count
        t_sum_part = self.t_sum * frac
        dst_part = None
        if self.dst_counts is not None:
            dst_part = proportional_take(self.dst_counts, k, self.count)
            self.dst_counts -= dst_part
        src_part = None
        if self.src_counts is not None:
            src_part = proportional_take(self.src_counts, k, self.count)
            self.src_counts -= src_part
        batch = BulkBatch(
            count=k,
            dst_ids=self.dst_ids,
            dst_counts=dst_part,
            src_ids=self.src_ids,
            src_counts=src_part,
            t_sum=t_sum_part,
            t_min=self.t_min,
        )
        self.count -= k
        self.t_sum -= t_sum_part
        if self.count == 0:
            self.t_sum = 0.0
            self.t_min = float("inf")
        return batch
