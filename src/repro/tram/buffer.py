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


def proportional_take(arr, k: int, total: int) -> list:
    """Take ``k`` of ``total`` items from slots ``arr`` proportionally.

    ``arr`` is a sequence of ints summing to ``total``. Largest-remainder
    method on Python ints: every slot gets the floor of its exact share,
    and the slots with the largest remainders get one more each until
    ``k`` is reached, ties going to the lowest slot index. Guarantees
    ``0 <= take <= arr`` and ``sum(take) == k``.
    """
    if k > total:
        raise SimulationError(f"cannot take {k} of {total}")
    if k == total:
        return list(arr)
    take = [a * k // total for a in arr]
    deficit = k - sum(take)
    if deficit:
        # The remainders sum to ``deficit * total`` and each is below
        # ``total``, so more than ``deficit`` of them are positive, and
        # a ceiling never exceeds its slot when k < total. Python's
        # sort is stable, so equal remainders keep slot order.
        rem = [a * k % total for a in arr]
        for slot in sorted(range(len(rem)), key=rem.__getitem__, reverse=True)[
            :deficit
        ]:
            take[slot] += 1
    return take


def split_sources(src_counts: np.ndarray, sections: List[int], total: int) -> list:
    """Each section's share of a batch's source counts, as int64 arrays.

    ``sections`` are item counts summing to ``total``, the sum of
    ``src_counts``. Section by section, each takes its
    :func:`proportional_take` of the sources the sections before it
    left. A single-source batch needs no split.
    """
    if len(src_counts) == 1:
        return [np.array([n], dtype=np.int64) for n in sections]
    remaining = src_counts.tolist()
    shares = []
    for n in sections:
        share = proportional_take(remaining, n, total)
        remaining = [r - s for r, s in zip(remaining, share)]
        total -= n
        shares.append(np.array(share, dtype=np.int64))
    return shares


def _carve_slots(slots: np.ndarray, k: int, total: int):
    """``(part, rest)``: the slot counts ``k`` of ``total`` items take
    out of ``slots``, and what they leave behind."""
    if k == total:
        return slots, np.zeros(len(slots), dtype=np.int64)
    part = np.array(proportional_take(slots.tolist(), k, total), dtype=np.int64)
    return part, slots - part


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
            dst_part, self.dst_counts = _carve_slots(self.dst_counts, k, self.count)
        src_part = None
        if self.src_counts is not None:
            src_part, self.src_counts = _carve_slots(self.src_counts, k, self.count)
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
