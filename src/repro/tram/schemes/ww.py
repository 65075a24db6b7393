"""WW: per source worker, one buffer per destination *worker*.

The SMP-unaware baseline (paper Fig 4). Each of the ``w`` workers keeps
up to ``w - 1`` buffers, so the machine-wide buffer count grows as
``w^2`` — which is exactly why end-of-phase flushes dominate at scale
(one mostly-empty message per destination *worker*; see the paper's
Fig 9/11 analysis) and why the memory overhead is ``g*m*N*t`` per core
(§III-C).
"""

from __future__ import annotations

import numpy as np

from repro.tram.buffer import CountBuffer, ItemBuffer
from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase


class WWScheme(SchemeBase):
    """Worker-to-worker aggregation (SMP-unaware)."""

    name = "WW"

    def _new_buffer(self, dst: int, owner, item_mode: bool) -> Buffer:
        dest = (self.rt.machine.process_of_worker(dst), dst)
        g = self.config.buffer_items
        return ItemBuffer(g, dest) if item_mode else CountBuffer(g, dest=dest)

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        buf = self._get(self._tables[src], item.dst, src, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        bufs = self._tables[src]
        now = ctx.now
        for dst in np.nonzero(counts)[0]:
            dst = int(dst)
            buf = self._get(bufs, dst, src, item_mode=False)
            buf.add_counts(int(counts[dst]), now)
            self._drain_full(ctx, buf)
