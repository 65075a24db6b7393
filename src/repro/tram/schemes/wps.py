"""WPs: per source worker, one buffer per destination *process*;
items are grouped by PE at the destination (paper Fig 5).

Compared with WW, the per-worker buffer count drops from ``N*t`` to
``N`` (``N`` processes, ``t`` workers each): buffers fill ``t`` times
faster, end-of-phase flushes send ``t`` times fewer messages, and the
memory overhead is ``g*m*N`` per core (§III-C). The price is an
O(g + t) grouping pass on the receiving PE before local section sends.
"""

from __future__ import annotations

import numpy as np

from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase


class WPsScheme(SchemeBase):
    """Worker-to-process aggregation, destination-side grouping."""

    name = "WPs"

    def _new_buffer(self, dst_process: int, owner, item_mode: bool) -> Buffer:
        return self._new_group_buffer(
            dst_process, item_mode, self.rt.machine.workers_of_process
        )

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_process = self.rt.machine.process_of_worker(item.dst)
        buf = self._get(self._tables[src], dst_process, src, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        self._insert_grouped(ctx, self._tables[src], src, counts, self._t)
