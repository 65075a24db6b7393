"""Direct: no aggregation — every item travels as its own message.

The baseline against which aggregation is motivated: each item pays the
full per-message alpha cost. Useful for tests, examples, and the
send-cost analysis of §III-C (``z * (alpha + beta*b)`` vs the
aggregated ``(z/g) * alpha + beta*b*z``).
"""

from __future__ import annotations

import numpy as np

from repro.tram.item import BulkBatch, Item, ItemBatch
from repro.tram.schemes.base import SchemeBase


class DirectScheme(SchemeBase):
    """One message per item (no buffering at all: its tables stay empty)."""

    name = "Direct"

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_process = self.rt.proc_of_worker[item.dst]
        self._emit_message(
            ctx, ItemBatch([item]), 1, dst_process, item.dst, full=True
        )

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        now = ctx.now
        proc_of = self.rt.proc_of_worker
        for dst, n in enumerate(counts.tolist()):
            dst_process = proc_of[dst]
            for _ in range(n):
                batch = BulkBatch(
                    count=1,
                    dst_ids=None,
                    dst_counts=None,
                    src_ids=None,
                    src_counts=None,
                    t_sum=now,
                    t_min=now,
                )
                self._emit_message(ctx, batch, 1, dst_process, dst, full=True)

    def _flush_worker(self, ctx, wid: int) -> None:
        """Nothing is ever buffered, so a flush never waits for credits."""
