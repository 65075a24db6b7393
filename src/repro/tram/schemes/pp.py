"""PP: one *shared* buffer per destination process on each source
process, filled by all of the process's workers through atomics
(paper Fig 7).

This is the most SMP-aware scheme: with ``t`` workers feeding each
buffer, buffers fill ``t`` times faster than WPs (latency of a buffered
item drops by the same factor — the paper's IG result PP < WPs < WW) and
an end-of-phase flush sends only ``N`` messages per *process* instead of
per worker. The price is an atomic slot claim per insert whose cost
grows with contention: ``atomic_ns * (1 + contention_coeff * (t - 1))``.

Buffers live in the owning process's shared heap
(:attr:`repro.runtime.proc.Process.shared`), reflecting that any of its
workers may fill — and send — them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase


class PPScheme(SchemeBase):
    """Process-to-process aggregation through shared buffers."""

    name = "PP"

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        self._shared_key = self._ns  # namespace within Process.shared
        n = rt.machine.total_processes
        #: Per source process: {dst_process: buffer}, in its shared heap.
        self._tables = [
            rt.process(pid).shared.setdefault(self._shared_key, {})
            for pid in range(n)
        ]
        self._done_counts = [0] * n

    def _table(self, wid: int) -> dict:
        return self._tables[self.rt.machine.process_of_worker(wid)]

    def _new_buffer(self, dst_process: int, owner, item_mode: bool) -> Buffer:
        return self._new_group_buffer(
            dst_process, item_mode, self.rt.machine.workers_of_process, owner
        )

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        machine = self.rt.machine
        src_process = machine.process_of_worker(src)
        dst_process = machine.process_of_worker(item.dst)
        buf = self._get(
            self._tables[src_process], dst_process, src_process, item_mode=True
        )
        ctx.charge(
            self.rt.costs.pp_insert_ns(machine.workers_per_process)
            * self._insert_penalty(src_process)
        )
        self.stats.atomic_inserts += 1
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        machine = self.rt.machine
        t = machine.workers_per_process
        src_process = machine.process_of_worker(src)
        ctx.charge(
            total * self.rt.costs.pp_insert_ns(t) * self._insert_penalty(src_process)
        )
        self.stats.atomic_inserts += total
        self._insert_grouped(
            ctx, self._tables[src_process], src_process, counts, t,
            src_slot=machine.local_rank_of_worker(src),
        )

    def flush_when_done(self, ctx) -> None:
        """Coordinated end-of-phase flush (``doneInserting`` style).

        Each worker signals once; the shared buffers flush when the last
        worker of the process signals — at most one flush message per
        destination process, matching the paper's PP flush analysis.
        """
        pid = self.rt.machine.process_of_worker(ctx.worker.wid)
        self._done_counts[pid] += 1
        if self._done_counts[pid] >= self.rt.machine.workers_per_process:
            self._done_counts[pid] = 0
            self.stats.flushes_requested += 1
            self._flush_worker(ctx, ctx.worker.wid)

    def _buffers_hosted_by(self, pid: int) -> Iterable[Buffer]:
        """A dead process takes its shared heap — and every source
        buffer pooled in it — down with it."""
        bufs = self._tables[pid]
        yield from list(bufs.values())
        bufs.clear()
        self._done_counts[pid] = 0
