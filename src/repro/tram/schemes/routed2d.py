"""2D topological routing + aggregation (the original TRAM's mechanism).

The previous Charm++ TRAM [Wesolowski et al., ICPP'14] arranged
processes in a virtual N-dimensional grid and routed items through
intermediate hops, aggregating per *next hop* instead of per final
destination: a process keeps one buffer per grid row-mate and column-
mate (O(rows + cols) buffers instead of O(N)), and an intermediate hop
unpacks, re-buffers and forwards.

The paper under reproduction argues this is "less beneficial for modern
topologies like fat-trees": on a distance-insensitive fabric the extra
hop adds a full alpha plus re-buffering work, while the only gain is
fewer buffers/flush messages. This module implements the 2D variant so
that claim is measurable (see ``bench_abl_routing.py``).

Routing rule (column-first): an item for process ``q`` goes directly if
``q`` is in the sender's grid *row*; otherwise it is sent to the
intermediate ``(row(p), col(q))``, which forwards along its column.
Exactly one intermediate hop is ever needed.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.tram.item import Item, ItemBatch
from repro.tram.schemes.base import Buffer, SchemeBase


def grid_shape(n_processes: int) -> Tuple[int, int]:
    """Near-square (rows, cols) factorization with rows*cols >= N."""
    rows = int(math.floor(math.sqrt(n_processes)))
    while rows > 1 and n_processes % rows:
        rows -= 1
    return rows, n_processes // rows


class Routed2DScheme(SchemeBase):
    """WPs-style buffers, but keyed by the 2D-grid *next hop*.

    Per-item fidelity only (an intermediate hop re-inserts items, which
    requires item identity); streaming apps that want flow fidelity
    should use the direct schemes.
    """

    name = "R2D"
    worker_addressed = False

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        if deliver_bulk is not None:
            raise ConfigError("R2D supports per-item fidelity only")
        super().__init__(rt, config, deliver_item, deliver_bulk)
        n = rt.machine.total_processes
        self.rows, self.cols = grid_shape(n)
        if self.rows * self.cols != n:
            raise ConfigError(
                f"{n} processes do not factor into a 2D grid"
            )
        #: Source-worker buffers keyed by next-hop process.
        self._by_worker = [dict() for _ in range(rt.machine.total_workers)]
        #: Forwarding buffers at intermediates, keyed by next hop, shared
        #: per process (any PE of the intermediate may receive the hop).
        self._forward = [dict() for _ in range(n)]
        rt.register_handler(self._ns + ".hop", self._on_hop_msg)

    # ------------------------------------------------------------------
    # Grid arithmetic
    # ------------------------------------------------------------------
    def _coords(self, process: int) -> Tuple[int, int]:
        return process // self.cols, process % self.cols

    def next_hop(self, at_process: int, dst_process: int) -> int:
        """Next process on the row-then-column route towards ``dst``.

        First move within the current row to the destination's column,
        then within that column to the destination row — at most one
        intermediate hop.
        """
        at_row, at_col = self._coords(at_process)
        _, dst_col = self._coords(dst_process)
        if at_col == dst_col:
            return dst_process  # column already correct: go direct
        return at_row * self.cols + dst_col

    def _route(self, at_process: int, dst_process: int) -> int:
        """Next hop with failover around dead intermediaries.

        When the column-first intermediate is confirmed dead, the item
        detours row-first via ``(row(dst), col(at))``; if that is dead
        too it goes direct — the grid is only an aggregation overlay,
        the underlying fabric delivers any pair. Callers filter dead
        *final* destinations before routing.
        """
        hop = self.next_hop(at_process, dst_process)
        dead = self._dead_peers
        if dead is None or hop == dst_process or hop not in dead:
            return hop
        self.stats.failover_reroutes += 1
        dst_row, _ = self._coords(dst_process)
        _, at_col = self._coords(at_process)
        alt = dst_row * self.cols + at_col
        if alt not in dead:
            return alt
        return dst_process

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def _get(self, bufs: dict, hop: int, owner) -> Buffer:
        buf = bufs.get(hop)
        if buf is None:
            buf = self._new_item_buffer((hop, None), owner=owner)
            bufs[hop] = buf
        return buf

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        machine = self.rt.machine
        my_process = machine.process_of_worker(src)
        dst_process = machine.process_of_worker(item.dst)
        hop = self._route(my_process, dst_process)
        buf = self._get(self._by_worker[src], hop, owner=src)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full_hop(ctx, buf, hop)

    def _insert_bulk(self, ctx, src, counts, total) -> None:  # pragma: no cover
        raise ConfigError("R2D supports per-item fidelity only")

    # ------------------------------------------------------------------
    # Hop emission / reception
    # ------------------------------------------------------------------
    def _drain_full_hop(self, ctx, buf: Buffer, hop: int) -> None:
        g = self.config.buffer_items
        while buf.count >= g:
            self._send_hop(ctx, buf, g, hop, full=True)

    def _send_chunk(self, ctx, buf: Buffer, k: int, *, full: bool) -> None:
        # The base-class priority flush lands here; the hop is recorded
        # in the buffer's dest.
        hop, _ = buf.dest
        self._send_hop(ctx, buf, k, hop, full=full)

    def _send_hop(
        self, ctx, buf: Buffer, k: int, hop: int, *,
        full: bool, forwarded: bool = False,
    ) -> None:
        k = min(k, buf.count)
        if k == 0:
            return
        items = buf.drain(k)
        from repro.network.message import NetMessage
        from repro.obs.spans import MsgSpan

        costs = self.rt.costs
        size = costs.message_bytes(len(items), self.config.item_bytes)
        msg = NetMessage(
            kind=self._ns + ".hop",
            src_worker=ctx.worker.wid,
            dst_process=hop,
            dst_worker=None,
            size_bytes=size,
            payload=ItemBatch(items),
            expedited=self.config.expedited,
        )
        if self.stages is not None:
            # Fresh per-hop span: an intermediate attributes only the
            # items it delivers; re-buffered items restart on the next
            # hop's message (earlier legs land in its src_buffer).
            msg.span = MsgSpan()
        ctx.charge(costs.pack_msg_ns)
        if not self.rt.machine.smp:
            ctx.charge(costs.nonsmp_send_service_ns(size))
        if full:
            self.stats.messages_full += 1
        else:
            self.stats.messages_flush += 1
        if forwarded:
            self.stats.messages_forwarded += 1
        self.stats.bytes_sent += size
        ctx.emit(self.rt.transport.send, msg)

    def _on_hop_msg(self, ctx, msg) -> None:
        """At a hop: deliver local items, re-buffer the rest."""
        machine = self.rt.machine
        costs = self.rt.costs
        me_process = machine.process_of_worker(ctx.worker.wid)
        items = msg.payload.items
        ctx.charge(costs.group_cost_ns(len(items), self._t))
        self.stats.group_elements += len(items) + self._t

        local_by_dst: dict = {}
        dead = self._dead_peers
        doomed = 0
        for item in items:
            dst_process = machine.process_of_worker(item.dst)
            if dst_process == me_process:
                local_by_dst.setdefault(item.dst, []).append(item)
            else:
                if dead is not None and dst_process in dead:
                    # Destination died while the item was in transit.
                    doomed += 1
                    continue
                hop = self._route(me_process, dst_process)
                buf = self._get(
                    self._forward[me_process], hop, owner=("f", me_process)
                )
                ctx.charge(costs.item_insert_ns)
                buf.add(item)
                if buf.count >= self.config.buffer_items:
                    self._send_hop(
                        ctx, buf, self.config.buffer_items, hop,
                        full=True, forwarded=True,
                    )
        if doomed:
            self._note_dead_peer_drop(doomed)

        if self.stages is not None:
            local_items = [
                it for section in local_by_dst.values() for it in section
            ]
            self._obs_items_msg(ctx, msg, local_items)

        me = ctx.worker.wid
        for dst, section in local_by_dst.items():
            if dst == me:
                self._deliver_items_here(ctx, section)
            else:
                ctx.charge(costs.local_msg_ns)
                self.stats.local_sections += 1
                ctx.emit(
                    self._post, dst, self._section_items_task, section, ctx.now
                )

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def _on_peer_dead_buffers(self, pid: int) -> None:
        """Failover: re-seat items pooled behind a dead intermediary.

        A buffer keyed by hop ``pid`` holds items for *many* final
        destinations — those whose destination also died are dropped
        and counted; the rest re-buffer under their detour hop.
        Re-seating is pure bookkeeping on the same heap, so it charges
        no CPU (documented simulation shortcut).
        """
        machine = self.rt.machine
        dropped = 0
        for wid, bufs in enumerate(self._by_worker):
            buf = bufs.pop(pid, None)
            if buf is not None:
                dropped += self._reseat(
                    buf, machine.process_of_worker(wid), bufs, wid
                )
        for at, bufs in enumerate(self._forward):
            buf = bufs.pop(pid, None)
            if buf is not None:
                dropped += self._reseat(buf, at, bufs, ("f", at))
        if dropped:
            self._note_dead_peer_drop(dropped)

    def _reseat(self, buf: Buffer, at_process: int, bufs: dict, owner) -> int:
        """Move a dead-hop buffer's items to their failover hops.

        Returns the number of items dropped because their final
        destination is itself dead.
        """
        machine = self.rt.machine
        dead = self._dead_peers
        items = buf.drain(buf.count) if buf.count else []
        dropped = 0
        for item in items:
            dst_process = machine.process_of_worker(item.dst)
            if dst_process in dead:
                dropped += 1
                continue
            hop = self._route(at_process, dst_process)
            nb = self._get(bufs, hop, owner)
            nb.add(item)
        return dropped

    def _buffers_hosted_by(self, pid: int) -> Iterable[Buffer]:
        yield from super()._buffers_hosted_by(pid)
        bufs = self._forward[pid]
        for buf in list(bufs.values()):
            yield buf
        bufs.clear()

    # ------------------------------------------------------------------
    # Flush plumbing
    # ------------------------------------------------------------------
    def _flush_worker(self, ctx, wid: int) -> None:
        if self._defer_if_gated(wid):
            return
        for hop, buf in self._by_worker[wid].items():
            if not buf.empty:
                self._send_hop(ctx, buf, buf.count, hop, full=False)
        # Also push out this process's forwarding buffers so in-transit
        # items are never stranded.
        pid = self.rt.machine.process_of_worker(wid)
        for hop, buf in self._forward[pid].items():
            if not buf.empty:
                self._send_hop(ctx, buf, buf.count, hop, full=False,
                               forwarded=True)

    def _has_pending(self, wid: int) -> bool:
        if any(not b.empty for b in self._by_worker[wid].values()):
            return True
        pid = self.rt.machine.process_of_worker(wid)
        return any(not b.empty for b in self._forward[pid].values())

    def _all_buffers(self) -> Iterable[Buffer]:
        for bufs in self._by_worker:
            yield from bufs.values()
        for bufs in self._forward:
            yield from bufs.values()
