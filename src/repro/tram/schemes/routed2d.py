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

from repro.errors import ConfigError
from repro.tram.buffer import ItemBuffer
from repro.tram.item import Item
from repro.tram.schemes.base import Buffer, SchemeBase, _sections_by_dst


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
    _buffer_kind = ".hop"

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
        #: Forwarding buffers at intermediates, keyed by next hop, shared
        #: per process (any PE of the intermediate may receive the hop).
        #: Source-worker buffers, keyed by next hop, are the base tables.
        self._forward = [dict() for _ in range(n)]
        rt.register_handler(self._ns + ".hop", self._on_hop_msg)

    # ------------------------------------------------------------------
    # Grid arithmetic: process p sits at (row, col) = divmod(p, cols)
    # ------------------------------------------------------------------
    def next_hop(self, at_process: int, dst_process: int) -> int:
        """Next process on the row-then-column route towards ``dst``.

        First move within the current row to the destination's column,
        then within that column to the destination row — at most one
        intermediate hop.
        """
        cols = self.cols
        dst_col = dst_process % cols
        if at_process % cols == dst_col:
            return dst_process  # column already correct: go direct
        return at_process // cols * cols + dst_col

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
        cols = self.cols
        alt = dst_process // cols * cols + at_process % cols
        if alt not in dead:
            return alt
        return dst_process

    # ------------------------------------------------------------------
    # Source side
    # ------------------------------------------------------------------
    def _new_buffer(self, hop: int, owner, item_mode: bool) -> Buffer:
        return ItemBuffer(self.config.buffer_items, (hop, None))

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        machine = self.rt.machine
        my_process = machine.process_of_worker(src)
        dst_process = machine.process_of_worker(item.dst)
        hop = self._route(my_process, dst_process)
        buf = self._get(self._tables[src], hop, src, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            # Unlike _drain_full, no overload buffer growth.
            g = self.config.buffer_items
            while buf.count >= g:
                self._send_chunk(ctx, buf, g, full=True)

    # ------------------------------------------------------------------
    # Hop reception
    # ------------------------------------------------------------------
    def _on_hop_msg(self, ctx, msg) -> None:
        """At a hop: deliver local items, re-buffer the rest."""
        machine = self.rt.machine
        costs = self.rt.costs
        me_process = machine.process_of_worker(ctx.worker.wid)
        items = msg.payload.items
        ctx.charge(costs.group_cost_ns(len(items), self._t))
        self.stats.group_elements += len(items) + self._t

        local = []
        dead = self._dead_peers
        doomed = 0
        g = self.config.buffer_items
        for item in items:
            dst_process = machine.process_of_worker(item.dst)
            if dst_process == me_process:
                local.append(item)
            elif dead is not None and dst_process in dead:
                # Destination died while the item was in transit.
                doomed += 1
            else:
                hop = self._route(me_process, dst_process)
                buf = self._get(
                    self._forward[me_process], hop, ("f", me_process),
                    item_mode=True,
                )
                ctx.charge(costs.item_insert_ns)
                buf.add(item)
                if buf.count >= g:
                    self._send_chunk(ctx, buf, g, full=True, forwarded=True)
        if doomed:
            self._note_dead_peer_drop(doomed)

        sections = _sections_by_dst(local)
        if self.stages is not None:
            self._obs_items_msg(
                ctx, msg, [it for _, section in sections for it in section]
            )
        self._fan_out_items(ctx, sections)

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
        for wid, bufs in enumerate(self._tables):
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
            self._get(bufs, hop, owner, item_mode=True).add(item)
        return dropped

    def _buffers_hosted_by(self, pid: int) -> Iterable[Buffer]:
        yield from super()._buffers_hosted_by(pid)
        bufs = self._forward[pid]
        yield from list(bufs.values())
        bufs.clear()

    # ------------------------------------------------------------------
    # Flush plumbing: the source table, then this process's forwarding
    # buffers, so in-transit items are never stranded
    # ------------------------------------------------------------------
    def _flush_worker(self, ctx, wid: int) -> None:
        if self._defer_if_gated(wid):
            return
        for buf in self._tables[wid].values():
            if not buf.empty:
                self._send_chunk(ctx, buf, buf.count, full=False)
        pid = self.rt.machine.process_of_worker(wid)
        for buf in self._forward[pid].values():
            if not buf.empty:
                self._send_chunk(ctx, buf, buf.count, full=False, forwarded=True)

    def _has_pending(self, wid: int) -> bool:
        pid = self.rt.machine.process_of_worker(wid)
        return super()._has_pending(wid) or any(
            not b.empty for b in self._forward[pid].values()
        )

    def _all_buffers(self) -> Iterable[Buffer]:
        yield from super()._all_buffers()
        for bufs in self._forward:
            yield from bufs.values()
