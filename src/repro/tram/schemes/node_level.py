"""Node-level aggregation schemes (the paper's §III-B extension).

    "The same grouping techniques can be extended one level up to the
    physical node, if it houses multiple processes."

The paper defers these; we implement them as extensions:

* :class:`WNsScheme` ("WNs") — each source *worker* keeps one buffer per
  destination **node**. The message lands on one process of that node
  (round-robin); the receiving PE groups by destination worker, local-
  sends the sections for its own process, and *forwards* the sections
  for sibling processes as intra-node messages (pre-grouped, so the
  second hop only dispatches).
* :class:`NNScheme` ("NN") — one **node-shared** buffer per destination
  node on each source node, filled by every worker of the node through
  atomics (contention now spans ``ppn*t`` workers — PP's trade-off,
  amplified).

Compared with WPs/PP these cut the buffer count by another factor of
``processes_per_node`` (fewer, fuller buffers; fewer flush messages)
at the price of an extra intra-node forwarding hop and, for NN,
node-wide atomic contention.
"""

from __future__ import annotations

import numpy as np

from repro.network.message import NetMessage
from repro.tram.buffer import proportional_take
from repro.tram.item import BulkBatch, Item, ItemBatch
from repro.tram.schemes.base import Buffer, SchemeBase, _sections_by_dst


class WNsScheme(SchemeBase):
    """Worker-to-node aggregation, destination-side grouping + forward."""

    name = "WNs"

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        #: Round-robin pointer per (src worker) for target-process choice.
        self._rr = [0] * rt.machine.total_workers
        rt.register_handler(self._ns + ".n", self._on_node_msg)

    # ------------------------------------------------------------------
    # Buffering: per source worker, {dst_node: buffer}
    # ------------------------------------------------------------------
    def _new_buffer(self, dst_node: int, owner, item_mode: bool) -> Buffer:
        # The node is routed to one of its processes at emission time.
        return self._new_group_buffer(
            dst_node, item_mode, self.rt.machine.workers_of_node
        )

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        dst_node = self.rt.machine.node_of_worker(item.dst)
        buf = self._get(self._tables[src], dst_node, src, item_mode=True)
        ctx.charge(self.rt.costs.item_insert_ns * self._insert_penalty(src))
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        ctx.charge(
            total * self.rt.costs.item_insert_ns * self._insert_penalty(src)
        )
        self._insert_grouped(
            ctx, self._tables[src], src, counts, self.rt.machine.workers_per_node
        )

    # ------------------------------------------------------------------
    # Emission: route the node-addressed message to one of its processes
    # ------------------------------------------------------------------
    def _send_chunk(self, ctx, buf: Buffer, k: int, *, full: bool) -> None:
        payload = self._carve(buf, k)
        src = ctx.worker.wid
        procs = self.rt.machine.processes_of_node(buf.dest[0])
        dead = self._dead_peers
        if dead is not None:
            alive = [p for p in procs if p not in dead]
            if not alive:
                # The whole node died under us: nothing there can
                # receive or forward. Drop and loss-account.
                self._note_dead_peer_drop(k)
                return
            if len(alive) < len(procs):
                # Round-robin failover: steer to a surviving sibling.
                self.stats.failover_reroutes += 1
            procs = alive
        dst_process = procs[self._rr[src] % len(procs)]
        self._rr[src] += 1
        self._emit_message(
            ctx, payload, k, dst_process, None, full=full, kind=".n"
        )

    # ------------------------------------------------------------------
    # Destination: group across the node, deliver local, forward rest
    # ------------------------------------------------------------------
    def _on_node_msg(self, ctx, msg: NetMessage) -> None:
        machine = self.rt.machine
        me_process = machine.process_of_worker(ctx.worker.wid)
        wpn = machine.workers_per_node
        payload = msg.payload
        ctx.charge(self.rt.costs.group_cost_ns(payload.count, wpn))
        self.stats.group_elements += payload.count + wpn
        dead = self._dead_peers

        if isinstance(payload, ItemBatch):
            by_process: dict = {}
            for item in payload.items:
                by_process.setdefault(
                    machine.process_of_worker(item.dst), []
                ).append(item)
            if self.stages is not None:
                # Attribute the span to the locally delivered portion
                # only; forwarded items restart attribution on the
                # intra-node leg's fresh span.
                self._obs_items_msg(ctx, msg, by_process.get(me_process, ()))
            for pid, items in by_process.items():
                if pid == me_process:
                    self._fan_out_items(ctx, _sections_by_dst(items))
                elif dead is not None and pid in dead:
                    # Sibling died while the batch was in flight; its
                    # items are undeliverable (they target its workers).
                    self._note_dead_peer_drop(len(items))
                else:
                    # One intra-node message to the sibling, handled by
                    # the base process handler; pre-grouped, so the
                    # sibling only dispatches.
                    items.sort(key=lambda it: it.dst)
                    batch = ItemBatch(
                        items, grouped=True, sections=_sections_by_dst(items)
                    )
                    self._emit_message(
                        ctx, batch, len(items), pid, None,
                        full=None, forwarded=True,
                    )
            return

        # Bulk: split per destination process, pro-rata on sources/time.
        src_ids, src_counts = self._src_breakdown(msg, payload)
        remaining_src = src_counts.copy()
        remaining_total = payload.count
        mean_t = payload.t_sum / payload.count
        t = machine.workers_per_process
        node = machine.node_of_process(me_process)
        for i, pid in enumerate(machine.processes_of_node(node)):
            lo = i * t
            section = payload.dst_counts[lo : lo + t]
            n = int(section.sum())
            if n == 0:
                continue
            section_src = proportional_take(remaining_src, n, remaining_total)
            remaining_src = remaining_src - section_src
            remaining_total -= n
            sub = BulkBatch(
                count=n,
                dst_ids=payload.dst_ids[lo : lo + t],
                dst_counts=section.copy(),
                src_ids=src_ids,
                src_counts=section_src,
                t_sum=n * mean_t,
                t_min=payload.t_min,
                grouped=True,
            )
            if pid == me_process:
                if self.stages is not None:
                    self._obs_msg(ctx, msg, n, sub.t_sum)
                self._fan_out_counts(ctx, sub, src_ids, section_src)
            elif dead is not None and pid in dead:
                self._note_dead_peer_drop(n)
            else:
                self._emit_message(
                    ctx, sub, n, pid, None, full=None, forwarded=True
                )

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def _on_peer_dead_buffers(self, pid: int) -> None:
        """Node-addressed buffers survive a single process death — the
        round-robin emitter steers around the dead sibling. Only a node
        with no surviving process makes its buffers undeliverable."""
        machine = self.rt.machine
        node = machine.node_of_process(pid)
        if all(p in self._dead_peers for p in machine.processes_of_node(node)):
            self._drop_buffers_to(node)


class NNScheme(WNsScheme):
    """Node-to-node aggregation: node-shared source buffers (atomics)."""

    name = "NN"

    def __init__(self, rt, config, deliver_item=None, deliver_bulk=None) -> None:
        super().__init__(rt, config, deliver_item, deliver_bulk)
        nodes = rt.machine.nodes
        #: Per source node: {dst_node: buffer}, shared by its workers.
        self._tables = [{} for _ in range(nodes)]
        self._done_counts = [0] * nodes
        #: Done-signals needed before the coordinated flush fires; drops
        #: when a process on the node dies (its workers can never
        #: signal), so survivors are not deadlocked waiting on ghosts.
        self._done_threshold = [rt.machine.workers_per_node] * nodes

    def _table(self, wid: int) -> dict:
        return self._tables[self.rt.machine.node_of_worker(wid)]

    def _new_buffer(self, dst_node: int, owner, item_mode: bool) -> Buffer:
        return self._new_group_buffer(
            dst_node, item_mode, self.rt.machine.workers_of_node, owner
        )

    def _atomic_charge(self) -> float:
        """Node-wide shared buffers: contention spans all node workers."""
        return self.rt.costs.pp_insert_ns(self.rt.machine.workers_per_node)

    def _insert_item(self, ctx, src: int, item: Item) -> None:
        machine = self.rt.machine
        src_node = machine.node_of_worker(src)
        dst_node = machine.node_of_worker(item.dst)
        buf = self._get(self._tables[src_node], dst_node, src_node, item_mode=True)
        ctx.charge(self._atomic_charge() * self._insert_penalty(src_node))
        self.stats.atomic_inserts += 1
        buf.add(item)
        if not self._maybe_priority_flush(ctx, buf, item):
            self._drain_full(ctx, buf)

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        machine = self.rt.machine
        src_node = machine.node_of_worker(src)
        ctx.charge(
            total * self._atomic_charge() * self._insert_penalty(src_node)
        )
        self.stats.atomic_inserts += total
        self._insert_grouped(
            ctx, self._tables[src_node], src_node, counts,
            machine.workers_per_node,
            src_slot=src - machine.workers_of_node(src_node).start,
        )

    def flush_when_done(self, ctx) -> None:
        """Coordinated flush across the whole source node."""
        node = self.rt.machine.node_of_worker(ctx.worker.wid)
        self._done_counts[node] += 1
        if self._done_counts[node] >= self._done_threshold[node]:
            self._done_counts[node] = 0
            self.stats.flushes_requested += 1
            self._flush_worker(ctx, ctx.worker.wid)

    def _buffers_hosted_by(self, pid: int):
        """None: node-shared buffers outlive one dead process of their
        node."""
        return ()

    def on_process_crashed(self, pid: int) -> None:
        super().on_process_crashed(pid)
        node = self.rt.machine.node_of_process(pid)
        self._done_threshold[node] -= self.rt.machine.workers_per_process
