"""Shared machinery of all aggregation schemes.

The base class owns everything that is identical across schemes —
destination-side processing (grouping, section fan-out, delivery,
latency accounting), local-bypass of intra-process items, flush
plumbing (explicit, idle-hook, timer, priority), message emission with
resizing, and statistics — so each concrete scheme only decides *where
buffers live* and *how inserts find them* (the actual design axis the
paper studies).

Handler wiring: each scheme instance registers two message kinds under a
unique namespace — ``<ns>.w`` for worker-addressed batches (WW/direct)
and ``<ns>.p`` for process-addressed batches (WPs/WsP/PP). Multiple
instances can coexist on one runtime (index-gather uses one for
requests, one for responses).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.network.message import NetMessage
from repro.obs.spans import MsgSpan, NodeShardedStageLatency, StageLatency
from repro.tram.buffer import CountBuffer, ItemBuffer, proportional_take
from repro.tram.config import TramConfig
from repro.tram.item import BulkBatch, Item, ItemBatch
from repro.tram.stats import LatencyAggregate, NodeShardedLatency, TramStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import ExecContext
    from repro.runtime.system import RuntimeSystem

Buffer = Union[ItemBuffer, CountBuffer]

_instance_ids = itertools.count()


class _TimerGroup:
    """One armed flush deadline shared by every buffer that reached it
    together.

    Buffers armed by the same task share ``engine.now`` and the same
    timeout arithmetic, so their flush deadlines are bit-identical —
    WW arms up to ``total_workers - 1`` buffers per bulk insert. One
    timer event per ``(owner_wid, deadline)`` replaces N per-buffer
    timers; members detach in O(1) when a capacity-triggered send
    empties them, and the group's event is cancelled when the last
    member leaves. Flush timeouts are off unless
    ``TramConfig.flush_timeout_ns`` is set.

    ``buffers`` is insertion-ordered (dict), so a firing group posts its
    flush tasks in arm order — the order the per-buffer timers would
    have fired in.
    """

    __slots__ = ("key", "event", "buffers")

    def __init__(self, key) -> None:
        self.key = key
        self.event = None
        self.buffers: dict = {}


class SchemeBase:
    """Common TramLib behaviour; subclasses choose buffer placement.

    Parameters
    ----------
    rt:
        The runtime to attach to (handlers are registered immediately).
    config:
        Buffer depth, item size and flush behaviour.
    deliver_item:
        ``fn(ctx, item)`` invoked at the destination PE for every item
        inserted through :meth:`insert` (per-item mode).
    deliver_bulk:
        ``fn(ctx, dst_worker, count, src_ids, src_counts)`` invoked at
        the destination PE for items inserted through
        :meth:`insert_bulk` (flow mode). ``src_ids``/``src_counts`` are
        aligned numpy arrays attributing the items to source workers.
    """

    #: Scheme name as used in the paper (set by subclasses).
    name = "?"
    #: Whether source buffers are addressed per destination worker
    #: (WW / direct) rather than per destination process.
    worker_addressed = False

    def __init__(
        self,
        rt: "RuntimeSystem",
        config: TramConfig,
        deliver_item: Optional[Callable] = None,
        deliver_bulk: Optional[Callable] = None,
    ) -> None:
        if deliver_item is None and deliver_bulk is None:
            raise ConfigError("provide deliver_item and/or deliver_bulk")
        self.rt = rt
        self.config = config
        self.deliver_item = deliver_item
        self.deliver_bulk = deliver_bulk
        # Multi-node runtimes shard the order-sensitive float
        # accumulators per simulated node; the fixed fold order sets
        # their bytes — see NodeShardedLatency.
        n_nodes = rt.machine.nodes
        self.stats = TramStats(
            latency=(
                LatencyAggregate(
                    config.latency_sample,
                    seed=rt.rng.root_seed,
                    histogram=rt.obs_enabled,
                )
                if n_nodes == 1
                else NodeShardedLatency(
                    n_nodes,
                    rt.engine,
                    config.latency_sample,
                    seed=rt.rng.root_seed,
                    histogram=rt.obs_enabled,
                )
            )
        )
        #: Per-stage latency histograms; ``None`` when observability is
        #: off (the hot path then only pays ``is None`` checks).
        self.stages: Optional[StageLatency] = (
            (
                StageLatency()
                if n_nodes == 1
                else NodeShardedStageLatency(n_nodes, rt.engine)
            )
            if rt.obs_enabled
            else None
        )
        rt.schemes.append(self)
        self._t = rt.machine.workers_per_process
        #: Directed ``(src_process, dst_process)`` pairs the reliability
        #: layer gave up on; ``None`` until the first degradation so the
        #: fault-free insert path pays one ``is None`` check.
        self._degraded: Optional[set] = None
        #: Destination processes the failure detector confirmed dead;
        #: ``None`` until the first death so the crash-free insert path
        #: pays one ``is None`` check.
        self._dead_peers: Optional[set] = None
        #: Flush-timer scale; drops below 1.0 when a destination
        #: degrades (see :meth:`on_destination_degraded`).
        self._flush_timeout_scale = 1.0
        #: Overload escalation state (see :meth:`on_overload`): both
        #: exactly 1.0 until the flow controller escalates, so default
        #: arithmetic is unchanged bit for bit.
        self._overload_flush_scale = 1.0
        self._overload_capacity_mult = 1.0
        #: Allocated buffer bytes per owner (worker id, or ("p", pid) for
        #: shared process buffers) — drives the cache-footprint penalty.
        self._footprint: dict = {}
        #: Live flush-timer groups keyed by ``(owner_wid, deadline)``;
        #: each holds one engine timer event shared by all buffers whose
        #: flush timeout lands on that exact deadline.
        self._timer_groups: dict = {}
        self._ns = f"tram/{next(_instance_ids)}/{self.name}"
        rt.register_handler(self._ns + ".w", self._on_worker_msg)
        rt.register_handler(self._ns + ".p", self._on_process_msg)
        if config.idle_flush:
            for worker in rt.workers:
                worker.idle_hooks.append(self._idle_hook)

    # ==================================================================
    # Public API (called from inside worker handlers)
    # ==================================================================
    def insert(
        self,
        ctx: "ExecContext",
        dst: int,
        payload=None,
        priority: Optional[float] = None,
    ) -> None:
        """Hand one item to TramLib (per-item fidelity).

        The item is delivered to ``deliver_item`` on the destination PE,
        eventually — when its buffer fills, or on a flush.
        """
        src = ctx.worker.wid
        item = Item(dst, src, ctx.now, payload, priority)
        self.stats.items_inserted += 1
        machine = self.rt.machine
        if self.config.bypass_local and machine.same_process(src, dst):
            self.stats.items_bypassed_local += 1
            ctx.charge(self.rt.costs.local_msg_ns)
            # ctx.now == item.created, so with observability on the whole
            # bypass latency lands in the local_delivery stage.
            ctx.emit(self._post, dst, self._section_items_task, [item], ctx.now)
            return
        dead = self._dead_peers
        if dead is not None and machine.process_of_worker(dst) in dead:
            # The final destination is confirmed dead: the item can never
            # be delivered. Count it at the insert site so the
            # conservation ledger closes without a wasted network trip.
            self._note_dead_peer_drop(1)
            return
        flow = self.rt.flow
        if flow is not None:
            stall = flow.source_stall_ns(ctx)
            if stall > 0.0:
                # Backpressure: the producing task absorbs the wait as
                # CPU time instead of the pipeline growing queues.
                ctx.charge(stall)
        if self._degraded is not None and (
            machine.process_of_worker(src),
            machine.process_of_worker(dst),
        ) in self._degraded:
            self._direct_fallback_item(ctx, item)
            return
        self._insert_item(ctx, src, item)

    def insert_bulk(self, ctx: "ExecContext", counts: np.ndarray) -> None:
        """Hand many items to TramLib at once (flow fidelity).

        Parameters
        ----------
        counts:
            Integer array of length ``total_workers``: how many items go
            to each destination worker. The array is consumed (copied
            internally); items are timestamped at the task's start time.
        """
        src = ctx.worker.wid
        counts = np.asarray(counts, dtype=np.int64).copy()
        total = int(counts.sum())
        if total == 0:
            return
        self.stats.items_inserted += total
        machine = self.rt.machine
        if self.config.bypass_local:
            own = machine.workers_of_process(machine.process_of_worker(src))
            lo, hi = own.start, own.stop
            local = counts[lo:hi]
            n_local = int(local.sum())
            if n_local:
                now = ctx.now
                for rank in np.nonzero(local)[0]:
                    dst = lo + int(rank)
                    n = int(local[rank])
                    ctx.charge(self.rt.costs.local_msg_ns)
                    ctx.emit(
                        self._post,
                        dst,
                        self._section_bulk_task,
                        n,
                        np.array([src]),
                        np.array([n]),
                        n * now,
                        now,
                        now,  # t0: bypass latency -> local_delivery stage
                    )
                self.stats.items_bypassed_local += n_local
                counts[lo:hi] = 0
                total -= n_local
        if total:
            flow = self.rt.flow
            if flow is not None:
                stall = flow.source_stall_ns(ctx)
                if stall > 0.0:
                    ctx.charge(stall)
            if self._degraded is not None:
                total -= self._direct_fallback_bulk(ctx, src, counts)
        if total and self._dead_peers is not None:
            total -= self._dead_peel_bulk(counts)
        if total:
            self._insert_bulk(ctx, src, counts, total)

    def flush(self, ctx: "ExecContext") -> None:
        """Flush every buffer owned by the calling worker.

        For worker-owned schemes this is the paper's per-PE flush call;
        for PP it flushes the calling worker's *process* buffers (shared
        buffers belong to everyone).
        """
        self.stats.flushes_requested += 1
        self._flush_worker(ctx, ctx.worker.wid)

    def flush_when_done(self, ctx: "ExecContext") -> None:
        """End-of-phase flush: the paper's per-PE flush call.

        For worker-owned buffers this equals :meth:`flush`. PP overrides
        it with process-coordinated semantics (Charm++ ``doneInserting``
        style): shared buffers flush once, after *all* of the process's
        workers have signalled completion — giving the §III-C bound of
        at most ``N`` flush messages per process.
        """
        self.flush(ctx)

    def pending_items(self) -> int:
        """Items sitting in buffers, not yet sent (for tests/QD checks)."""
        return sum(buf.count for buf in self._all_buffers())

    # ==================================================================
    # Subclass interface
    # ==================================================================
    def _insert_item(self, ctx, src: int, item: Item) -> None:
        raise NotImplementedError

    def _insert_bulk(self, ctx, src: int, counts: np.ndarray, total: int) -> None:
        raise NotImplementedError

    def _flush_worker(self, ctx, wid: int) -> None:
        raise NotImplementedError

    def _has_pending(self, wid: int) -> bool:
        raise NotImplementedError

    def _all_buffers(self) -> Iterable[Buffer]:
        raise NotImplementedError

    # ==================================================================
    # Buffer lifecycle helpers (used by subclasses)
    # ==================================================================
    def _new_item_buffer(
        self, dest: Tuple[int, Optional[int]], owner=None
    ) -> ItemBuffer:
        self._account_buffer(owner)
        return ItemBuffer(self.config.buffer_items, dest=dest)

    def _new_count_buffer(
        self,
        dest: Tuple[int, Optional[int]],
        dst_ids: Optional[np.ndarray] = None,
        src_ids: Optional[np.ndarray] = None,
        owner=None,
    ) -> CountBuffer:
        self._account_buffer(owner)
        return CountBuffer(
            self.config.buffer_items, dst_ids=dst_ids, src_ids=src_ids, dest=dest
        )

    def _account_buffer(self, owner=None) -> None:
        nbytes = self.config.buffer_items * self.config.item_bytes
        self.stats.buffers_allocated += 1
        self.stats.buffer_bytes_allocated += nbytes
        if owner is not None:
            self._footprint[owner] = self._footprint.get(owner, 0) + nbytes

    def _insert_penalty(self, owner) -> float:
        """Cache-footprint multiplier for inserts by this owner."""
        return self.rt.costs.cache_penalty(self._footprint.get(owner, 0))

    # ==================================================================
    # Sending
    # ==================================================================
    def _drain_full(self, ctx, buf: Buffer) -> None:
        """Send as many full ``g``-item messages as the buffer holds."""
        g = self.config.buffer_items
        if self._overload_capacity_mult != 1.0:
            # Overload escalation: fewer, larger messages relieve the
            # per-message comm-thread bottleneck (§III-A).
            g = int(g * self._overload_capacity_mult)
        while buf.count >= g:
            self._send_chunk(ctx, buf, g, full=True)

    def _send_chunk(self, ctx, buf: Buffer, k: int, *, full: bool) -> None:
        """Carve ``k`` items (or everything, if fewer) into one message."""
        k = min(k, buf.count)
        if k == 0:
            return
        if isinstance(buf, ItemBuffer):
            items = buf.drain(k)
            payload: Union[ItemBatch, BulkBatch] = ItemBatch(items)
            count = len(items)
        else:
            payload = buf.take(k)
            count = payload.count
        if buf.empty and buf.timer_event is not None:
            self._release_timer(buf)
        dst_process, dst_worker = buf.dest
        self._emit_message(ctx, payload, count, dst_process, dst_worker, full=full)

    def _emit_message(
        self,
        ctx,
        payload,
        count: int,
        dst_process: int,
        dst_worker: Optional[int],
        *,
        full: bool,
    ) -> None:
        """Package a batch and release it at task completion."""
        costs = self.rt.costs
        group_ns = self._prepare_payload(ctx, payload, count)
        size = costs.message_bytes(count, self.config.item_bytes)
        kind = self._ns + (".w" if dst_worker is not None else ".p")
        msg = NetMessage(
            kind=kind,
            src_worker=ctx.worker.wid,
            dst_process=dst_process,
            dst_worker=dst_worker,
            size_bytes=size,
            payload=payload,
            expedited=self.config.expedited,
        )
        if self.stages is not None:
            msg.span = MsgSpan(group_ns)
        ctx.charge(costs.pack_msg_ns)
        if not self.rt.machine.smp:
            ctx.charge(costs.nonsmp_send_service_ns(size))
        if full:
            self.stats.messages_full += 1
        else:
            self.stats.messages_flush += 1
        self.stats.bytes_sent += size
        ctx.emit(self.rt.transport.send, msg)

    def _prepare_payload(self, ctx, payload, count: int) -> float:
        """Hook for source-side grouping (overridden by WsP).

        Returns the grouping CPU nanoseconds charged, so the span can
        attribute them to the ``src_group`` stage.
        """
        return 0.0

    # ==================================================================
    # Degraded-mode fallback (reliability retry budget exhausted)
    # ==================================================================
    def on_destination_degraded(self, src_process: int, dst_process: int) -> None:
        """Reliability-layer callback: the channel to ``dst_process`` is
        lossy beyond repair. Stop pooling items behind it — subsequent
        inserts for that pair travel as direct worker-addressed sends,
        flush timers escalate, and whatever is already buffered at the
        source is pushed out immediately."""
        pair = (src_process, dst_process)
        if self._degraded is None:
            self._degraded = set()
        elif pair in self._degraded:
            return
        self._degraded.add(pair)
        self.stats.degraded_destinations += 1
        if self.config.flush_timeout_ns is not None:
            self._flush_timeout_scale = 1.0 / self.config.degraded_flush_divisor
            self.stats.flush_escalations += 1
        for wid in self.rt.machine.workers_of_process(src_process):
            if self._has_pending(wid):
                self.rt.worker(wid).post_task(
                    self._flush_task, expedited=self.config.expedited
                )

    # ==================================================================
    # Crash fabric (failure-detector / runtime callbacks)
    # ==================================================================
    def on_peer_dead(self, pid: int) -> None:
        """Failure-detector callback: process ``pid`` is confirmed dead.

        Subsequent inserts addressed to its workers are dropped (and
        loss-accounted) at the insert site; whatever is already buffered
        for it is handled per scheme — the base behaviour drops
        dest-addressed buffers, routed schemes reroute around a dead
        intermediary (see :meth:`_on_peer_dead_buffers` overrides).
        """
        if self._dead_peers is None:
            self._dead_peers = set()
        elif pid in self._dead_peers:
            return
        self._dead_peers.add(pid)
        self._on_peer_dead_buffers(pid)

    def _on_peer_dead_buffers(self, pid: int) -> None:
        """Dispose of buffers already pooled behind a dead peer.

        Default: every buffer whose destination process is ``pid`` can
        never deliver — drop and count. Node-addressed (WNs/NN) and
        routed (Routed2D) schemes override: their buffer keys are not
        final destinations, so they fail over instead.
        """
        dropped = 0
        for buf in self._all_buffers():
            if buf.count and buf.dest[0] == pid:
                dropped += self._discard_buffer(buf)
        if dropped:
            self._note_dead_peer_drop(dropped)

    def on_process_crashed(self, pid: int) -> None:
        """Runtime callback: ``pid`` just died (ground truth, fired with
        the crash event itself). Whatever its own workers had buffered —
        and, per scheme, any shared or forwarding buffers it hosted —
        died with its heap: drain and count the loss so the conservation
        ledger stays exact."""
        lost = 0
        for buf in self._buffers_hosted_by(pid):
            lost += self._discard_buffer(buf)
        if lost:
            faults = self.rt.faults
            if faults is not None:
                faults.note_crash_items(lost)

    def on_peer_restarted(self, pid: int) -> None:
        """Runtime callback: ``pid`` rejoined. New inserts pool behind
        it again; work lost to the crash stays lost."""
        if self._dead_peers is not None:
            self._dead_peers.discard(pid)

    def _buffers_hosted_by(self, pid: int) -> Iterable[Buffer]:
        """Buffers living in the dead process's heap.

        The default covers the common worker-owned layout
        (``self._by_worker`` indexed by wid); schemes with shared
        process/node buffers or forwarding buffers override or extend
        it. Yielded buffers are detached so a restart starts clean.
        """
        by_worker = getattr(self, "_by_worker", None)
        if by_worker is None:
            return
        for wid in self.rt.machine.workers_of_process(pid):
            bufs = by_worker[wid]
            for buf in list(bufs.values()):
                yield buf
            bufs.clear()

    def _discard_buffer(self, buf: Buffer) -> int:
        """Empty one buffer without sending; returns the items lost."""
        n = buf.count
        if n:
            if isinstance(buf, ItemBuffer):
                buf.drain(n)
            else:
                buf.take(n)
        if buf.timer_event is not None:
            self._release_timer(buf)
        return n

    def _note_dead_peer_drop(self, items: int) -> None:
        self.stats.dead_peer_drops += items
        faults = self.rt.faults
        if faults is not None:
            faults.note_crash_items(items)

    def _dead_peel_bulk(self, counts: np.ndarray) -> int:
        """Zero out bulk-insert slots addressed to dead processes."""
        machine = self.rt.machine
        dead = self._dead_peers
        peeled = 0
        for rank in np.nonzero(counts)[0]:
            if machine.process_of_worker(int(rank)) in dead:
                peeled += int(counts[rank])
                counts[rank] = 0
        if peeled:
            self._note_dead_peer_drop(peeled)
        return peeled

    # ==================================================================
    # Overload escalation (flow-controller callbacks)
    # ==================================================================
    def on_overload(self) -> None:
        """Flow-controller callback: the pipeline is congested.

        Stretch flush timers (fire less often) and grow the effective
        buffer capacity (fewer, larger messages) by the configured
        factors until the overload clears. The inverse of the degraded
        escalation: overload wants *less* message pressure, a lossy
        channel wants items out *faster*.
        """
        self._overload_flush_scale = self.config.overload_flush_stretch
        self._overload_capacity_mult = self.config.overload_buffer_growth
        self.stats.overload_escalations += 1

    def on_overload_cleared(self) -> None:
        """Flow-controller callback: backlog drained; restore defaults."""
        self._overload_flush_scale = 1.0
        self._overload_capacity_mult = 1.0

    def _direct_fallback_item(self, ctx, item: Item) -> None:
        """Send one item straight to its destination PE, unaggregated."""
        self.stats.direct_fallback_sends += 1
        self._emit_message(
            ctx,
            ItemBatch([item]),
            1,
            self.rt.machine.process_of_worker(item.dst),
            item.dst,
            full=False,
        )

    def _direct_fallback_bulk(self, ctx, src: int, counts: np.ndarray) -> int:
        """Peel degraded destinations out of a bulk insert.

        Each affected destination worker gets its own direct message;
        returns how many items were peeled off (``counts`` is zeroed in
        place for them).
        """
        machine = self.rt.machine
        src_pid = machine.process_of_worker(src)
        now = ctx.now
        peeled = 0
        for rank in np.nonzero(counts)[0]:
            dst = int(rank)
            dst_pid = machine.process_of_worker(dst)
            if (src_pid, dst_pid) not in self._degraded:
                continue
            n = int(counts[rank])
            payload = BulkBatch(
                count=n,
                dst_ids=None,
                dst_counts=None,
                src_ids=np.array([src], dtype=np.int64),
                src_counts=np.array([n], dtype=np.int64),
                t_sum=n * now,
                t_min=now,
            )
            self.stats.direct_fallback_sends += n
            self._emit_message(ctx, payload, n, dst_pid, dst, full=False)
            counts[rank] = 0
            peeled += n
        return peeled

    # ==================================================================
    # Flush plumbing
    # ==================================================================
    def _idle_hook(self, worker) -> None:
        if self._has_pending(worker.wid):
            # While the source gate is blocked, register for a deferred
            # flush instead of posting a task: a zero-cost flush task
            # would re-trigger this hook at the same timestamp forever.
            if self._defer_if_gated(worker.wid):
                return
            worker.post_task(self._flush_task)

    def _defer_if_gated(self, wid: int) -> bool:
        """Whether a non-full flush should wait for send credits."""
        flow = self.rt.flow
        return flow is not None and flow.defer_flush(self, wid)

    def _flush_task(self, ctx) -> None:
        self._flush_worker(ctx, ctx.worker.wid)

    def _arm_timer(self, buf: Buffer, owner_wid: int) -> None:
        timeout = self.config.flush_timeout_ns
        if timeout is None or buf.timer_event is not None or buf.empty:
            return
        # Scales are exactly 1.0 until a destination degrades or the
        # flow controller escalates, so the default timer arithmetic is
        # unchanged bit for bit.
        engine = self.rt.engine
        deadline = engine.now + (
            timeout * self._flush_timeout_scale * self._overload_flush_scale
        )
        key = (owner_wid, deadline)
        group = self._timer_groups.get(key)
        if group is None:
            # Armed with timer_at so it waits in the engine's timer
            # queue; a capacity-triggered send that empties every
            # member cancels it.
            group = _TimerGroup(key)
            group.event = engine.timer_at(deadline, self._timer_group_fire, key)
            self._timer_groups[key] = group
        group.buffers[id(buf)] = buf
        buf.timer_event = group

    def _release_timer(self, buf: Buffer) -> None:
        """Detach an emptied buffer from its flush-deadline group; the
        shared timer event is cancelled once no members remain."""
        group = buf.timer_event
        buf.timer_event = None
        members = group.buffers
        del members[id(buf)]
        if not members:
            self.rt.engine.cancel(group.event)
            del self._timer_groups[group.key]

    def _timer_group_fire(self, key) -> None:
        group = self._timer_groups.pop(key)
        worker = self.rt.worker(key[0])
        for buf in group.buffers.values():
            buf.timer_event = None
            if not buf.empty:
                worker.post_task(self._flush_buffer_task, buf)

    def _flush_buffer_task(self, ctx, buf: Buffer) -> None:
        if buf.empty:
            return
        if self._defer_if_gated(ctx.worker.wid):
            return
        self._send_chunk(ctx, buf, buf.count, full=False)

    def _maybe_priority_flush(self, ctx, buf: Buffer, item: Item) -> bool:
        """Priority-aware flushing (paper future work): urgent item ->
        flush its buffer immediately. Returns True if flushed."""
        threshold = self.config.priority_threshold
        if (
            threshold is not None
            and item.priority is not None
            and item.priority <= threshold
            and not buf.empty
        ):
            self.stats.priority_flushes += 1
            self._send_chunk(ctx, buf, buf.count, full=False)
            return True
        return False

    # ==================================================================
    # Destination side
    # ==================================================================
    def _post(self, wid: int, fn, *args) -> None:
        """Emission target: queue a section task with the right lane."""
        self.rt.worker(wid).post_task(fn, *args, expedited=self.config.expedited)

    def _obs_msg(self, ctx, msg: NetMessage, count: int, t_sum: float) -> None:
        """Fold a terminal message's span into the stage histograms.

        Called once per message, at the start of the handler that
        consumes it. ``count``/``t_sum`` cover the items this handler is
        responsible for (multi-hop schemes call this with only the
        locally-delivered portion; forwarded items restart attribution
        on the next leg's message).
        """
        span = msg.span
        st = self.stages
        if st is None or span is None or count <= 0:
            return
        sent = msg.send_time
        group_ns = span.group_ns
        if group_ns > 0.0:
            st.record("src_group", group_ns, count)
        # For a retransmitted copy, ``sent`` is the *resend* time and
        # ``retransmit_ns`` the wait since the first transmission;
        # backing it out leaves src_buffer measuring creation -> first
        # release, so the partition identity holds with the wait in its
        # own stage.
        retransmit_ns = span.retransmit_ns
        if retransmit_ns > 0.0:
            st.record("retransmit", retransmit_ns, count)
        buffered = sent - t_sum / count - group_ns - retransmit_ns
        if buffered > 0.0:
            st.record("src_buffer", buffered, count)
        if span.bp_stall_ns > 0.0:
            st.record("bp_stall", span.bp_stall_ns, count)
        if span.ct_queue_ns > 0.0:
            st.record("ct_queue", span.ct_queue_ns, count)
        if span.ct_service_ns > 0.0:
            st.record("ct_service", span.ct_service_ns, count)
        if span.nic_tx_queue_ns > 0.0:
            st.record("nic_tx_queue", span.nic_tx_queue_ns, count)
        if span.wire_ns > 0.0:
            st.record("wire", span.wire_ns, count)
        if span.nic_rx_ns > 0.0:
            st.record("nic_rx", span.nic_rx_ns, count)
        # Whatever transit time the components did not claim (enqueue
        # hops into PE queues) is local machinery.
        residual = (span.pe_arrival - sent) - span.transit_ns()
        if residual > 0.0:
            st.record("local_delivery", residual, count)
        queued = ctx.now - span.pe_arrival
        if queued > 0.0:
            st.record("dst_group", queued, count)

    def _obs_items_msg(self, ctx, msg: NetMessage, items) -> None:
        """Span attribution for an item-mode message (see `_obs_msg`)."""
        if self.stages is not None:
            self._obs_msg(ctx, msg, len(items), sum(it.created for it in items))

    def _on_worker_msg(self, ctx, msg: NetMessage) -> None:
        """Worker-addressed batch: everything is for this PE."""
        payload = msg.payload
        if isinstance(payload, ItemBatch):
            self._obs_items_msg(ctx, msg, payload.items)
            self._deliver_items_here(ctx, payload.items)
        else:
            if self.stages is not None:
                self._obs_msg(ctx, msg, payload.count, payload.t_sum)
            src_ids, src_counts = self._src_breakdown(msg, payload)
            self._deliver_bulk_here(
                ctx, payload.count, src_ids, src_counts, payload.t_sum, payload.t_min
            )

    def _on_process_msg(self, ctx, msg: NetMessage) -> None:
        """Process-addressed batch: group by PE, fan out sections."""
        payload = msg.payload
        costs = self.rt.costs
        me = ctx.worker.wid
        if isinstance(payload, ItemBatch):
            self._obs_items_msg(ctx, msg, payload.items)
            if payload.grouped:
                ctx.charge(costs.group_elem_ns * self._t)
                sections = payload.sections
            else:
                ctx.charge(costs.group_cost_ns(payload.count, self._t))
                self.stats.group_elements += payload.count + self._t
                by_dst = defaultdict(list)
                for item in payload.items:
                    by_dst[item.dst].append(item)
                sections = list(by_dst.items())
            for dst, items in sections:
                if dst == me:
                    self._deliver_items_here(ctx, items)
                else:
                    ctx.charge(costs.local_msg_ns)
                    self.stats.local_sections += 1
                    ctx.emit(
                        self._post, dst, self._section_items_task, items, ctx.now
                    )
            return

    # -- bulk process-addressed ----------------------------------------
        if self.stages is not None:
            self._obs_msg(ctx, msg, payload.count, payload.t_sum)
        if payload.grouped:
            ctx.charge(costs.group_elem_ns * self._t)
        else:
            ctx.charge(costs.group_cost_ns(payload.count, self._t))
            self.stats.group_elements += payload.count + self._t
        src_ids, src_counts = self._src_breakdown(msg, payload)
        remaining_src = src_counts.copy()
        remaining_total = payload.count
        dst_ids = payload.dst_ids
        dst_counts = payload.dst_counts
        mean_t = payload.t_sum / payload.count
        for slot in np.nonzero(dst_counts)[0]:
            dst = int(dst_ids[slot])
            n = int(dst_counts[slot])
            section_src = proportional_take(remaining_src, n, remaining_total)
            remaining_src = remaining_src - section_src
            remaining_total -= n
            if dst == me:
                self._deliver_bulk_here(
                    ctx, n, src_ids, section_src, n * mean_t, payload.t_min
                )
            else:
                ctx.charge(costs.local_msg_ns)
                self.stats.local_sections += 1
                ctx.emit(
                    self._post,
                    dst,
                    self._section_bulk_task,
                    n,
                    src_ids,
                    section_src,
                    n * mean_t,
                    payload.t_min,
                    ctx.now,
                )

    def _src_breakdown(self, msg: NetMessage, payload: BulkBatch):
        if payload.src_ids is not None:
            return payload.src_ids, payload.src_counts
        return (
            np.array([msg.src_worker], dtype=np.int64),
            np.array([payload.count], dtype=np.int64),
        )

    # -- final delivery -------------------------------------------------
    # ``t0`` is the simulated time a within-process section send (or
    # local bypass) left the grouping/inserting PE; with observability
    # on, the gap until the section task starts is attributed to the
    # ``local_delivery`` stage. ``None`` means "delivered in place".
    def _section_items_task(self, ctx, items, t0: Optional[float] = None) -> None:
        self._deliver_items_here(ctx, items, t0)

    def _deliver_items_here(self, ctx, items, t0: Optional[float] = None) -> None:
        costs = self.rt.costs
        now = ctx.now
        ctx.charge(costs.handler_ns * len(items))
        latency = self.stats.latency
        deliver = self.deliver_item
        if deliver is None:
            raise ConfigError(
                f"{self.name}: per-item insert used without deliver_item callback"
            )
        self.stats.items_delivered += len(items)
        st = self.stages
        if st is not None:
            if t0 is not None and now > t0:
                st.record("local_delivery", now - t0, len(items))
            st.record("handler", costs.handler_ns, len(items))
        for item in items:
            latency.record(now - item.created)
            deliver(ctx, item)

    def _section_bulk_task(
        self, ctx, count: int, src_ids, src_counts, t_sum: float, t_min: float,
        t0: Optional[float] = None,
    ) -> None:
        self._deliver_bulk_here(ctx, count, src_ids, src_counts, t_sum, t_min, t0)

    def _deliver_bulk_here(
        self, ctx, count: int, src_ids, src_counts, t_sum: float, t_min: float,
        t0: Optional[float] = None,
    ) -> None:
        costs = self.rt.costs
        ctx.charge(costs.handler_ns * count)
        self.stats.items_delivered += count
        self.stats.latency.record_bulk(count, t_sum, t_min, ctx.now)
        st = self.stages
        if st is not None:
            if t0 is not None and ctx.now > t0:
                st.record("local_delivery", ctx.now - t0, count)
            st.record("handler", costs.handler_ns, count)
        deliver = self.deliver_bulk
        if deliver is None:
            raise ConfigError(
                f"{self.name}: bulk insert used without deliver_bulk callback"
            )
        deliver(ctx, ctx.worker.wid, count, src_ids, src_counts)


# Crash-drain metadata: when a process dies mid-run its worker lanes are
# drained and every queued task is asked how many application items it
# carried (``repro.runtime.worker._task_items``). Section tasks carry
# real items; flush tasks carry none — their buffers are drained
# separately by ``on_process_crashed``.
SchemeBase._section_items_task._crash_drain_items = "list"
SchemeBase._section_bulk_task._crash_drain_items = "count"
