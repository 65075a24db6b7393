"""Message routing across the three locality classes.

Given a :class:`~repro.network.message.NetMessage` released by a worker,
the transport picks the path the paper's runtime would take:

* **intra-process** — shared-memory delivery straight into the
  destination PE's queue (no comm thread, no NIC);
* **intra-node, inter-process** — through both comm threads (SMP) over
  the cheap ``alpha_intra`` transport, bypassing the NIC;
* **inter-node** — source comm thread → source NIC (tx serialization) →
  wire (``alpha_inter`` + ``bytes * beta``) → destination NIC (rx
  serialization) → destination comm thread → destination PE.

In non-SMP mode there are no comm threads: the *sender charged its own
send-progress cost* inside its handler (the schemes do this), and the
receiver pays ``nonsmp_recv`` before its handler runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

from repro.errors import DeliveryError
from repro.network.message import NetMessage, Route

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem


@dataclass
class TransportStats:
    """Message/byte counters per route class."""

    messages: Dict[Route, int] = field(
        default_factory=lambda: {r: 0 for r in Route}
    )
    bytes: Dict[Route, int] = field(default_factory=lambda: {r: 0 for r in Route})

    def record(self, route: Route, size_bytes: int) -> None:
        self.messages[route] += 1
        self.bytes[route] += size_bytes

    @property
    def total_messages(self) -> int:
        return sum(self.messages.values())


class Transport:
    """Routes released messages to their destination PE."""

    __slots__ = ("rt", "stats")

    def __init__(self, rt: "RuntimeSystem") -> None:
        self.rt = rt
        self.stats = TransportStats()

    # ------------------------------------------------------------------
    # Entry point (called as a deferred emission at task completion)
    # ------------------------------------------------------------------
    def send(self, msg: NetMessage) -> None:
        """Release ``msg`` from its source worker at the current time."""
        rt = self.rt
        machine = rt.machine
        msg.send_time = rt.engine.now
        src_process = machine.process_of_worker(msg.src_worker)
        dp = rt.dead_procs
        if dp and src_process in dp:
            # Emission from a task that was in flight when its process
            # crashed: the message never reaches the wire. Reached before
            # reliability stamps a seq, so the copy is unprotected and
            # counts here.
            rt.faults.note_crash_destroyed(msg)
            return
        if not 0 <= msg.dst_process < machine.total_processes:
            raise DeliveryError(f"bad destination process {msg.dst_process}")
        if msg.dst_worker is not None and not (
            0 <= msg.dst_worker < machine.total_workers
        ):
            raise DeliveryError(f"bad destination worker {msg.dst_worker}")
        route = self._classify(src_process, msg.dst_process)
        self.stats.record(route, msg.size_bytes)
        rel = rt.reliable
        if rel is not None:
            rel.on_send(msg, src_process, route)

        if route is Route.INTRA_PROCESS:
            self._deliver_local(msg)
        elif machine.smp:
            ct = rt.process(src_process).commthread
            assert ct is not None
            if rt.flow is None:
                ct.submit_outbound(msg)
            else:
                rt.flow.submit_ct(ct, msg)
        else:
            # Non-SMP: the worker already charged its own send service;
            # the message proceeds directly to the NIC / intra transport.
            self._after_send_side(msg, src_process)

    # ------------------------------------------------------------------
    # Route segments
    # ------------------------------------------------------------------
    def _classify(self, src_process: int, dst_process: int) -> Route:
        machine = self.rt.machine
        if src_process == dst_process:
            return Route.INTRA_PROCESS
        if machine.node_of_process(src_process) == machine.node_of_process(
            dst_process
        ):
            return Route.INTRA_NODE
        return Route.INTER_NODE

    def _deliver_local(self, msg: NetMessage) -> None:
        """Shared-memory delivery within the source process."""
        rt = self.rt
        wid = msg.dst_worker
        if wid is None:
            wid = rt.process(msg.dst_process).next_receiver()
        rt.engine.call_after(
            rt.costs.enqueue_ns, rt.worker(wid).deliver_message, (msg,)
        )

    def after_commthread_out(self, msg: NetMessage) -> None:
        """Next hop once the source comm thread finished send service."""
        src_process = self.rt.machine.process_of_worker(msg.src_worker)
        self._after_send_side(msg, src_process)

    def _after_send_side(self, msg: NetMessage, src_process: int) -> None:
        rt = self.rt
        machine = rt.machine
        src_node = machine.node_of_process(src_process)
        dst_node = machine.node_of_process(msg.dst_process)
        if src_node == dst_node:
            # Intra-node inter-process: cheap shared-memory transport,
            # no NIC involvement.
            if msg.span is not None:
                msg.span.wire_ns += rt.costs.alpha_intra_ns
            rt.engine.call_after(
                rt.costs.alpha_intra_ns, self._arrive_at_process, (msg,)
            )
        else:
            src_nic = rt.node(src_node).nic_for_process(src_process)
            dst_nic = rt.node(dst_node).nic_for_process(msg.dst_process)
            latency = rt.fabric.latency_between_nodes(src_node, dst_node)
            if rt.flow is None:
                src_nic.inject(msg, dst_nic, latency)
            else:
                rt.flow.submit_nic(src_nic, msg, dst_nic, latency)

    def on_nic_arrival(self, msg: NetMessage) -> None:
        """Sink installed on every NIC: message finished rx serialization."""
        self._arrive_at_process(msg)

    def _arrive_at_process(self, msg: NetMessage) -> None:
        rt = self.rt
        dp = rt.dead_procs
        if dp and msg.dst_process in dp:
            # Dead endpoint: the copy is destroyed before any protocol
            # acceptance. Protected copies stay pending at their sender
            # (no ack will come) and are accounted by the reliability
            # teardown; unprotected ones count here.
            rt.faults.note_crash_destroyed(msg)
            return
        if rt.machine.smp:
            ct = rt.process(msg.dst_process).commthread
            assert ct is not None
            ct.submit_inbound(msg)
        else:
            if rt.reliable is not None or rt.faults is not None:
                if not self.accept_inbound(msg, msg.dst_process):
                    return
            wid = msg.dst_worker
            if wid is None:
                wid = rt.process(msg.dst_process).next_receiver()
            recv_charge = rt.costs.nonsmp_recv_service_ns(msg.size_bytes)
            rt.worker(wid).deliver_message(msg, extra_charge_ns=recv_charge)

    def accept_inbound(self, msg: NetMessage, dst_process: int) -> bool:
        """Arrival-side protocol check; False means discard the copy.

        With a reliability layer, the full dedup/checksum/ack machinery
        runs; with faults alone, corrupt copies are destroyed here (and
        counted as unprotected losses). Only called when one of the two
        is active.
        """
        rel = self.rt.reliable
        if rel is not None:
            return rel.accept_inbound(msg, dst_process)
        if not msg.checksum_ok:
            faults = self.rt.faults
            if faults is not None:
                faults.note_destroyed(msg)
            return False
        return True
