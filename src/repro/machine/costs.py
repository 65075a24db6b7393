"""The cost model: every nanosecond constant in one place.

The simulator charges simulated time for each software/hardware action;
this module is the single source of those charges. Defaults are
"Delta-shaped" (see DESIGN.md §4): calibrated so the reproduced figures
match the paper's orderings and approximate magnitudes — small-message
one-way latency ≈ 2 µs, bandwidth ≈ 12 GB/s, comm-thread service such
that fine-grained traffic serializes behind it exactly as §III-A of the
paper describes.

All constants are in **nanoseconds of simulated time** (or ns/byte).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Per-action simulated-time charges.

    Network (alpha–beta wire model, per-node NIC)
    ---------------------------------------------
    alpha_inter_ns:
        One-way wire latency between distinct physical nodes. Paper Fig 1
        measures ~2 µs for small messages on Delta.
    alpha_intra_ns:
        One-way latency between processes on the same node (CMA/xpmem
        style transport; cheaper than the wire).
    beta_ns_per_byte:
        Inverse bandwidth. 0.04 ns/B per NIC pass; the end-to-end effective
        per-byte cost (tx + rx + two comm-thread copies) is ~0.1 ns/B ≈
        10-12 GB/s, matching the paper's Fig 1 measurement.
    nic_msg_ns:
        Per-message NIC injection occupancy; together with
        ``beta_ns_per_byte`` this serializes a node's outgoing traffic.
    rx_nic_msg_ns / rx_beta_ns_per_byte:
        Receive-side occupancy constants. ``None`` (the default) mirrors
        the tx constants, so symmetric NICs need no extra configuration;
        set them to model asymmetric rx serialization.

    Communication thread (SMP mode)
    -------------------------------
    comm_msg_ns:
        Per-message service time of the dedicated comm thread (applies on
        both send and receive sides). This is the serializing bottleneck
        of §III-A: with *t* workers feeding one comm thread, fine-grained
        traffic queues here unless more processes per node are used.
    comm_byte_ns:
        Per-byte copy cost inside the comm thread.

    Non-SMP mode
    ------------
    nonsmp_send_ns / nonsmp_recv_ns:
        A non-SMP worker performs its own network progress; it pays more
        per message than a dedicated comm thread, but every rank pays in
        parallel.

    Worker-level software costs
    ---------------------------
    enqueue_ns:
        Posting a task/message into a PE's queue.
    local_msg_ns:
        Within-process local send (shared-memory delivery of a grouped
        section to a sibling PE).
    item_insert_ns:
        Appending one item to a private aggregation buffer.
    atomic_ns:
        Uncontended atomic slot claim in a shared (PP) buffer.
    contention_coeff:
        PP contention model: the effective atomic cost is
        ``atomic_ns * (1 + contention_coeff * (t - 1))`` for *t* workers
        sharing the buffer.
    group_elem_ns:
        Per-element cost of the O(g + t) grouping/sorting pass (paper
        §III-C "processing delays").
    handler_ns:
        Per delivered item: application handler invocation.
    gen_ns:
        Per-item generation cost in workload drivers.
    pack_msg_ns:
        Per aggregated message: packaging + handing off to the comm
        queue (or to the NIC in non-SMP mode).
    header_bytes:
        Envelope bytes added to every network message.
    os_noise_factor:
        Optional multiplicative slowdown (e.g. 0.05 = 5%) applied to one
        worker per process, modelling OS daemons / GPU callbacks landing
        on an unshielded core (§III-A). 0 disables it.
    cache_bytes_per_worker / cache_miss_factor:
        Buffer-footprint model: inserting into a buffer set larger than
        the per-worker cache share costs progressively more (up to
        ``cache_miss_factor`` x) because every insert is a cache miss.
        This is what makes WW — whose footprint is ``g*m*N*t`` per worker
        (§III-C) — degrade at large buffer sizes and large node counts
        (paper Fig 10 "worse beyond 2k", Fig 16 "memory footprint").
    """

    # network
    alpha_inter_ns: float = 1900.0
    alpha_intra_ns: float = 700.0
    beta_ns_per_byte: float = 0.04
    nic_msg_ns: float = 80.0
    rx_nic_msg_ns: Optional[float] = None
    rx_beta_ns_per_byte: Optional[float] = None
    # comm thread
    comm_msg_ns: float = 450.0
    comm_byte_ns: float = 0.01
    # non-SMP worker communication
    nonsmp_send_ns: float = 900.0
    nonsmp_recv_ns: float = 500.0
    # worker software costs
    enqueue_ns: float = 60.0
    local_msg_ns: float = 120.0
    item_insert_ns: float = 18.0
    atomic_ns: float = 22.0
    contention_coeff: float = 0.08
    group_elem_ns: float = 3.2
    handler_ns: float = 55.0
    gen_ns: float = 25.0
    pack_msg_ns: float = 150.0
    header_bytes: int = 64
    os_noise_factor: float = 0.0
    # cache model (buffer-footprint penalty on inserts)
    cache_bytes_per_worker: float = 131072.0
    cache_miss_factor: float = 3.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None and value < 0:
                raise ConfigError(f"cost field {f.name!r} must be >= 0, got {value}")

    # ------------------------------------------------------------------
    # Derived charges
    # ------------------------------------------------------------------
    def wire_latency_ns(self, same_node: bool) -> float:
        """One-way latency of the transport between two processes."""
        return self.alpha_intra_ns if same_node else self.alpha_inter_ns

    def tx_occupancy_ns(self, payload_bytes: int) -> float:
        """NIC occupancy to inject one message (serialization term)."""
        return self.nic_msg_ns + payload_bytes * self.beta_ns_per_byte

    def rx_occupancy_ns(self, payload_bytes: int) -> float:
        """NIC occupancy to receive one message (rx serialization).

        The rx constants resolve lazily so that ``None`` keeps mirroring
        the tx side even through :meth:`replace`.
        """
        msg_ns = self.rx_nic_msg_ns
        beta = self.rx_beta_ns_per_byte
        if msg_ns is None:
            msg_ns = self.nic_msg_ns
        if beta is None:
            beta = self.beta_ns_per_byte
        return msg_ns + payload_bytes * beta

    def comm_service_ns(self, payload_bytes: int) -> float:
        """Comm-thread service time for one message (either direction)."""
        return self.comm_msg_ns + payload_bytes * self.comm_byte_ns

    def nonsmp_send_service_ns(self, payload_bytes: int) -> float:
        """Worker-side send cost in non-SMP mode."""
        return self.nonsmp_send_ns + payload_bytes * self.comm_byte_ns

    def nonsmp_recv_service_ns(self, payload_bytes: int) -> float:
        """Worker-side receive cost in non-SMP mode."""
        return self.nonsmp_recv_ns + payload_bytes * self.comm_byte_ns

    def pp_insert_ns(self, workers_per_process: int) -> float:
        """Cost of one insert into a shared PP buffer under contention."""
        t = max(1, workers_per_process)
        return self.item_insert_ns + self.atomic_ns * (
            1.0 + self.contention_coeff * (t - 1)
        )

    def group_cost_ns(self, items: int, workers_per_process: int) -> float:
        """Cost of grouping ``items`` by destination PE: O(g + t)."""
        return self.group_elem_ns * (items + workers_per_process)

    def cache_penalty(self, footprint_bytes: float) -> float:
        """Insert-cost multiplier for a given buffer footprint.

        1.0 while the footprint fits the per-worker cache share, rising
        linearly with the overflow ratio and saturating at
        ``cache_miss_factor``.
        """
        cache = self.cache_bytes_per_worker
        if cache <= 0 or footprint_bytes <= cache:
            return 1.0
        penalty = 1.0 + (self.cache_miss_factor - 1.0) * (
            footprint_bytes / cache - 1.0
        )
        return min(penalty, self.cache_miss_factor)

    def message_bytes(self, item_count: int, item_bytes: int) -> int:
        """Wire size of an aggregated message carrying ``item_count`` items.

        Flushed messages are resized (paper §III-B): only the filled
        portion plus a fixed header travels.
        """
        return self.header_bytes + item_count * item_bytes

    def replace(self, **changes: float) -> "CostModel":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
