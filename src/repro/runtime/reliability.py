"""Reliable delivery over the faulty inter-node wire.

When a runtime is built with a :class:`ReliabilityConfig`, every
inter-node data message is wrapped in a lightweight go-back-N-with-SACK
protocol, per directed process pair:

* the sender stamps a per-channel sequence number and keeps the message
  pending under a timeout-driven retransmit timer (exponential backoff,
  bounded retry budget);
* the receiver verifies the fault fabric's checksum bit, discards
  duplicates through a bounded dedup window, and acknowledges with
  delayed cumulative acks + selective acks — piggybacked on
  reverse-direction data when any is about to leave, as a real RTS
  would, or sent as small dedicated ``rel.ack`` control messages
  otherwise;
* a corrupt arrival triggers an immediate nack so retransmission does
  not wait out the full timeout.

Retransmitted copies travel the full transport path again and carry a
*fresh* span whose ``retransmit_ns`` records the wait since the first
transmission, so stage-attributed latency keeps partitioning exactly
(see :mod:`repro.obs.spans`).

When a message exhausts its retry budget the channel **degrades**: all
of its pending messages are abandoned (counted in ``items_abandoned``,
which the conservation ledger reads) and subsequent traffic on the
channel travels raw, while the aggregation schemes are told to fall back
to direct sends for that destination (see
``SchemeBase.on_destination_degraded``).

Control traffic (acks) is itself unprotected — a lost ack is repaired by
the data timeout, never by acking acks.

When the crash fabric is armed (``rt.dead_procs`` is not ``None``),
budget exhaustion is interpreted as *suspicion of peer death* instead of
an immediate channel trip: the sender sends an expedited ``rel.probe``
and retries it a few times. A probe reply (or any other traffic from the
suspect) clears the suspicion and the channel degrades exactly as it
would without the fabric; silence confirms the death, and every channel
towards the dead peer is torn down at once — pending messages are split
against receiver ground truth into unconfirmed deliveries and true
crash losses, torn-down sequence numbers are stale-marked so late
copies cannot double-deliver, and the aggregation schemes are told to
fail over routing around the dead peer (``on_peer_dead``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.faults.injector import _payload_items
from repro.network.message import NetMessage, Route
from repro.obs.spans import MsgSpan

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem

#: Message kind of dedicated ack/nack control messages.
ACK_KIND = "rel.ack"

#: Message kind of peer-liveness probes (and their replies).
PROBE_KIND = "rel.probe"

#: Kinds that are never themselves protected: acks repair through the
#: data timeout, probes through their own retry loop.
CONTROL_KINDS = frozenset({ACK_KIND, PROBE_KIND})


@dataclass(frozen=True)
class ReliabilityConfig:
    """Knobs of the reliable-delivery layer.

    Parameters
    ----------
    enabled:
        Master switch; a disabled config is equivalent to no config.
    retransmit_timeout_ns:
        Base retransmit timeout (first retry). Should comfortably exceed
        one round trip including comm-thread/NIC queueing.
    backoff_factor:
        Multiplier applied to the timeout per retry (exponential
        backoff).
    max_retries:
        Retry budget per message; exceeding it degrades the channel.
    ack_delay_ns:
        Cumulative-ack delay: how long the receiver waits for more
        arrivals (or a reverse-direction data message to piggyback on)
        before sending a dedicated ack.
    dedup_window:
        Receiver-side reorder tolerance in sequence numbers; copies
        arriving further than this ahead of the cumulative point are
        discarded and recovered by retransmission.
    probe_timeout_ns:
        How long a peer-death suspicion waits for a ``rel.probe`` reply
        before retrying (crash fabric only).
    probe_retries:
        Extra probes sent after the first before silence confirms the
        peer dead (crash fabric only).
    """

    enabled: bool = True
    retransmit_timeout_ns: float = 50_000.0
    backoff_factor: float = 2.0
    max_retries: int = 5
    ack_delay_ns: float = 3_000.0
    dedup_window: int = 1024
    probe_timeout_ns: float = 100_000.0
    probe_retries: int = 2

    def __post_init__(self) -> None:
        if self.retransmit_timeout_ns <= 0:
            raise ConfigError(
                f"retransmit_timeout_ns must be positive, got "
                f"{self.retransmit_timeout_ns}"
            )
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retries < 1:
            raise ConfigError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.ack_delay_ns < 0:
            raise ConfigError(f"ack_delay_ns must be >= 0, got {self.ack_delay_ns}")
        if self.dedup_window < 1:
            raise ConfigError(f"dedup_window must be >= 1, got {self.dedup_window}")
        if self.probe_timeout_ns <= 0:
            raise ConfigError(
                f"probe_timeout_ns must be positive, got {self.probe_timeout_ns}"
            )
        if self.probe_retries < 0:
            raise ConfigError(
                f"probe_retries must be >= 0, got {self.probe_retries}"
            )


@dataclass
class ReliabilityStats:
    """Protocol counters across all channels of one runtime."""

    protected_messages: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    acks_piggybacked: int = 0
    nacks_sent: int = 0
    duplicates_discarded: int = 0
    corrupt_discarded: int = 0
    window_overflow_discards: int = 0
    channels_degraded: int = 0
    messages_abandoned: int = 0
    items_abandoned: int = 0
    #: Pending messages that had in fact been delivered when their
    #: channel degraded — only the acknowledgement was lost. A real
    #: sender cannot tell these from true losses (two generals); the
    #: simulator consults receiver ground truth so loss accounting stays
    #: exact.
    messages_unconfirmed: int = 0
    #: Late-arriving copies of messages their channel had already
    #: written off at degrade time, discarded at the receiver.
    stale_discarded: int = 0
    #: Crash-fabric detection: suspicions opened on budget exhaustion,
    #: suspicions cleared by probe replies / fresh traffic, probes sent,
    #: peers whose death was confirmed by silence, and channels torn
    #: down because their peer died.
    peers_suspected: int = 0
    suspicions_cleared: int = 0
    probes_sent: int = 0
    peers_confirmed_dead: int = 0
    channels_torn_down: int = 0

    def to_dict(self) -> dict:
        return {
            "protected_messages": self.protected_messages,
            "retransmits": self.retransmits,
            "acks_sent": self.acks_sent,
            "acks_piggybacked": self.acks_piggybacked,
            "nacks_sent": self.nacks_sent,
            "duplicates_discarded": self.duplicates_discarded,
            "corrupt_discarded": self.corrupt_discarded,
            "window_overflow_discards": self.window_overflow_discards,
            "channels_degraded": self.channels_degraded,
            "messages_abandoned": self.messages_abandoned,
            "items_abandoned": self.items_abandoned,
            "messages_unconfirmed": self.messages_unconfirmed,
            "stale_discarded": self.stale_discarded,
        }

    def crash_to_dict(self) -> dict:
        """Suspicion-protocol counters, merged into snapshots only when
        the crash fabric is armed (crash-free artifacts stay
        byte-identical)."""
        return {
            "peers_suspected": self.peers_suspected,
            "suspicions_cleared": self.suspicions_cleared,
            "probes_sent": self.probes_sent,
            "peers_confirmed_dead": self.peers_confirmed_dead,
            "channels_torn_down": self.channels_torn_down,
        }


@dataclass
class _AckPayload:
    """Content of a dedicated or piggybacked ack.

    ``count`` is 0 so fault-loss accounting sees no items in control
    traffic.
    """

    acker: int
    cum: int
    sacks: Tuple[int, ...]
    nack: Optional[int] = None

    @property
    def count(self) -> int:
        return 0


@dataclass
class _ProbePayload:
    """Content of a liveness probe or its reply (``count`` is 0)."""

    origin: int
    reply: bool = False

    @property
    def count(self) -> int:
        return 0


@dataclass
class _Suspicion:
    """Open question about one peer's liveness.

    Keyed by the suspected pid; every channel whose budget trips while
    the suspicion is open registers here so one verdict settles all of
    them.
    """

    prober: int
    probes_left: int
    channels: Set[Tuple[int, int]] = field(default_factory=set)
    timer: Optional[Any] = None


@dataclass
class _Pending:
    """Sender-side state of one unacked message."""

    msg: NetMessage
    first_send_time: float
    attempt: int = 0
    timer: Optional[Any] = None


@dataclass
class _TxChannel:
    """Sender side of one directed process pair."""

    next_seq: int = 0
    pending: Dict[int, _Pending] = field(default_factory=dict)
    degraded: bool = False
    #: Sequence numbers written off when the channel degraded. Copies of
    #: these may still be in flight; the receiver discards them on
    #: arrival (a real protocol would carry a channel epoch for this) so
    #: an item is never both counted lost and delivered. Bounded: filled
    #: once, at degrade time.
    stale: Set[int] = field(default_factory=set)


@dataclass
class _RxState:
    """Receiver side of one directed process pair."""

    cum: int = -1
    seen: Set[int] = field(default_factory=set)
    ack_timer: Optional[Any] = None


class ReliableDelivery:
    """Per-runtime reliable-delivery protocol engine.

    Installed as ``rt.reliable`` when the runtime is built with an
    enabled :class:`ReliabilityConfig`; ``None`` otherwise, so the
    default hot path pays one ``is None`` check per send/arrival.
    """

    __slots__ = (
        "rt", "config", "stats", "_tx", "_rx",
        "_suspicions", "_confirmed_dead",
    )

    def __init__(self, rt: "RuntimeSystem", config: ReliabilityConfig) -> None:
        self.rt = rt
        self.config = config
        self.stats = ReliabilityStats()
        self._tx: Dict[Tuple[int, int], _TxChannel] = {}
        self._rx: Dict[Tuple[int, int], _RxState] = {}
        #: Open liveness questions, keyed by suspected pid.
        self._suspicions: Dict[int, _Suspicion] = {}
        #: Peers whose death silence has confirmed.
        self._confirmed_dead: Set[int] = set()
        rt.register_handler(ACK_KIND, self._on_ack_msg)
        rt.register_handler(PROBE_KIND, self._on_probe_msg)

    # ------------------------------------------------------------------
    # Send path (called from Transport.send)
    # ------------------------------------------------------------------
    def on_send(self, msg: NetMessage, src_process: int, route: Route) -> None:
        """Stamp an outgoing message into its channel, if protectable.

        Only inter-node data is protected: the intra-node shared-memory
        transport is lossless (the fault fabric never touches it), and
        acks protect themselves through the data timeout.
        """
        if msg.seq is not None:
            # A retransmitted copy re-entering the transport: already
            # stamped and pending; just refresh its piggyback chance.
            self._maybe_piggyback(msg, src_process)
            return
        if route is not Route.INTER_NODE or msg.kind in CONTROL_KINDS:
            return
        ch = self._tx_channel(src_process, msg.dst_process)
        if ch.degraded:
            return
        msg.seq = ch.next_seq
        msg.rel_src = src_process
        ch.next_seq += 1
        self.stats.protected_messages += 1
        self._maybe_piggyback(msg, src_process)
        entry = _Pending(msg=msg, first_send_time=self.rt.engine.now)
        ch.pending[msg.seq] = entry
        # Armed with timer_after so it waits in the engine's timer
        # queue; the ack usually cancels it before it fires.
        entry.timer = self.rt.engine.timer_after(
            self.config.retransmit_timeout_ns,
            self._on_timeout,
            src_process,
            msg.dst_process,
            msg.seq,
        )

    def _maybe_piggyback(self, msg: NetMessage, src_process: int) -> None:
        """Fold a due ack for ``msg.dst_process`` onto this data message."""
        rx = self._rx.get((src_process, msg.dst_process))
        if rx is None or rx.ack_timer is None:
            return
        self.rt.engine.cancel(rx.ack_timer)
        rx.ack_timer = None
        msg.piggyback_ack = (src_process, rx.cum, tuple(sorted(rx.seen)))
        self.stats.acks_piggybacked += 1

    # ------------------------------------------------------------------
    # Receive path (called at the destination process, before delivery)
    # ------------------------------------------------------------------
    def accept_inbound(self, msg: NetMessage, dst_process: int) -> bool:
        """Protocol processing on arrival; False means discard the copy."""
        pig = msg.piggyback_ack
        if pig is not None:
            acker, cum, sacks = pig
            self._process_ack(dst_process, acker, cum, sacks, None)
        if not msg.checksum_ok:
            if msg.seq is not None:
                self.stats.corrupt_discarded += 1
                self._send_ack(dst_process, msg.rel_src, nack=msg.seq)
            else:
                faults = self.rt.faults
                if faults is not None:
                    faults.note_destroyed(msg)
            return False
        if msg.seq is None:
            return True
        if self._suspicions and msg.rel_src in self._suspicions:
            # Data from a suspected peer is proof of life.
            self._clear_suspicion(msg.rel_src)
        seq = msg.seq
        ch = self._tx.get((msg.rel_src, dst_process))
        if ch is not None and seq in ch.stale:
            # A late copy of a message its channel already wrote off at
            # degrade time; delivering it now would double-count the item
            # as both lost and delivered.
            self.stats.stale_discarded += 1
            return False
        rx = self._rx_state(dst_process, msg.rel_src)
        if seq <= rx.cum or seq in rx.seen:
            # Already delivered once: the ack must have been lost or is
            # still in flight; discard and re-ack.
            self.stats.duplicates_discarded += 1
            self._schedule_ack(dst_process, msg.rel_src)
            return False
        if seq > rx.cum + self.config.dedup_window:
            # Too far ahead to track; recovered by retransmission once
            # the cumulative point advances.
            self.stats.window_overflow_discards += 1
            return False
        rx.seen.add(seq)
        while (rx.cum + 1) in rx.seen:
            rx.cum += 1
            rx.seen.discard(rx.cum)
        self._schedule_ack(dst_process, msg.rel_src)
        return True

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    def _schedule_ack(self, pid: int, peer: int) -> None:
        rx = self._rx_state(pid, peer)
        if rx.ack_timer is None:
            rx.ack_timer = self.rt.engine.timer_after(
                self.config.ack_delay_ns, self._fire_ack, pid, peer
            )

    def _fire_ack(self, pid: int, peer: int) -> None:
        rx = self._rx_state(pid, peer)
        rx.ack_timer = None
        self._send_ack(pid, peer, nack=None)

    def _send_ack(self, pid: int, peer: int, nack: Optional[int]) -> None:
        """Emit a dedicated (unprotected) ack control message."""
        rx = self._rx_state(pid, peer)
        payload = _AckPayload(
            acker=pid, cum=rx.cum, sacks=tuple(sorted(rx.seen)), nack=nack
        )
        machine = self.rt.machine
        ack = NetMessage(
            kind=ACK_KIND,
            src_worker=machine.workers_of_process(pid)[0],
            dst_process=peer,
            size_bytes=self.rt.costs.header_bytes,
            payload=payload,
            expedited=True,
        )
        if nack is None:
            self.stats.acks_sent += 1
        else:
            self.stats.nacks_sent += 1
        self.rt.transport.send(ack)

    def _on_ack_msg(self, ctx: Any, msg: NetMessage) -> None:
        """Handler for dedicated ack messages (runs on a destination PE)."""
        p = msg.payload
        self._process_ack(msg.dst_process, p.acker, p.cum, p.sacks, p.nack)

    def _process_ack(
        self,
        src_pid: int,
        acker: int,
        cum: int,
        sacks: Tuple[int, ...],
        nack: Optional[int],
    ) -> None:
        """Retire pending messages of channel ``src_pid -> acker``."""
        if self._suspicions and acker in self._suspicions:
            # An ack from a suspected peer is proof of life.
            self._clear_suspicion(acker)
        ch = self._tx.get((src_pid, acker))
        if ch is None:
            return
        sack_set = set(sacks)
        acked = [s for s in ch.pending if s <= cum or s in sack_set]
        for seq in acked:
            entry = ch.pending.pop(seq)
            if entry.timer is not None:
                self.rt.engine.cancel(entry.timer)
        if nack is not None and nack in ch.pending:
            self._retransmit_now(src_pid, acker, nack)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _on_timeout(self, src: int, dst: int, seq: int) -> None:
        ch = self._tx.get((src, dst))
        entry = ch.pending.get(seq) if ch is not None else None
        if entry is None:
            return
        entry.timer = None
        self._retransmit_now(src, dst, seq)

    def _retransmit_now(self, src: int, dst: int, seq: int) -> None:
        ch = self._tx[(src, dst)]
        entry = ch.pending[seq]
        if entry.attempt >= self.config.max_retries:
            self._exhaust(src, dst)
            return
        entry.attempt += 1
        self.stats.retransmits += 1
        if entry.timer is not None:
            self.rt.engine.cancel(entry.timer)
        copy = self._retransmit_copy(entry)
        self.rt.transport.send(copy)
        timeout = self.config.retransmit_timeout_ns * (
            self.config.backoff_factor ** entry.attempt
        )
        entry.timer = self.rt.engine.timer_after(
            timeout, self._on_timeout, src, dst, seq
        )

    def _retransmit_copy(self, entry: _Pending) -> NetMessage:
        """Fresh physical copy; the span restarts with the wait charged
        to the ``retransmit`` stage so the partition identity holds."""
        copy = entry.msg.wire_copy()
        copy.attempt = entry.attempt
        copy.checksum_ok = True
        copy.piggyback_ack = None
        if entry.msg.span is not None:
            span = MsgSpan(entry.msg.span.group_ns)
            span.retransmit_ns = self.rt.engine.now - entry.first_send_time
            copy.span = span
        return copy

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------
    def _exhaust(self, src: int, dst: int) -> None:
        if self.rt.dead_procs is not None:
            # Crash fabric armed: exhaustion might mean the peer is dead
            # rather than the wire being hopeless. Hold the channel and
            # ask; the verdict either degrades it (peer alive) or tears
            # down every channel towards the peer (silence).
            self._suspect(src, dst)
            return
        self._degrade_channel(src, dst)

    def _degrade_channel(self, src: int, dst: int) -> None:
        """Trip channel ``src -> dst`` to unprotected direct traffic."""
        ch = self._tx[(src, dst)]
        if ch.degraded:
            return
        ch.degraded = True
        self.stats.channels_degraded += 1
        abandoned = sorted(ch.pending.items())
        ch.pending.clear()
        # Receiver ground truth: a pending seq at or below the receiver's
        # cumulative point (or in its sack set) was delivered — only its
        # ack died (e.g. the ack path runs through the faulty wire). A
        # real sender cannot make this distinction; the simulator uses it
        # so abandoned-loss accounting counts only true losses.
        rx = self._rx.get((dst, src))
        for s, e in abandoned:
            if e.timer is not None:
                self.rt.engine.cancel(e.timer)
            if rx is not None and (s <= rx.cum or s in rx.seen):
                self.stats.messages_unconfirmed += 1
                continue
            ch.stale.add(s)
            self.stats.messages_abandoned += 1
            self.stats.items_abandoned += _payload_items(e.msg)
        for scheme in self.rt.schemes:
            hook = getattr(scheme, "on_destination_degraded", None)
            if hook is not None:
                hook(src, dst)

    # ------------------------------------------------------------------
    # Peer-death suspicion (crash fabric only)
    # ------------------------------------------------------------------
    def _suspect(self, src: int, dst: int) -> None:
        """Channel ``src -> dst`` exhausted its budget; question ``dst``."""
        if dst in self._confirmed_dead:
            self._teardown_channel(src, dst)
            return
        s = self._suspicions.get(dst)
        if s is not None:
            s.channels.add((src, dst))
            return
        s = _Suspicion(prober=src, probes_left=self.config.probe_retries)
        s.channels.add((src, dst))
        self._suspicions[dst] = s
        self.stats.peers_suspected += 1
        self._send_probe(src, dst)
        s.timer = self.rt.engine.timer_after(
            self.config.probe_timeout_ns, self._on_probe_timeout, dst
        )

    def _send_probe(self, src: int, dst: int) -> None:
        machine = self.rt.machine
        probe = NetMessage(
            kind=PROBE_KIND,
            src_worker=machine.workers_of_process(src)[0],
            dst_process=dst,
            size_bytes=self.rt.costs.header_bytes,
            payload=_ProbePayload(origin=src),
            expedited=True,
        )
        self.stats.probes_sent += 1
        self.rt.transport.send(probe)

    def _on_probe_msg(self, ctx: Any, msg: NetMessage) -> None:
        """Handler for probes and probe replies (runs on a live PE)."""
        p = msg.payload
        here = msg.dst_process
        if p.reply:
            self._clear_suspicion(p.origin)
            return
        machine = self.rt.machine
        reply = NetMessage(
            kind=PROBE_KIND,
            src_worker=machine.workers_of_process(here)[0],
            dst_process=p.origin,
            size_bytes=self.rt.costs.header_bytes,
            payload=_ProbePayload(origin=here, reply=True),
            expedited=True,
        )
        self.rt.transport.send(reply)

    def _on_probe_timeout(self, dst: int) -> None:
        s = self._suspicions.get(dst)
        if s is None:
            return
        s.timer = None
        if s.probes_left > 0:
            s.probes_left -= 1
            self._send_probe(s.prober, dst)
            s.timer = self.rt.engine.timer_after(
                self.config.probe_timeout_ns, self._on_probe_timeout, dst
            )
            return
        self._confirm_dead(dst)

    def _clear_suspicion(self, peer: int) -> None:
        """Evidence of life: degrade the waiting channels the normal way."""
        s = self._suspicions.pop(peer, None)
        if s is None:
            return
        if s.timer is not None:
            self.rt.engine.cancel(s.timer)
        self.stats.suspicions_cleared += 1
        for src, dst in sorted(s.channels):
            self._degrade_channel(src, dst)

    def _confirm_dead(self, dst: int) -> None:
        """Silence confirmed: write off every channel towards ``dst``.

        The probes may all have died on an extremely lossy wire while
        the peer lives — the verdict can be wrong, but accounting stays
        exact either way: written-off sequence numbers are stale-marked,
        so a late delivery is discarded rather than double-counted.
        """
        s = self._suspicions.pop(dst, None)
        if s is not None and s.timer is not None:
            self.rt.engine.cancel(s.timer)
        self._confirmed_dead.add(dst)
        self.stats.peers_confirmed_dead += 1
        for src, d in sorted(self._tx):
            if d == dst:
                self._teardown_channel(src, d)
        for scheme in self.rt.schemes:
            hook = getattr(scheme, "on_peer_dead", None)
            if hook is not None:
                hook(dst)

    def _teardown_channel(self, src: int, dst: int) -> None:
        """Write off channel ``src -> dst`` against a dead peer.

        Like a degrade, but the surviving pending messages count as
        crash losses (the peer's protocol state died with it, so no ack
        will ever come). Receiver ground truth still splits deliveries
        whose ack was lost from true losses, so an item is never counted
        twice.
        """
        ch = self._tx.get((src, dst))
        if ch is None or ch.degraded:
            return
        ch.degraded = True
        self.stats.channels_torn_down += 1
        pending = sorted(ch.pending.items())
        ch.pending.clear()
        rx = self._rx.get((dst, src))
        lost_items = 0
        lost_msgs = 0
        for s, e in pending:
            if e.timer is not None:
                self.rt.engine.cancel(e.timer)
            if rx is not None and (s <= rx.cum or s in rx.seen):
                self.stats.messages_unconfirmed += 1
                continue
            ch.stale.add(s)
            lost_items += _payload_items(e.msg)
            lost_msgs += 1
        faults = self.rt.faults
        if faults is not None:
            faults.note_crash_items(lost_items, lost_msgs)

    # ------------------------------------------------------------------
    # Crash fabric notifications (from RuntimeSystem)
    # ------------------------------------------------------------------
    def on_process_crashed(self, pid: int) -> None:
        """Process ``pid`` died: its protocol state dies with it.

        Outbound channels are torn down (their pending messages can
        never be confirmed by a sender that no longer exists); the dead
        process's delayed-ack timers and open suspicions are cancelled
        so nothing fires on its behalf. Channels *towards* ``pid`` are
        deliberately left alone — the survivors must discover the death
        through the suspicion protocol.
        """
        for (src, dst) in sorted(self._tx):
            if src == pid:
                self._teardown_channel(src, dst)
        for (owner, peer), rx in self._rx.items():
            if owner == pid and rx.ack_timer is not None:
                self.rt.engine.cancel(rx.ack_timer)
                rx.ack_timer = None
        # Suspicions the dead process was probing on: pass the baton to
        # a surviving channel, or drop the question with the questioner.
        for dst in list(self._suspicions):
            s = self._suspicions[dst]
            s.channels = {c for c in s.channels if c[0] != pid}
            if s.prober == pid:
                survivors = sorted(c[0] for c in s.channels)
                if survivors:
                    s.prober = survivors[0]
                else:
                    if s.timer is not None:
                        self.rt.engine.cancel(s.timer)
                    del self._suspicions[dst]

    def on_process_restarted(self, pid: int) -> None:
        """Process ``pid`` came back: give its channels a fresh chance.

        Channels touching the restarted process un-degrade (sequence
        numbering stays monotone and stale sets are kept, so leftovers
        of the previous incarnation still cannot double-deliver); work
        lost in the crash stays lost.
        """
        self._confirmed_dead.discard(pid)
        for (src, dst), ch in self._tx.items():
            if src == pid or dst == pid:
                ch.degraded = False

    # ------------------------------------------------------------------
    # Introspection / state accessors
    # ------------------------------------------------------------------
    def _tx_channel(self, src: int, dst: int) -> _TxChannel:
        ch = self._tx.get((src, dst))
        if ch is None:
            ch = _TxChannel()
            self._tx[(src, dst)] = ch
        return ch

    def _rx_state(self, pid: int, peer: int) -> _RxState:
        rx = self._rx.get((pid, peer))
        if rx is None:
            rx = _RxState()
            self._rx[(pid, peer)] = rx
        return rx

    def is_degraded(self, src: int, dst: int) -> bool:
        """Whether channel ``src -> dst`` has fallen back to raw sends."""
        ch = self._tx.get((src, dst))
        return ch is not None and ch.degraded

    def is_confirmed_dead(self, pid: int) -> bool:
        """Whether the suspicion protocol has written ``pid`` off."""
        return pid in self._confirmed_dead

    def pending_count(self) -> int:
        """Unacked messages across all channels (for tests/diagnostics)."""
        return sum(len(ch.pending) for ch in self._tx.values())
