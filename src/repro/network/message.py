"""Network message envelope.

A :class:`NetMessage` is what the aggregation library hands to the
runtime's transport: an opaque payload plus routing metadata. Following
the paper's vocabulary, application-level short messages are *items*;
``NetMessage`` always refers to the (possibly aggregated) unit that
travels between processes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class Route(enum.Enum):
    """Route class of a message, used for statistics and cost selection."""

    INTRA_PROCESS = "intra_process"
    INTRA_NODE = "intra_node"
    INTER_NODE = "inter_node"


@dataclass(slots=True)
class NetMessage:
    """One transport-level message.

    Attributes
    ----------
    kind:
        Dispatch key; the runtime routes the message to the handler
        registered under this kind (see
        :meth:`repro.runtime.system.RuntimeSystem.register_handler`).
    src_worker:
        Global id of the worker that issued the send (for PP messages:
        the worker whose insert filled the buffer).
    dst_process:
        Destination process id.
    dst_worker:
        Destination worker id for worker-addressed messages (WW/direct);
        ``None`` for process-addressed messages — the destination process
        picks a receiver PE on arrival.
    size_bytes:
        Wire size including the fixed header (already resized to the
        filled portion of the buffer, per the paper's flush optimization).
    payload:
        Opaque content (an item batch, a bulk-count batch, ...).
    expedited:
        Prioritized over normal application tasks at the destination PE
        (the paper uses Charm++ expedited methods for TramLib messages).
    send_time:
        Simulated time the message left the source worker; filled by the
        transport.
    span:
        Optional :class:`repro.obs.spans.MsgSpan` transit record. Only
        attached when observability is enabled; every transport
        component that touches the message attributes its simulated time
        here. ``None`` (the default) keeps the hot path span-free.
    seq / rel_src:
        Reliability envelope (see :mod:`repro.runtime.reliability`):
        per-channel sequence number and source process id for ack
        routing. ``None`` for unprotected messages — the defaults keep
        the hot path reliability-free.
    attempt:
        Which transmission this physical copy is (0 = first send,
        1 = first retransmit, ...).
    checksum_ok:
        Cleared by the fault injector when it corrupts the payload; the
        reliability layer's arrival checksum verification discards such
        copies (or, without a reliability layer, the transport drops
        them as lost).
    piggyback_ack:
        Optional ``(acker_process, cum_seq, sacks)`` cumulative ack
        riding on a reverse-direction data message.
    """

    kind: str
    src_worker: int
    dst_process: int
    size_bytes: int
    payload: Any = None
    dst_worker: Optional[int] = None
    expedited: bool = True
    send_time: float = 0.0
    span: Optional[Any] = None
    seq: Optional[int] = None
    rel_src: Optional[int] = None
    attempt: int = 0
    checksum_ok: bool = True
    piggyback_ack: Optional[tuple] = None

    def wire_copy(self) -> "NetMessage":
        """Physical duplicate of this message (fault fabric / retransmit).

        Shares the payload but owns its envelope and, when observability
        is on, an independent span so each copy attributes its own
        transit times. Keeps ``seq`` — copies are the same *logical*
        message, which is what receiver-side dedup keys on.
        """
        span = self.span.clone() if self.span is not None else None
        return NetMessage(
            kind=self.kind,
            src_worker=self.src_worker,
            dst_process=self.dst_process,
            size_bytes=self.size_bytes,
            payload=self.payload,
            dst_worker=self.dst_worker,
            expedited=self.expedited,
            send_time=self.send_time,
            span=span,
            seq=self.seq,
            rel_src=self.rel_src,
            attempt=self.attempt,
            checksum_ok=self.checksum_ok,
            piggyback_ack=self.piggyback_ack,
        )
