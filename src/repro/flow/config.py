"""Declarative flow-control configuration.

A :class:`FlowConfig` bounds the occupancy of the virtual-clock servers
(comm threads and NIC tx) with byte + message credit caps, and describes
when the runtime should escalate (overload) and shed load. Like
``FaultPlan`` it is frozen and declarative: the same config always
produces the same admission decisions for the same event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FlowControlError
from repro.options import OptionsOverlay


@dataclass(frozen=True)
class FlowConfig:
    """Credit caps, overload thresholds and shedding policy.

    Parameters
    ----------
    enabled:
        Master switch. A disabled config behaves exactly like no config:
        the runtime carries ``rt.flow is None`` and pays one check per
        message.
    ct_max_msgs / ct_max_bytes:
        Per-comm-thread send-credit caps (SMP mode). A worker's released
        message is admitted only while the comm thread's in-flight
        occupancy is below both caps; otherwise it parks in a bounded
        FIFO until credits return.
    nic_max_msgs / nic_max_bytes:
        Per-NIC tx-credit caps; comm threads (or, non-SMP, the sending
        workers) acquire these before injecting onto the wire.
    overload_backlog_ns:
        Backlog (server booked-ahead time) past which the overload
        detector escalates: schemes grow their effective buffer capacity
        by ``TramConfig.overload_buffer_growth``.
    clear_backlog_ns:
        Hysteresis floor: overload clears once every gate has drained
        its parked queue and all backlogs sit below this value.
    shed_backlog_ns:
        Optional shedding threshold. When the backlog exceeds it *and* a
        destination already has ``max_parked_per_dest`` messages parked,
        further unprotected messages to that destination are destroyed
        (counted in ``flow.items_shed``, a term of the conservation
        ledger). ``None`` (the default) never sheds: messages park
        until credits return. Messages under reliable delivery are never
        shed — recovery is the reliability layer's job.
    max_parked_per_dest:
        Parked-message budget per destination process before the
        shedding policy applies.
    max_stall_ns:
        Upper bound on the CPU stall charged to a producing worker per
        task when its source gate is congested (backpressure propagation
        into the TramLib insert path).
    """

    enabled: bool = True
    ct_max_msgs: int = 64
    ct_max_bytes: int = 1_048_576
    nic_max_msgs: int = 128
    nic_max_bytes: int = 4_194_304
    overload_backlog_ns: float = 200_000.0
    clear_backlog_ns: float = 50_000.0
    shed_backlog_ns: Optional[float] = None
    max_parked_per_dest: int = 64
    max_stall_ns: float = 50_000.0

    def __post_init__(self) -> None:
        for name in ("ct_max_msgs", "ct_max_bytes", "nic_max_msgs", "nic_max_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise FlowControlError(f"{name} must be a positive integer, got {value!r}")
        if self.overload_backlog_ns <= 0:
            raise FlowControlError(
                f"overload_backlog_ns must be positive, got {self.overload_backlog_ns!r}"
            )
        if not 0 <= self.clear_backlog_ns <= self.overload_backlog_ns:
            raise FlowControlError(
                "clear_backlog_ns must lie in [0, overload_backlog_ns], got "
                f"{self.clear_backlog_ns!r}"
            )
        if self.shed_backlog_ns is not None and self.shed_backlog_ns <= 0:
            raise FlowControlError(
                f"shed_backlog_ns must be positive or None, got {self.shed_backlog_ns!r}"
            )
        if not isinstance(self.max_parked_per_dest, int) or self.max_parked_per_dest < 1:
            raise FlowControlError(
                f"max_parked_per_dest must be a positive integer, got "
                f"{self.max_parked_per_dest!r}"
            )
        if self.max_stall_ns < 0:
            raise FlowControlError(
                f"max_stall_ns must be non-negative, got {self.max_stall_ns!r}"
            )

    # ------------------------------------------------------------------
    # Declarative spec parsing (the --flow CLI route)
    # ------------------------------------------------------------------
    _SPEC_KEYS = {
        "ct_msgs": ("ct_max_msgs", int),
        "ct_bytes": ("ct_max_bytes", int),
        "nic_msgs": ("nic_max_msgs", int),
        "nic_bytes": ("nic_max_bytes", int),
        "overload": ("overload_backlog_ns", float),
        "clear": ("clear_backlog_ns", float),
        "shed": ("shed_backlog_ns", float),
        "parked_per_dest": ("max_parked_per_dest", int),
        "stall_max": ("max_stall_ns", float),
    }

    @classmethod
    def parse(cls, spec: str) -> "FlowConfig":
        """Parse a comma-separated ``key=value`` spec string.

        Keys: ``ct_msgs``, ``ct_bytes``, ``nic_msgs``, ``nic_bytes``,
        ``overload`` (ns), ``clear`` (ns), ``shed`` (ns),
        ``parked_per_dest``, ``stall_max`` (ns). An empty spec yields
        the defaults.

        >>> FlowConfig.parse("ct_msgs=8,ct_bytes=4096,overload=50000")
        ... # doctest: +ELLIPSIS
        FlowConfig(enabled=True, ct_max_msgs=8, ct_max_bytes=4096, ...)
        """
        kwargs = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep:
                raise FlowControlError(f"flow spec entry {part!r} is not key=value")
            try:
                field, conv = cls._SPEC_KEYS[key]
            except KeyError:
                raise FlowControlError(
                    f"unknown flow spec key {key!r} "
                    f"(known: {', '.join(sorted(cls._SPEC_KEYS))})"
                ) from None
            try:
                kwargs[field] = conv(raw.strip())
            except ValueError:
                raise FlowControlError(
                    f"flow spec value for {key!r} is not a number: {raw!r}"
                ) from None
        return cls(**kwargs)


class FlowSession(OptionsOverlay):
    """Installs a flow config for runtimes built inside — an overlay
    onto the ambient :class:`~repro.options.RunOptions`."""

    def __init__(self, config: FlowConfig) -> None:
        super().__init__(flow=config)
        self.config = config
