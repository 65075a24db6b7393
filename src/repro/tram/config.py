"""TramLib configuration.

One :class:`TramConfig` instance parameterizes a scheme instance: buffer
depth ``g`` and item size ``m`` (the paper's notation), flush behaviour,
and the co-design features of §III-B (expedited messages, local bypass,
resized flush sends are always on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class TramConfig:
    """Parameters of one TramLib scheme instance.

    Parameters
    ----------
    buffer_items:
        ``g`` — items per aggregation buffer; a full buffer is sent
        immediately.
    item_bytes:
        ``m`` — wire bytes per item.
    idle_flush:
        Flush a worker's non-empty buffers when its PE goes idle (the
        paper: "buffers can be flushed, optionally, when the processor is
        idle"). Required for dependency-driven apps (SSSP, PDES) to make
        progress; streaming apps typically flush explicitly instead.
    bypass_local:
        Deliver intra-process items directly through shared memory
        instead of aggregating them (they would never cross the network).
    expedited:
        Send TramLib messages on the expedited lane so they overtake
        ordinary application tasks at the destination PE (§III-B).
    priority_threshold:
        Optional priority-aware flushing (the paper's future-work
        feature): inserting an item whose ``priority`` is <= this value
        flushes its buffer immediately, bounding the latency of urgent
        items (e.g. small tentative distances in SSSP).
    latency_sample:
        Reservoir size for latency percentiles (0 disables sampling;
        mean/min/max are always tracked exactly).
    overload_buffer_growth:
        When the flow controller's overload detector escalates, the
        effective buffer capacity grows by this factor, so full-buffer
        sends carry more items per message — less per-message pressure
        on the comm thread — while the overload lasts.
    """

    buffer_items: int = 1024
    item_bytes: int = 8
    idle_flush: bool = False
    bypass_local: bool = True
    expedited: bool = True
    priority_threshold: Optional[float] = None
    latency_sample: int = 0
    overload_buffer_growth: float = 2.0

    def __post_init__(self) -> None:
        if self.buffer_items < 1:
            raise ConfigError(f"buffer_items must be >= 1, got {self.buffer_items}")
        if self.item_bytes < 1:
            raise ConfigError(f"item_bytes must be >= 1, got {self.item_bytes}")
        if self.latency_sample < 0:
            raise ConfigError("latency_sample must be >= 0")
        if self.overload_buffer_growth < 1.0:
            raise ConfigError(
                f"overload_buffer_growth must be >= 1, got "
                f"{self.overload_buffer_growth}"
            )
