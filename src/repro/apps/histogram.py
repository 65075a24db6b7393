"""Histogram — the Bale-suite pure-overhead streaming benchmark.

Every worker sends ``updates_per_pe`` increments to uniformly random
slots of a histogram table distributed over all PEs, then flushes its
TramLib buffers once at the end (paper §III-D: "latency is not directly
relevant [to] this benchmark ... it can be used to measure overhead, in
isolation").

Flow fidelity: destination draws are vectorized per batch
(``numpy.bincount`` over a per-worker RNG stream) and handed to
:meth:`~repro.tram.schemes.base.SchemeBase.insert_bulk`, so simulation
work scales with *messages*, not items (DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.runtime.quiescence import QDCounter
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme


@dataclass(frozen=True)
class HistogramResult:
    """Outcome of one histogram run."""

    scheme: str
    machine: MachineConfig
    updates_per_pe: int
    buffer_items: int
    total_time_ns: float
    messages_sent: int
    messages_flush: int
    bytes_sent: int
    mean_latency_ns: float
    buffer_bytes_allocated: int
    #: Items delivered through intra-process shared memory (never buffered).
    items_bypassed_local: int
    events: int

    @property
    def updates_total(self) -> int:
        return self.updates_per_pe * self.machine.total_workers

    @property
    def updates_buffered(self) -> int:
        """Items that actually entered aggregation buffers."""
        return self.updates_total - self.items_bypassed_local


def run_histogram(
    machine: MachineConfig,
    scheme: str,
    *,
    updates_per_pe: int = 4096,
    buffer_items: int = 64,
    item_bytes: int = 8,
    batch: int = 512,
    compute_ns_per_item: float = 6.0,
    skew: float = 0.0,
    costs: Optional[CostModel] = None,
    seed: int = 0,
    bypass_local: bool = True,
) -> HistogramResult:
    """Run the histogram benchmark and return overhead metrics.

    Parameters
    ----------
    machine, scheme:
        Cluster layout and aggregation scheme name.
    updates_per_pe:
        ``z`` — histogram updates generated by every worker.
    buffer_items:
        ``g`` — TramLib buffer depth.
    batch:
        Updates generated per driver task (vectorized); interleaves
        generation with receive processing like a real PE.
    compute_ns_per_item:
        CPU cost to produce one update. Histogramming is extremely
        fine-grained (an update is one add), so the default is a few ns
        -- the regime in which the paper's comm-side effects dominate.
    skew:
        Destination skew exponent: slot ``i`` is drawn with probability
        proportional to ``(i + 1) ** -skew``. 0 = uniform (the Bale
        benchmark); > 0 models the hotspot traffic of irregular
        applications (receiver PEs near slot 0 become hot).
    """
    rt = RuntimeSystem(machine, costs, seed=seed)
    W = machine.total_workers
    qd = QDCounter()
    # per-PE received-update counts
    table = np.zeros(W, dtype=np.int64)
    if skew > 0:
        weights = (np.arange(1, W + 1, dtype=np.float64)) ** -skew
        weights /= weights.sum()
    else:
        weights = None

    def deliver(ctx, wid, count, src_ids, src_counts):
        table[wid] += count
        qd.consume(count)

    tram = make_scheme(
        scheme,
        rt,
        TramConfig(
            buffer_items=buffer_items,
            item_bytes=item_bytes,
            idle_flush=False,
            bypass_local=bypass_local,
        ),
        deliver_bulk=deliver,
    )

    def driver(ctx, remaining: int):
        wid = ctx.worker.wid
        k = min(batch, remaining)
        rng = rt.rng.stream(f"histo/{wid}")
        if weights is None:
            draws = rng.integers(0, W, k)
        else:
            draws = rng.choice(W, size=k, p=weights)
        counts = np.bincount(draws, minlength=W)
        ctx.charge(k * compute_ns_per_item)
        qd.produce(k)
        tram.insert_bulk(ctx, counts)
        remaining -= k
        if remaining > 0:
            ctx.emit(ctx.worker.post_task, driver, remaining)
        else:
            tram.flush_when_done(ctx)

    for wid in range(W):
        rt.post(wid, driver, updates_per_pe)
    stats = rt.run()
    qd.require_balanced()
    assert int(table.sum()) == updates_per_pe * W
    s = tram.stats
    return HistogramResult(
        scheme=tram.name,
        machine=machine,
        updates_per_pe=updates_per_pe,
        buffer_items=buffer_items,
        total_time_ns=stats.end_time,
        messages_sent=s.messages_sent,
        messages_flush=s.messages_flush,
        bytes_sent=s.bytes_sent,
        mean_latency_ns=s.latency.mean,
        buffer_bytes_allocated=s.buffer_bytes_allocated,
        items_bypassed_local=s.items_bypassed_local,
        events=stats.events_fired,
    )
