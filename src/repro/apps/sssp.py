"""Speculative single-source shortest paths (paper §III-D, Figs 14–17).

Vertices are distributed cyclically across chares, one chare per PE.
Execution is speculative: a PE that receives a smaller tentative
distance for a vertex accepts it and (eventually) relaxes the vertex's
out-edges, sending updates through TramLib. Updates that do not improve
a distance are **wasted updates** — the paper's latency-sensitivity
metric: the longer updates sit in aggregation buffers, the staler the
distances PEs speculate with, and the more waste they produce
(Fig 15/17: wasted PP < WPs < WW on small inputs).

Prioritization (the paper's "threshold" co-design feature) is realized
as a per-chare priority queue: accepted updates are relaxed in
smallest-distance-first order, so cheap distances propagate before
speculative large ones. TramLib's priority flush can additionally be
enabled through ``priority_threshold``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.graphs import Graph, generate_graph
from repro.errors import QuiescenceError
from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme


@dataclass(frozen=True)
class SsspResult:
    """Outcome of one SSSP run."""

    scheme: str
    machine: MachineConfig
    num_vertices: int
    num_edges: int
    total_time_ns: float
    #: Updates received (incl. local) that did not improve a distance.
    wasted_updates: int
    #: All updates generated (relaxations sent through TramLib).
    total_updates: int
    mean_latency_ns: float
    messages_sent: int
    events: int
    #: Final distance of every vertex (inf = unreachable).
    distances: np.ndarray

    @property
    def wasted_fraction(self) -> float:
        """Wasted updates normalized by total updates."""
        return self.wasted_updates / self.total_updates if self.total_updates else 0.0


class _SsspChare:
    """Per-PE chare: owned distances + a smallest-first work queue."""

    __slots__ = ("wid", "dist", "pq", "loop_scheduled", "wasted")

    def __init__(self, wid: int, num_local: int) -> None:
        self.wid = wid
        self.dist = np.full(num_local, np.inf)
        self.pq: list = []
        self.loop_scheduled = False
        self.wasted = 0


def run_sssp(
    machine: MachineConfig,
    scheme: str,
    *,
    graph: Optional[Graph] = None,
    num_vertices: int = 1024,
    avg_degree: int = 8,
    graph_kind: str = "uniform",
    source: int = 0,
    buffer_items: int = 32,
    item_bytes: int = 16,
    relax_per_task: int = 8,
    priority_threshold: Optional[float] = None,
    costs: Optional[CostModel] = None,
    seed: int = 0,
) -> SsspResult:
    """Run speculative SSSP and return time + wasted-update metrics.

    Parameters
    ----------
    graph:
        Pre-built graph; generated from ``num_vertices``/``avg_degree``/
        ``graph_kind``/``seed`` when omitted.
    relax_per_task:
        Accepted updates relaxed per PE task (bounds task granularity so
        communication interleaves with computation).
    priority_threshold:
        Optional TramLib priority flush (paper future work): updates
        whose distance is below this flush their buffer immediately.
    """
    if graph is None:
        graph = generate_graph(num_vertices, avg_degree, seed=seed, kind=graph_kind)
    n = graph.num_vertices
    rt = RuntimeSystem(machine, costs, seed=seed)
    W = machine.total_workers
    chares = [_SsspChare(w, (n - w + W - 1) // W) for w in range(W)]

    def accept(ctx, chare: _SsspChare, vertex: int, d: float) -> None:
        """Accept-or-waste one tentative distance at its owner."""
        local = vertex // W
        if d >= chare.dist[local]:
            chare.wasted += 1
            return
        chare.dist[local] = d
        ctx.charge(rt.costs.gen_ns)  # heap push
        heapq.heappush(chare.pq, (d, vertex))
        if not chare.loop_scheduled:
            chare.loop_scheduled = True
            ctx.emit(ctx.worker.post_task, relax_loop, chare)

    def deliver(ctx, item) -> None:
        vertex, d = item.payload
        accept(ctx, chares[ctx.worker.wid], vertex, d)

    tram = make_scheme(
        scheme,
        rt,
        TramConfig(
            buffer_items=buffer_items,
            item_bytes=item_bytes,
            idle_flush=True,
            priority_threshold=priority_threshold,
        ),
        deliver_item=deliver,
    )

    def relax_loop(ctx, chare: _SsspChare) -> None:
        """Relax up to ``relax_per_task`` accepted updates, best first."""
        budget = relax_per_task
        while chare.pq and budget > 0:
            ctx.charge(rt.costs.gen_ns)  # heap pop
            d, vertex = heapq.heappop(chare.pq)
            local = vertex // W
            if d > chare.dist[local]:
                continue  # superseded before we propagated it
            budget -= 1
            targets, weights = graph.neighbors(vertex)
            for u, w_edge in zip(targets.tolist(), weights.tolist()):
                nd = d + w_edge
                ctx.charge(rt.costs.gen_ns)
                tram.insert(ctx, int(u) % W, payload=(int(u), nd), priority=nd)
        if chare.pq:
            ctx.emit(ctx.worker.post_task, relax_loop, chare)
        else:
            chare.loop_scheduled = False

    def seed_task(ctx) -> None:
        accept(ctx, chares[ctx.worker.wid], source, 0.0)

    rt.post(source % W, seed_task)
    stats = rt.run()
    s = tram.stats
    if s.items_delivered < s.items_inserted:
        raise QuiescenceError(
            f"sssp: quiescence reached with {s.pending_items} undelivered "
            f"update(s) ({s.items_delivered} delivered / {s.items_inserted} "
            f"inserted)"
        )

    distances = np.full(n, np.inf)
    for w, chare in enumerate(chares):
        distances[w::W] = chare.dist[: len(distances[w::W])]
    return SsspResult(
        scheme=tram.name,
        machine=machine,
        num_vertices=n,
        num_edges=graph.num_edges,
        total_time_ns=stats.end_time,
        wasted_updates=sum(c.wasted for c in chares),
        total_updates=s.items_inserted,
        mean_latency_ns=s.latency.mean,
        messages_sent=s.messages_sent,
        events=stats.events_fired,
        distances=distances,
    )
