"""The five end-to-end workloads of the host-time benchmark.

Each workload is a function ``fn(seed, size, env) -> Outcome`` run once
per pass inside a fresh child process (see ``child.py``). The timed part
is the function body; ``Outcome.verify`` runs after the clock stops and
returns the list of failed output checks. ``Outcome.result`` holds the
modelled results the output digest covers: figure series, simulated
times, message counts, latencies, wasted updates, rejected events. It
never holds the engine's own event count, which is simulator
bookkeeping, so a change that fires fewer events for identical results
keeps its digest.

Every ``repro`` import happens inside the workload functions, after the
child has installed its probes, so the probes see every call.
"""

from __future__ import annotations

import heapq
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: The quick figures whose generators no other workload already runs
#: (fig9/10 and tabA are histogram grids like histo-flush, fig12/13 the
#: index-gather grid of reliable-ig, fig14-18 the SSSP and PHOLD runs of
#: item-path), plus fig11 for the figure path through the sweep pool.
#: All 18 quick figures take 10-13 s per pass on a 2-vCPU host: one pass
#: per run, and an 11% run-to-run spread.
FIGS_FULL = ("fig1", "fig3", "fig8", "fig11", "tabB", "extA", "extB", "extC")
FIGS_SMOKE = ("fig1", "fig3", "extA", "extB")

#: Per-workload problem sizes. ``full`` is what the benchmark measures,
#: sized so a pass takes about 1.5-2 s and a 20 s run holds 8-10 passes;
#: ``smoke`` is the sub-minute self-test size.
SIZES: Dict[str, Dict[str, dict]] = {
    "figs-quick": {"full": {"figs": FIGS_FULL}, "smoke": {"figs": FIGS_SMOKE}},
    "histo-flush": {
        "full": {"nodes": (1, 2, 4, 8, 16), "updates_per_pe": 600},
        "smoke": {"nodes": (1, 2), "updates_per_pe": 200},
    },
    "item-path": {
        "full": {"vertices": 2048, "sssp_nodes": (1, 2), "phold_quota": 400},
        "smoke": {"vertices": 512, "sssp_nodes": (1,), "phold_quota": 100},
    },
    "reliable-ig": {
        "full": {"nodes": (1, 2, 4), "requests_per_pe": 1200},
        "smoke": {"nodes": (1, 2), "requests_per_pe": 300},
    },
    "sweep-cache": {
        "full": {"nodes": (1, 2, 4), "seeds": 4, "updates_per_pe": 600,
                 "warm_passes": 3},
        "smoke": {"nodes": (1, 2), "seeds": 2, "updates_per_pe": 200,
                  "warm_passes": 1},
    },
}

FAULT_SPEC = "drop=0.01,dup=0.005"
FLOW_SPEC = "ct_msgs=8,ct_bytes=65536,overload=100000,clear=20000"


@dataclass
class Env:
    """What a pass may use besides its seed and size."""

    #: Scratch directory inside the checkout, emptied after the pass.
    tmp: str
    #: Run the sweep pool serially: forked pool workers are invisible
    #: to the outside-in tracer, so traced runs keep every point
    #: in-process.
    serial_pool: bool = False
    #: Host seconds of each step of the pass, in pass order. Every pass
    #: of a workload runs the same steps, so the parent can line them up.
    steps: List[float] = field(default_factory=list)

    @contextmanager
    def step(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.steps.append(perf_counter() - t0)


@dataclass
class Outcome:
    """What one workload pass produced. Callables run after the clock
    stops, so the benchmark's own read-back is not timed."""

    #: JSON-able modelled results (or a callable returning them); the
    #: digest covers exactly this.
    result: Any
    #: Output checks.
    verify: Callable[[], List[str]] = lambda: []
    #: Simulation points the pass completed, when the pass process
    #: cannot count them itself (pooled sweeps).
    points: int = 0
    #: How many leading steps produce the points (``points_per_s``
    #: denominator); 0 means the whole pass.
    points_steps: int = 0
    #: Engine events fired in other processes (pooled sweeps).
    events: Optional[Callable[[], int]] = None
    #: Extra per-workload numbers for the per-layer report.
    extra: Dict[str, Any] = field(default_factory=dict)


def _strip_events(obj: Any) -> Any:
    """Drop engine event counts anywhere in a JSON-shaped object."""
    if isinstance(obj, dict):
        return {
            k: _strip_events(v) for k, v in obj.items()
            if k not in ("events", "events_fired")
        }
    if isinstance(obj, list):
        return [_strip_events(v) for v in obj]
    return obj


def _artifact_body(path: str) -> Any:
    """Canonical artifact content (provenance and volatile keys removed)
    without event counts."""
    from repro.harness.artifact import canonical_metrics_bytes

    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return _strip_events(json.loads(canonical_metrics_bytes(payload)))


# ----------------------------------------------------------------------
# figs-quick
# ----------------------------------------------------------------------
def figs_quick(seed: int, size: dict, env: Env) -> Outcome:
    """Quick-profile figures with their shape checkers. The figures fix
    their own seeds, so ``seed`` does not apply."""
    from repro.harness.figures import run_figure
    from repro.harness.validate import CHECKERS

    series, failures = {}, []
    for fig_id in size["figs"]:
        with env.step():
            data = run_figure(fig_id, "quick")
            passed, details = CHECKERS[fig_id](data)
        if not passed:
            failures.append(f"{fig_id} checker failed: {details}")
        series[fig_id] = {
            "x": list(data.x),
            "series": {s.name: list(s.y) for s in data.series},
        }
    return Outcome(
        result=series, verify=lambda: failures,
        extra={"fig_s": dict(zip(size["figs"], env.steps))},
    )


# ----------------------------------------------------------------------
# histo-flush
# ----------------------------------------------------------------------
def histo_flush(seed: int, size: dict, env: Env) -> Outcome:
    """fig11-style flush-heavy histogram weak scaling, all four schemes."""
    from repro.analysis import message_bounds_total
    from repro.apps import run_histogram
    from repro.harness.figures import scaled_machine
    from repro.tram import SCHEME_NAMES

    rows = []
    for nodes in size["nodes"]:
        for scheme in SCHEME_NAMES:
            with env.step():
                r = run_histogram(
                    scaled_machine(nodes), scheme,
                    updates_per_pe=size["updates_per_pe"], buffer_items=64,
                    batch=500, seed=seed,
                )
            rows.append({
                "nodes": nodes, "scheme": scheme,
                "total_time_ns": r.total_time_ns,
                "messages_sent": r.messages_sent,
                "messages_flush": r.messages_flush,
                "bytes_sent": r.bytes_sent,
                "mean_latency_ns": r.mean_latency_ns,
                "buffer_bytes_allocated": r.buffer_bytes_allocated,
                "items_bypassed_local": r.items_bypassed_local,
                "updates_buffered": r.updates_buffered,
                "machine": r.machine,
            })

    def verify() -> List[str]:
        # Paper SecIII-C: every scheme's message count sits between the
        # full-buffer minimum and the one-flush-per-buffer maximum.
        bad = []
        for row in rows:
            lo, hi = message_bounds_total(
                row["scheme"], row["updates_buffered"], 64, row["machine"]
            )
            if not lo <= row["messages_sent"] <= hi:
                bad.append(
                    f"{row['scheme']}@{row['nodes']}: {row['messages_sent']} "
                    f"messages outside [{lo}, {hi}]"
                )
        return bad

    result = [{k: v for k, v in row.items() if k != "machine"} for row in rows]
    return Outcome(result=result, verify=verify)


# ----------------------------------------------------------------------
# item-path
# ----------------------------------------------------------------------
def _dijkstra(graph, source: int) -> List[float]:
    dist = [float("inf")] * graph.num_vertices
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        targets, weights = graph.neighbors(v)
        for u, w in zip(targets.tolist(), weights.tolist()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def item_path(seed: int, size: dict, env: Env) -> Outcome:
    """Per-item inserts with payload and priority: speculative SSSP
    (fig16) plus PHOLD (fig18), all four schemes each."""
    from repro.apps import run_phold, run_sssp
    from repro.apps.graphs import generate_graph
    from repro.harness.figures import scaled_machine
    from repro.machine import MachineConfig
    from repro.tram import SCHEME_NAMES

    with env.step():
        graph = generate_graph(size["vertices"], 8, seed=seed + 3)
    sssp, distances = [], []
    for nodes in size["sssp_nodes"]:
        for scheme in SCHEME_NAMES:
            with env.step():
                r = run_sssp(
                    scaled_machine(nodes), scheme, graph=graph, buffer_items=32,
                    seed=seed,
                )
            distances.append(r.distances.tolist())
            sssp.append({
                "nodes": nodes, "scheme": scheme,
                "total_time_ns": r.total_time_ns,
                "wasted_updates": r.wasted_updates,
                "total_updates": r.total_updates,
                "mean_latency_ns": r.mean_latency_ns,
                "messages_sent": r.messages_sent,
            })
    machine = MachineConfig(nodes=2, processes_per_node=1, workers_per_process=8)
    lps, init = 8, 4
    phold = []
    for scheme in SCHEME_NAMES:
        with env.step():
            r = run_phold(
                machine, scheme, lps_per_worker=lps,
                quota_per_worker=size["phold_quota"], buffer_items=32, seed=seed,
            )
        phold.append({
            "scheme": scheme,
            "events_executed": r.events_executed,
            "events_rejected": r.events_rejected,
            "total_time_ns": r.total_time_ns,
            "mean_latency_ns": r.mean_latency_ns,
            "messages_sent": r.messages_sent,
        })

    def verify() -> List[str]:
        bad = []
        reference = _dijkstra(graph, 0)
        for row, dist in zip(sssp, distances):
            if dist != reference:
                bad.append(
                    f"sssp {row['scheme']}@{row['nodes']}: distances differ "
                    "from Dijkstra"
                )
        # Every seeded event executes, and so does every spawned one; a
        # worker spawns at most its quota.
        workers = machine.total_workers
        seeded = workers * lps * init
        most = seeded + workers * size["phold_quota"]
        for row in phold:
            executed = row["events_executed"]
            if not seeded <= executed <= most or row["events_rejected"] > executed:
                bad.append(
                    f"phold {row['scheme']}: executed {executed} events "
                    f"(bounds [{seeded}, {most}]), "
                    f"rejected {row['events_rejected']}"
                )
        return bad

    result = {"sssp": sssp, "distances": distances[0], "phold": phold}
    return Outcome(result=result, verify=verify)


# ----------------------------------------------------------------------
# reliable-ig
# ----------------------------------------------------------------------
def reliable_ig(seed: int, size: dict, env: Env) -> Outcome:
    """Index-gather through the faults, reliability, flow and obs layers,
    then the run artifact round trip."""
    from dataclasses import asdict

    from repro.apps import run_indexgather
    from repro.faults import FaultPlan, FaultSession
    from repro.flow import FlowConfig, FlowSession
    from repro.harness.artifact import (
        build_metrics_payload,
        validate_metrics_payload,
        write_metrics_json,
    )
    from repro.harness.figures import scaled_machine
    from repro.obs import ObsConfig, ObsSession
    from repro.tram import SCHEME_NAMES

    plan = FaultPlan.parse(FAULT_SPEC)
    flow = FlowConfig.parse(FLOW_SPEC)
    rows = []
    with FaultSession(plan), FlowSession(flow), ObsSession(ObsConfig()) as obs:
        for nodes in size["nodes"]:
            for scheme in SCHEME_NAMES:
                with env.step():
                    r = run_indexgather(
                        scaled_machine(nodes), scheme,
                        requests_per_pe=size["requests_per_pe"],
                        buffer_items=64, batch=500, seed=seed,
                    )
                rows.append({
                    "nodes": nodes, "scheme": scheme,
                    "total_time_ns": r.total_time_ns,
                    "request_latency_ns": r.request_latency_ns,
                    "response_latency_ns": r.response_latency_ns,
                    "messages_sent": r.messages_sent,
                    "bytes_sent": r.bytes_sent,
                    "request_latency_p50_ns": r.request_latency_p50_ns,
                    "request_latency_p99_ns": r.request_latency_p99_ns,
                })
    with env.step():
        payload = build_metrics_payload(
            target="bench:reliable-ig", profile="custom", runs=obs.records,
            extra_config={"faults": asdict(plan), "flow": asdict(flow)},
        )
        path = str(write_metrics_json(
            os.path.join(env.tmp, "reliable-ig.json"), payload
        ))
        errors = validate_metrics_payload(payload)

    def verify() -> List[str]:
        bad = [f"artifact: {e}" for e in errors]
        for i, run in enumerate(_artifact_body(path)["runs"]):
            cons = (run.get("flow") or {}).get("conservation") or {}
            if cons.get("balanced") is not True:
                bad.append(f"run {i}: conservation ledger not balanced: {cons}")
        return bad

    return Outcome(
        result=lambda: {"runs": rows, "artifact": _artifact_body(path)},
        verify=verify,
        extra={"artifact_bytes": os.path.getsize(path)},
    )


# ----------------------------------------------------------------------
# sweep-cache
# ----------------------------------------------------------------------
def sweep_cache(seed: int, size: dict, env: Env) -> Outcome:
    """A histogram sweep through the fork pool, cache and journal: one
    cold pass, then warm passes served from the cache."""
    from functools import partial

    from repro.harness.artifact import canonical_metrics_bytes
    from repro.harness.pool import run_app_point
    from repro.harness.sweep import run_sweep
    from repro.tram import SCHEME_NAMES

    fn = partial(
        run_app_point, "histogram", "total_time_ns",
        updates_per_pe=size["updates_per_pe"], buffer_items=64, batch=500,
    )
    axes = {"nodes": list(size["nodes"]), "scheme": list(SCHEME_NAMES)}
    seeds = list(range(seed, seed + size["seeds"]))
    parallel = 1 if env.serial_pool else min(2, os.cpu_count() or 1)
    if parallel > 1 and hasattr(os, "sched_setaffinity"):
        # The forked workers inherit this: they share one CPU, so the
        # pass measures the pool's work (fork, dispatch, stealing, cache,
        # journal) and not how contended the host's other CPU happens to
        # be (that made runs bimodal). Parallel speedup is not measured.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cache = os.path.join(env.tmp, "cache")

    def sweep(name: str):
        with env.step():
            return run_sweep(
                fn, axes, seeds=seeds, metric="total_time_ns",
                parallel=parallel, cache_dir=cache, tag="bench-e2e.histogram",
                journal=os.path.join(env.tmp, f"{name}.jsonl"),
                metrics_path=os.path.join(env.tmp, f"{name}.json"),
            )

    cold = sweep("cold")
    warm = [sweep(f"warm{i}") for i in range(size["warm_passes"])]
    n_points = len(seeds) * len(axes["nodes"]) * len(axes["scheme"])

    @lru_cache(maxsize=None)
    def artifact_bytes(name: str) -> bytes:
        with open(os.path.join(env.tmp, f"{name}.json"), encoding="utf-8") as fh:
            return canonical_metrics_bytes(json.load(fh))

    def verify() -> List[str]:
        bad = []
        summary = cold.pool["summary"]
        if summary["executed"] != n_points:
            bad.append(
                f"cold pass executed {summary['executed']} of {n_points} points"
            )
        for i, res in enumerate(warm):
            s = res.pool["summary"]
            if s["executed"] != 0 or s["cache_hits"] != n_points:
                bad.append(
                    f"warm pass {i}: executed {s['executed']}, "
                    f"{s['cache_hits']} cache hits"
                )
            if artifact_bytes(f"warm{i}") != artifact_bytes("cold"):
                bad.append(f"warm pass {i}: canonical artifact differs from cold")
        return bad

    return Outcome(
        result=lambda: {
            "cells": [[c.params, list(c.values)] for c in cold.cells],
            "artifact": _strip_events(json.loads(artifact_bytes("cold"))),
        },
        verify=verify,
        points=n_points,
        points_steps=1,
        # Pool workers fire these events in other processes; the cold
        # artifact records them per point.
        events=lambda: sum(
            run.get("events_fired", 0)
            for run in json.loads(artifact_bytes("cold"))["runs"]
        ),
        extra={
            "warm_pass_s": env.steps[1:],
            "artifact_bytes": os.path.getsize(os.path.join(env.tmp, "cold.json")),
        },
    )


#: Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Callable[[int, dict, Env], Outcome]] = {
    "figs-quick": figs_quick,
    "histo-flush": histo_flush,
    "item-path": item_path,
    "reliable-ig": reliable_ig,
    "sweep-cache": sweep_cache,
}
