#!/usr/bin/env python
"""Engine benchmark-regression suite.

Measures simulator wall-clock throughput (events/sec on the engine hot
path, items/sec through each aggregation scheme at a pinned config) and
emits ``BENCH_engine.json``. The committed copy under ``benchmarks/`` is
the regression baseline: CI re-runs the suite and fails when any bench
drops more than the tolerance below the baseline's ``after`` numbers.

Usage::

    PYTHONPATH=src python benchmarks/engine_suite.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/engine_suite.py \
        --out BENCH_engine.json \
        --check benchmarks/BENCH_engine.json --tolerance 0.10

Each bench is run ``--repeats`` times (default 3) and the best run is
reported: for throughput metrics the best run is the least-noisy
estimate of what the code can do, which is what a regression gate wants.

See ``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.sim.engine import Engine
from repro.tram import TramConfig, make_scheme

SCHEMA = "repro.bench-engine/1"

#: Pinned machine for the per-scheme items/sec benches.
SCHEME_MACHINE = dict(nodes=4, processes_per_node=2, workers_per_process=4)
SCHEME_UPDATES = 1000  # items per driver task
SCHEME_ROUNDS = 5      # driver tasks per worker
SCHEMES = ("WW", "WPs", "WsP", "PP")

#: Pinned flush-heavy config (one point of fig 11's sweep: small z, so
#: buffers rarely fill); sizes the synthetic parked-timer bench.
FIG11_POINT = dict(nodes=4, updates_per_pe=600, buffer_items=64, batch=500)


# ----------------------------------------------------------------------
# Benches. Each returns (value, unit, detail).
# ----------------------------------------------------------------------
def bench_event_chain(n: int = 200_000):
    """Self-chaining `after()` events: the core pop/dispatch/push cycle."""
    eng = Engine()
    count = [0]

    def tick(remaining):
        count[0] += 1
        if remaining:
            eng.after(1.0, tick, remaining - 1)

    eng.after(0.0, tick, n)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    assert count[0] == n + 1
    return count[0] / wall, "events/sec", f"{n} chained events"


def bench_event_chain_internal(n: int = 200_000):
    """Same cycle through the no-handle internal fast path (`call_after`),
    falling back to `after` on engines that predate it."""
    eng = Engine()
    sched = getattr(eng, "call_after", None)
    count = [0]

    if sched is None:
        def tick(remaining):
            count[0] += 1
            if remaining:
                eng.after(1.0, tick, remaining - 1)

        eng.after(0.0, tick, n)
    else:
        def tick(remaining):
            count[0] += 1
            if remaining:
                sched(1.0, tick, (remaining - 1,))

        sched(0.0, tick, (n,))
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    assert count[0] == n + 1
    return count[0] / wall, "events/sec", f"{n} chained events (internal path)"


def bench_timer_churn(steps: int = 2000, burst: int = 50):
    """Cancel-heavy timer stress: arm a burst of timeouts far in the
    future, cancel them one step later, repeat. Corpses pile up in the
    timer queue until auto-compaction trips, which is the regime a
    lazy-deleting heap handles worst. No measured workload cancels at
    this rate: the only one that arms timers (``reliable-ig`` in
    ``benchmarks/e2e``) sees 80% of them fire."""
    eng = Engine()
    arm = getattr(eng, "timer_after", eng.after)
    pending = []
    arms = [0]

    def noop():
        pass

    def driver(remaining):
        for h in pending:
            eng.cancel(h)
        pending.clear()
        for i in range(burst):
            pending.append(arm(1000.0 + i, noop))
        arms[0] += burst
        if remaining:
            eng.after(1.0, driver, remaining - 1)

    eng.after(0.0, driver, steps)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return arms[0] / wall, "arms/sec", f"{steps} steps x {burst} arm+cancel"


def bench_flush_heavy_fig11():
    """Synthetic parked-timer schedule sized from the fig 11 point.

    If WW at the pinned fig 11 point (4 nodes, small z) armed a flush
    timeout per buffer, the engine would carry the whole t*p buffer
    population as *parked* timers while ordinary insert/delivery events
    stream past them. Fig 11 itself parks none: no scheme arms a flush
    timer. This bench builds that schedule directly —
    W^2 parked timers (32*32 buffers), one chain event per histogram
    update, and a cancel+re-arm every g items — to measure what a deep
    timer population costs the main-queue events; the timer queue
    keeps the parked timers out of the main heap.
    """
    from repro.harness.figures import scaled_machine

    cfg = FIG11_POINT
    machine = scaled_machine(cfg["nodes"])
    W = machine.total_workers
    n_buffers = W * W
    n_events = cfg["updates_per_pe"] * W * 4  # repeat the point 4x for signal
    g = cfg["buffer_items"]

    eng = Engine()
    arm = getattr(eng, "timer_after", eng.after)
    timers = [arm(1e9 + i, _noop) for i in range(n_buffers)]
    count = [0]

    def tick(remaining):
        count[0] += 1
        if remaining % g == 0:
            # A buffer filled: the capacity send cancels its flush
            # timer and the next insert re-arms it.
            slot = remaining % n_buffers
            eng.cancel(timers[slot])
            timers[slot] = arm(1e9 + slot, _noop)
        if remaining:
            eng.after(1.0, tick, remaining - 1)
        else:
            for h in timers:
                eng.cancel(h)

    eng.after(0.0, tick, n_events)
    t0 = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - t0
    return (
        count[0] / wall,
        "events/sec",
        f"fig11 point {cfg}: {n_buffers} parked WW flush timers, "
        f"{n_events} chain events, cancel+rearm every g={g}",
    )


def _noop():
    pass


def _bench_scheme(name: str):
    machine = MachineConfig(**SCHEME_MACHINE)
    rt = RuntimeSystem(machine, seed=0)
    tram = make_scheme(
        name, rt, TramConfig(buffer_items=64),
        deliver_bulk=lambda ctx, w, n, si, sc: None,
    )
    W = machine.total_workers

    def driver(ctx, remaining):
        rng = rt.rng.stream(f"b/{ctx.worker.wid}")
        counts = np.bincount(rng.integers(0, W, SCHEME_UPDATES), minlength=W)
        tram.insert_bulk(ctx, counts)
        if remaining:
            ctx.emit(ctx.worker.post_task, driver, remaining - 1)
        else:
            tram.flush_when_done(ctx)

    for w in range(W):
        rt.post(w, driver, SCHEME_ROUNDS - 1)
    t0 = time.perf_counter()
    rt.run()
    wall = time.perf_counter() - t0
    expect = W * SCHEME_ROUNDS * SCHEME_UPDATES
    assert tram.stats.items_delivered == expect
    return expect / wall, "items/sec", (
        f"bulk insert, {SCHEME_MACHINE} g=64 z={SCHEME_UPDATES}x{SCHEME_ROUNDS}"
    )


def _scheme_bench(name):
    return lambda: _bench_scheme(name)


BENCHES = {
    "event_chain": bench_event_chain,
    "event_chain_internal": bench_event_chain_internal,
    "timer_churn": bench_timer_churn,
    "flush_heavy_fig11": bench_flush_heavy_fig11,
}
for _s in SCHEMES:
    BENCHES[f"scheme_{_s}"] = _scheme_bench(_s)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_suite(repeats: int) -> dict:
    results = {}
    for name, fn in BENCHES.items():
        best = None
        for _ in range(repeats):
            value, unit, detail = fn()
            if best is None or value > best:
                best = value
        results[name] = {"value": round(best, 1), "unit": unit,
                         "detail": detail}
        print(f"  {name:24s} {best:14,.0f} {unit}", file=sys.stderr)
    return results


def check_regression(results: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    base = baseline.get("results", {})
    failures = []
    for name, entry in base.items():
        if name not in results:
            failures.append(f"{name}: missing from current run")
            continue
        floor = entry["value"] * (1.0 - tolerance)
        got = results[name]["value"]
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"  {name:24s} baseline={entry['value']:14,.0f} "
            f"now={got:14,.0f} ({got / entry['value']:6.1%}) {status}",
            file=sys.stderr,
        )
        if got < floor:
            failures.append(
                f"{name}: {got:,.0f} {entry['unit']} is "
                f"{1 - got / entry['value']:.1%} below baseline "
                f"{entry['value']:,.0f} (tolerance {tolerance:.0%})"
            )
    if failures:
        print("bench regression detected:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print(f"OK: {len(base)} benches within {tolerance:.0%} of baseline",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write BENCH_engine.json here")
    ap.add_argument("--check", default=None,
                    help="baseline BENCH_engine.json to compare against")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional drop vs baseline (default 0.10)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per bench; best is reported (default 3)")
    args = ap.parse_args(argv)

    print("running engine bench suite...", file=sys.stderr)
    results = run_suite(args.repeats)
    payload = {"schema": SCHEMA, "results": results}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.check:
        return check_regression(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
