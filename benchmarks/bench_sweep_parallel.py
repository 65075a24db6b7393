#!/usr/bin/env python
"""Sweep-executor benchmark-regression suite.

Measures the :mod:`repro.harness.pool` executor on a skewed 32-point
histogram grid (``nodes=1..8`` next to each other, so static
partitioning would serialize the tail — exactly what the work-stealing
queue is for) and emits ``BENCH_sweep.json``:

* ``sweep_serial`` / ``sweep_parallel`` — points/sec through the
  executor without a cache, serial vs ``--parallel min(8, cpus)``;
* ``parallel_speedup`` — the ratio of the two (x);
* ``warm_speedup`` — cold cached run vs fully-warm re-run (x), with
  the warm run required to execute **zero** simulations and produce a
  canonically identical artifact (checked on every invocation, not
  just under ``--check``).

The committed copy under ``benchmarks/`` is the regression baseline:
CI re-runs the suite and fails when a bench drops below tolerance.
Speedup benches gate on fixed floors instead of the baseline value —
they measure the host's parallelism, so a baseline recorded on a
laptop must not bind a CI runner (and vice versa): ``parallel_speedup``
requires >= 1.5x on hosts with >= 4 cores and >= 3.0x with >= 8 cores,
and is skipped entirely on fewer cores, where forking buys nothing.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py \
        --out BENCH_sweep.json
    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py \
        --check benchmarks/BENCH_sweep.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.artifact import canonical_metrics_bytes
from repro.harness.pool import run_app_point
from repro.harness.sweep import run_sweep

SCHEMA = "repro.bench-sweep/1"

#: Skewed grid: per-point cost spans ~10x between nodes=1 and nodes=8.
AXES = {"nodes": [1, 2, 4, 8], "scheme": ["WW", "WPs"]}
SEEDS = (0, 1, 2, 3)  # 4 cells/axis combo x 4 seeds = 32 points
FIXED = dict(updates_per_pe=1500, buffer_items=64, batch=500)
TAG = "bench:sweep-parallel:" + json.dumps(FIXED, sort_keys=True)

POINT_FN = functools.partial(
    run_app_point, "histogram", "total_time_ns", **FIXED
)

#: Fixed floors for the speedup benches (see module docstring).
WARM_SPEEDUP_FLOOR = 5.0


def _n_points() -> int:
    cells = 1
    for values in AXES.values():
        cells *= len(values)
    return cells * len(SEEDS)


def parallel_speedup_floor(cpus: int):
    """Required parallel speedup for this host, or None to skip."""
    if cpus >= 8:
        return 3.0
    if cpus >= 4:
        return 1.5
    return None


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
def bench_throughput(parallel: int, metrics_path=None, cache_dir=None,
                     fresh=False):
    """One full sweep of the grid; returns (wall_s, SweepResult)."""
    t0 = time.perf_counter()
    result = run_sweep(
        POINT_FN, AXES, seeds=SEEDS, tag=TAG, parallel=parallel,
        cache_dir=cache_dir, cache_read=not fresh, metrics_path=metrics_path,
    )
    return time.perf_counter() - t0, result


def run_suite(parallel: int) -> dict:
    n = _n_points()
    results = {}

    def report(name, value, unit, detail):
        results[name] = {"value": round(value, 2), "unit": unit,
                         "detail": detail}
        print(f"  {name:20s} {value:10,.2f} {unit}", file=sys.stderr)

    serial_wall, serial_res = bench_throughput(parallel=1)
    report("sweep_serial", n / serial_wall, "points/sec",
           f"{n}-point skewed histogram grid, serial")

    par_wall, par_res = bench_throughput(parallel=parallel)
    if [c.values for c in par_res.cells] != [
        c.values for c in serial_res.cells
    ]:
        raise SystemExit("FATAL: parallel sweep diverged from serial")
    report("sweep_parallel", n / par_wall, "points/sec",
           f"same grid at --parallel {parallel}")
    report("parallel_speedup", serial_wall / par_wall, "x",
           f"serial {serial_wall:.2f}s / parallel {par_wall:.2f}s "
           f"on {os.cpu_count()} cpus")

    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache") as td:
        cache = Path(td) / "cache"
        cold_art = Path(td) / "cold.json"
        warm_art = Path(td) / "warm.json"
        cold_wall, _ = bench_throughput(
            parallel=parallel, cache_dir=cache, metrics_path=cold_art,
        )
        warm_wall, warm_res = bench_throughput(
            parallel=parallel, cache_dir=cache, metrics_path=warm_art,
        )
        # Functional gates, checked unconditionally: a warm re-run must
        # execute nothing and reproduce the artifact byte-for-byte
        # (modulo provenance).
        if warm_res.total_cache_hits != n:
            raise SystemExit(
                f"FATAL: warm run executed "
                f"{n - warm_res.total_cache_hits} point(s); want 0"
            )
        cold_p = json.loads(cold_art.read_text())
        warm_p = json.loads(warm_art.read_text())
        if canonical_metrics_bytes(cold_p) != canonical_metrics_bytes(warm_p):
            raise SystemExit("FATAL: warm artifact diverged from cold")
    report("warm_speedup", cold_wall / warm_wall, "x",
           f"cold {cold_wall:.2f}s / warm {warm_wall:.2f}s, "
           f"{n}/{n} cache hits, 0 executed")
    return results


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def check_regression(results: dict, baseline_path: str,
                     tolerance: float) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    base = baseline.get("results", {})
    cpus = os.cpu_count() or 1
    failures = []

    def fail(msg):
        failures.append(msg)

    for name in ("sweep_serial", "sweep_parallel"):
        if name not in base:
            continue
        if name not in results:
            fail(f"{name}: missing from current run")
            continue
        floor = base[name]["value"] * (1.0 - tolerance)
        got = results[name]["value"]
        status = "ok" if got >= floor else "REGRESSION"
        print(
            f"  {name:20s} baseline={base[name]['value']:10,.2f} "
            f"now={got:10,.2f} ({got / base[name]['value']:6.1%}) {status}",
            file=sys.stderr,
        )
        if got < floor:
            fail(
                f"{name}: {got:,.2f} points/sec is "
                f"{1 - got / base[name]['value']:.1%} below baseline "
                f"(tolerance {tolerance:.0%})"
            )

    floor = parallel_speedup_floor(cpus)
    got = results.get("parallel_speedup", {}).get("value")
    if floor is None:
        print(
            f"  parallel_speedup     skipped ({cpus} cpu(s): pool cannot "
            "beat serial)",
            file=sys.stderr,
        )
    elif got is None or got < floor:
        fail(f"parallel_speedup: {got}x below the {floor}x floor "
             f"for {cpus} cpus")
    else:
        print(f"  parallel_speedup     {got:.2f}x >= {floor}x floor ok",
              file=sys.stderr)

    got = results.get("warm_speedup", {}).get("value")
    if got is None or got < WARM_SPEEDUP_FLOOR:
        fail(f"warm_speedup: {got}x below the {WARM_SPEEDUP_FLOOR}x floor")
    else:
        print(
            f"  warm_speedup         {got:.2f}x >= "
            f"{WARM_SPEEDUP_FLOOR}x floor ok",
            file=sys.stderr,
        )

    if failures:
        print("sweep bench regression detected:", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    print("OK: sweep benches within tolerance/floors", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write BENCH_sweep.json here")
    ap.add_argument("--check", default=None,
                    help="baseline BENCH_sweep.json to compare against")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional throughput drop (default 0.25)")
    ap.add_argument("--parallel", type=int,
                    default=min(8, os.cpu_count() or 1),
                    help="pool width for the parallel benches "
                    "(default min(8, cpus))")
    args = ap.parse_args(argv)

    print(
        f"running sweep bench suite ({_n_points()} points, "
        f"--parallel {args.parallel}, {os.cpu_count()} cpu(s))...",
        file=sys.stderr,
    )
    results = run_suite(args.parallel)
    payload = {
        "schema": SCHEMA,
        "env": {"cpus": os.cpu_count(), "parallel": args.parallel},
        "results": results,
    }
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
