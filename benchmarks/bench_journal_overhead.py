#!/usr/bin/env python
"""Sweep journal overhead benchmark.

The crash-consistent journal in :mod:`repro.harness.journal` must be
close to free: it sits on the path of every completed point (one
fsync'd JSONL line each). This suite measures that tax on a 64-point
grid of cheap (~few ms) points — where fixed per-point overhead is most
visible — and reports:

* ``serial_plain`` / ``serial_journal`` — points/sec serial, without
  and with the journal;
* ``journal_tax_ms`` — added wall-clock per point from journaling.

Under ``--gate`` the suite fails if the tax exceeds a fixed per-point
ceiling (absolute milliseconds, not a baseline ratio — the tax is a
constant cost, so a ratio against host-dependent point cost would be
meaningless across machines).

Usage::

    PYTHONPATH=src python benchmarks/bench_journal_overhead.py \
        --out BENCH_journal.json --gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.sweep import run_sweep

SCHEMA = "repro.bench-journal/1"

AXES = {"x": list(range(16))}
SEEDS = (0, 1, 2, 3)  # 16 cells x 4 seeds = 64 points
TAG = "bench:journal-overhead"
REPEATS = 3

#: Per-point journal overhead ceiling (milliseconds), enforced under
#: --gate. Generous enough for a loaded CI runner; an order of magnitude
#: above the measured cost on an idle workstation.
JOURNAL_TAX_CEILING_MS = 25.0


def _busy_point(seed, *, x):
    """Deterministic ~ms busy-work; cheap enough to expose per-point tax."""
    acc = 0
    for i in range(50_000):
        acc += (i ^ x ^ seed) & 7
    return float(acc)


def _n_points() -> int:
    return len(AXES["x"]) * len(SEEDS)


def _best_wall(**kwargs) -> float:
    """Min-of-REPEATS wall time for one sweep configuration."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run_sweep(_busy_point, AXES, seeds=SEEDS, tag=TAG, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def run_suite() -> dict:
    n = _n_points()
    results = {}

    def report(name, value, unit, detail):
        results[name] = {"value": round(value, 3), "unit": unit,
                         "detail": detail}
        print(f"  {name:22s} {value:10,.3f} {unit}", file=sys.stderr)

    serial_plain = _best_wall()
    report("serial_plain", n / serial_plain, "points/sec",
           f"{n} cheap points, serial, no journal")

    with tempfile.TemporaryDirectory(prefix="bench-journal") as td:
        serial_journal = _best_wall(journal=Path(td) / "journal.jsonl")
    report("serial_journal", n / serial_journal, "points/sec",
           "same grid with the fsync'd sweep journal")
    report("journal_tax_ms",
           max(0.0, serial_journal - serial_plain) / n * 1000, "ms/point",
           "added wall-clock per point from journaling")
    return results


def gate(results: dict) -> int:
    got = results["journal_tax_ms"]["value"]
    if got > JOURNAL_TAX_CEILING_MS:
        print(
            f"journal overhead regression detected: journal_tax_ms: "
            f"{got:.3f} ms/point exceeds the "
            f"{JOURNAL_TAX_CEILING_MS:.0f} ms ceiling",
            file=sys.stderr,
        )
        return 1
    print(f"OK: journal_tax_ms {got:.3f} <= {JOURNAL_TAX_CEILING_MS:.0f} "
          f"ms/point", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="write BENCH_journal.json here")
    ap.add_argument("--gate", action="store_true",
                    help="fail if per-point overhead exceeds the ceiling")
    args = ap.parse_args(argv)

    print(
        f"running journal overhead suite ({_n_points()} points, "
        f"{REPEATS} repeats)...",
        file=sys.stderr,
    )
    results = run_suite()
    payload = {
        "schema": SCHEMA,
        "env": {"cpus": os.cpu_count()},
        "results": results,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.gate:
        return gate(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
