#!/usr/bin/env python
"""Host seconds per figure: the time users wait for the paper's results.

Times ``run_figure(id, profile)`` for every quick figure and for the
paper-size histogram and index-gather grids (fig9-fig12, most of
``repro all --profile paper``), and writes ``BENCH_figures.json``.

Every sample runs in a fresh child process, timed after its imports:
the figure module memoizes its index-gather and SSSP sweeps, so a second
call in one process would simulate nothing. Each figure reports the
best of three samples; on a shared host interference only adds
time to this deterministic work, so the fastest sample is the best
estimate of its cost. With ``--parent DIR`` the figures also run from
the checkout in ``DIR``, interleaved with this one sample by sample and
alternating which side goes first, so the before/after ratio is taken
under the same host drift. Both sides must produce the same figure data
(compared by digest), or the script exits 1.

Usage (from the repository root)::

    python benchmarks/bench_figures.py --out benchmarks/BENCH_figures.json \\
        --parent PARENT_CHECKOUT --note "what the two sides are"
    python benchmarks/bench_figures.py --smoke --out BENCH_figures.smoke.json

``--smoke`` runs two quick figures once: a self-test that the script
still runs, not a measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

SCHEMA = "repro.bench-figures/1"
ROOT = Path(__file__).resolve().parents[1]

QUICK_FIGURES = (
    "fig1", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "tabA", "tabB",
    "extA", "extB", "extC",
)
PAPER_FIGURES = ("fig9", "fig10", "fig11", "fig12")
SMOKE_FIGURES = ("fig1", "tabB")
#: Samples per figure and side.
REPEATS = 3


def run_child(src: str, fig: str, profile: str) -> None:
    """Child process body: time one figure, print seconds and digest."""
    sys.path.insert(0, src)
    from repro.harness.figures import run_figure

    t0 = time.perf_counter()
    data = run_figure(fig, profile)
    seconds = time.perf_counter() - t0
    blob = json.dumps(asdict(data), sort_keys=True, default=str).encode()
    print(json.dumps({
        "seconds": seconds, "digest": hashlib.sha256(blob).hexdigest(),
    }))


def sample(checkout: Path, fig: str, profile: str) -> dict:
    """One timed run of ``fig`` from ``checkout`` in a fresh process."""
    out = subprocess.run(
        [sys.executable, __file__, "--child", str(checkout / "src"), fig, profile],
        check=True, capture_output=True, text=True, cwd=checkout,
    ).stdout
    return json.loads(out.splitlines()[-1])


def host_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(figures, sides: dict, repeats: int) -> dict:
    """Best-of-``repeats`` seconds per (profile, figure) and side."""
    names = list(sides)
    results = {}
    for profile, fig in figures:
        samples = {name: [] for name in names}
        digests = {name: set() for name in names}
        for r in range(repeats):
            order = names if r % 2 == 0 else names[::-1]
            for name in order:
                s = sample(sides[name], fig, profile)
                samples[name].append(round(s["seconds"], 4))
                digests[name].add(s["digest"])
        row = {f"{name}_s": min(samples[name]) for name in names}
        row["samples"] = samples
        row["same_output"] = len(set().union(*digests.values())) == 1
        if "parent" in sides:
            row["ratio"] = round(row["change_s"] / row["parent_s"], 3)
        results[f"{profile}/{fig}"] = row
        print(f"{profile}/{fig}: " + ", ".join(
            f"{k}={v}" for k, v in row.items() if k != "samples"
        ), file=sys.stderr)
    return results


def totals(results: dict, sides: dict) -> dict:
    groups = {
        "quick": [k for k in results if k.startswith("quick/")],
        "paper fig9-fig12": [k for k in results if k.startswith("paper/")],
    }
    out = {}
    for group, keys in groups.items():
        if not keys:
            continue
        row = {
            f"{name}_s": round(sum(results[k][f"{name}_s"] for k in keys), 3)
            for name in sides
        }
        if "parent" in sides:
            row["ratio"] = round(row["change_s"] / row["parent_s"], 3)
        out[group] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--parent", type=Path,
                    help="checkout to measure interleaved with this one")
    ap.add_argument("--smoke", action="store_true",
                    help="two quick figures, one repeat")
    ap.add_argument("--note", default="", help="free text stored in the file")
    args = ap.parse_args(argv)

    sides = {"change": ROOT}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), "change": ROOT}
    if args.smoke:
        figures = [("quick", f) for f in SMOKE_FIGURES]
        repeats = 1
    else:
        figures = [("quick", f) for f in QUICK_FIGURES]
        figures += [("paper", f) for f in PAPER_FIGURES]
        repeats = REPEATS
    results = measure(figures, sides, repeats)
    payload = {
        "schema": SCHEMA,
        "host": host_info(),
        "statistic": (
            f"best of {repeats} host seconds of run_figure(id, profile), "
            "each in a fresh process after imports"
        ),
        "sides": list(sides),
        "note": args.note,
        "figures": results,
        "totals": totals(results, sides),
    }
    args.out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(json.dumps(payload["totals"]))
    return 0 if all(row["same_output"] for row in results.values()) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        run_child(*sys.argv[2:5])
    else:
        sys.exit(main())
