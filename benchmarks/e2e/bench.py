#!/usr/bin/env python3
"""End-to-end host-time benchmark of the reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/bench.py [--workload W] [--seed S]
        [--seconds T | --repeats N] [--trace 0|1] [--smoke] [--out F]
    python3 benchmarks/e2e/bench.py compare PARENT.jsonl CHANGE.jsonl
    python3 benchmarks/e2e/bench.py crosscheck [--workload W]
    python3 benchmarks/e2e/bench.py pin [--smoke]

Every pass of a workload runs in a fresh child process (``child.py``).
Untraced passes give the end-to-end metrics (see :func:`end_to_end`);
``--trace 1`` runs one untraced reference pass and one traced pass and
gives the per-layer metrics. Without ``--trace`` both kinds run, and
without ``--workload`` every workload runs, interleaved pass by pass.

Output checks (a failed check counts the pass as failed): the workload's
own checks, the output digest against the value pinned in
``baseline.json`` for seed 0 (for other seeds every pass must produce
the same digest), and the engine event count, which must be equal in
every pass so that a memoized pass cannot pass as a fast one. The last
line of standard output is one JSON object; the exit code is 1 when any
pass failed and 2 when the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_e2e"
BASELINE = HERE / "baseline.json"

sys.path.insert(0, str(HERE))
from tracing import FUNCTION_ENTRIES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ARTIFACT_FUNCTIONS = {
    name for module, name in FUNCTION_ENTRIES if module == "repro.harness.artifact"
}

#: A pass that runs longer than this is killed and counts as failed.
PASS_TIMEOUT_S = 150
#: Host seconds one pass (process start, imports, workload) takes on the
#: measuring host. ``--seconds`` is turned into a fixed pass count with
#: it, so a faster or slower program runs the same number of passes and
#: best-of-N compares like with like.
NOMINAL_PASS_S = 2.5
#: A run stops starting passes once it has spent this multiple of
#: ``--seconds``, so a much slower program still ends in time.
CEILING_X = 3


# ----------------------------------------------------------------------
# Running passes
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, size: str, mode: str,
             serial_pool: bool = False) -> dict:
    """Run one pass in a fresh child process; return its result record."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pass-", dir=SCRATCH)
    result = os.path.join(tmp, "result.json")
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--size", size, "--mode", mode,
        "--tmp", tmp, "--result", result,
    ]
    if serial_pool:
        cmd.append("--serial-pool")
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
    proc_s = perf_counter() - t0
    try:
        with open(result, encoding="utf-8") as fh:
            rec = json.load(fh)
    except (OSError, ValueError):
        tail = err.decode("utf-8", "replace")[-2000:]
        rec = {"error": f"child exited with {proc.returncode}: {tail}"}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rec.update(workload=workload, seed=seed, mode=mode, proc_s=proc_s)
    return rec


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(names: List[str], seed: int, size: str, trace: Optional[int],
            n_passes: int, ceiling_s: Optional[float]) -> Dict[str, dict]:
    runs = {w: {"plain": [], "ref": None, "traced": None} for w in names}

    def more(passes: List[dict]) -> bool:
        if len(passes) >= n_passes:
            return False
        return ceiling_s is None or sum(p["proc_s"] for p in passes) < ceiling_s

    if trace in (None, 0):
        while True:
            todo = [w for w in names if more(runs[w]["plain"])]
            if not todo:
                break
            for w in todo:  # interleaved: one pass of each, round by round
                runs[w]["plain"].append(run_pass(w, seed, size, "plain"))
                _progress(runs[w]["plain"][-1])
    if trace in (None, 1):
        for w in names:
            runs[w]["ref"] = run_pass(w, seed, size, "plain", serial_pool=True)
            _progress(runs[w]["ref"])
            runs[w]["traced"] = run_pass(w, seed, size, "trace", serial_pool=True)
            _progress(runs[w]["traced"])
    return runs


def _progress(rec: dict) -> None:
    status = "error" if "error" in rec else f"{rec['wall_s']:.3f}s"
    print(f"  {rec['workload']:<12} {rec['mode']:<6} {status}", file=sys.stderr)


# ----------------------------------------------------------------------
# Checks and metrics
# ----------------------------------------------------------------------
def check(passes: List[dict], pin: Optional[str]) -> None:
    """Attach ``reasons`` (failed checks) to every pass."""
    for p in passes:
        p["reasons"] = (
            [p["error"].strip().splitlines()[-1]] if "error" in p
            else list(p["failures"])
        )
    good = [p for p in passes if "error" not in p]
    if pin is None:
        modal = Counter(p["digest"] for p in good).most_common(1)
        pin = modal[0][0] if modal else None
        label = "the other passes'"
    else:
        label = "the pinned"
    modal_events = Counter(p["events"] for p in good).most_common(1)
    for p in good:
        if p["digest"] != pin:
            p["reasons"].append(f"output digest {p['digest'][:12]} != {label} {pin[:12]}")
        if p["events"] != modal_events[0][0]:
            p["reasons"].append(
                f"fired {p['events']} engine events, other passes "
                f"{modal_events[0][0]} (memoized or nondeterministic pass)"
            )


def _parts(p: dict) -> List[float]:
    """A pass's step times plus its untimed remainder as a last part."""
    return p["steps"] + [p["wall_s"] - sum(p["steps"])]


def _points_s(parts: List[float], p: dict) -> float:
    k = p["points_steps"]
    return sum(parts[:k]) if k else sum(parts)


def end_to_end(passes: List[dict]) -> Dict[str, dict]:
    """Per-metric ``value`` plus the median, quartiles and count over
    passes.

    Host-time interference on a shared machine only ever adds time to
    this deterministic work, and it comes in bursts of seconds. So the
    time ``value`` is best-of-N per step: every pass runs the same steps
    (one simulation run, one figure, one sweep pass), and each step is
    charged its fastest time across the run's passes. N does not depend
    on how fast the passes are (see :data:`NOMINAL_PASS_S`), so the
    minimum is taken over as many samples on either side of a
    comparison. The other metrics' ``value`` is the median.
    """
    ok = [p for p in passes if not p["reasons"]]
    if not ok:
        return {}
    parts = [_parts(p) for p in ok]
    per_pass = {
        "wall_s": ("s", [p["wall_s"] for p in ok]),
        "points_per_s": (
            "points/s", [p["points"] / _points_s(x, p) for x, p in zip(parts, ok)]
        ),
        "setup_s": ("s", [p["setup_s"] for p in ok]),
        "peak_rss_mb": ("MB", [p["peak_rss_mb"] for p in ok]),
    }
    out = {}
    for name, (unit, values) in per_pass.items():
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "median": med, "q1": q1, "q3": q3,
                     "n": len(values), "unit": unit}
    if len({len(x) for x in parts}) == 1:
        best = [min(column) for column in zip(*parts)]
        out["wall_s"]["value"] = sum(best)
        out["points_per_s"]["value"] = ok[0]["points"] / _points_s(best, ok[0])
    return out


def per_layer(ref: dict, traced: dict) -> Dict[str, tuple]:
    """Per-layer metrics from one traced pass and its untraced reference."""
    tr = traced["trace"]
    layers = tr["layers"]
    c = tr["counts"]
    out: Dict[str, tuple] = {}
    for layer, agg in layers.items():
        if layer == "other":
            continue
        out[f"{layer}.self_s"] = (agg["self_s"], "s")
        out[f"{layer}.share"] = (agg["share"], "fraction")
    events = traced["events"]
    arms = tr["timer_arms"]
    messages = c.get("tram.messages", 0)
    protected = c.get("reliability.protected", 0)
    retransmits = c.get("reliability.retransmits", 0)
    points = c.get("harness.points", 0)
    hits = c.get("harness.cache_hits", 0)
    extra = ref["extra"]
    out.update({
        "sim.events": (events, "count"),
        "sim.ns_per_event": (layers["sim"]["self_s"] * 1e9 / events if events else 0.0, "ns"),
        "sim.timer_arms": (arms, "count"),
        "sim.cancels": (tr["cancels"], "count"),
        "sim.timer_fire_frac": (tr["timer_fires"] / arms if arms else 0.0, "fraction"),
        "tram.calls": (layers["tram"]["calls"], "count"),
        "tram.items": (c.get("tram.items", 0), "count"),
        "tram.messages": (messages, "count"),
        "tram.flush_msg_frac": (
            c.get("tram.flush_messages", 0) / messages if messages else 0.0, "fraction"
        ),
        "tram.items_per_msg": (
            c.get("tram.items_remote", 0) / messages if messages else 0.0, "items/msg"
        ),
        "runtime.tasks": (c.get("runtime.tasks", 0), "count"),
        "runtime.sends": (c.get("runtime.sends", 0), "count"),
        "runtime.ct_services": (c.get("runtime.ct_services", 0), "count"),
        "network.nic_msgs": (c.get("network.nic_msgs", 0), "count"),
        "network.bytes": (c.get("network.bytes", 0), "bytes"),
        "reliability.sends": (protected + retransmits, "count"),
        "reliability.retransmits": (retransmits, "count"),
        "reliability.goodput_frac": (
            protected / (protected + retransmits) if protected + retransmits else 1.0,
            "fraction",
        ),
        "flow.parked": (c.get("flow.parked", 0), "count"),
        "flow.shed": (c.get("flow.shed", 0), "count"),
        "faults.dropped": (c.get("faults.dropped", 0), "count"),
        "obs.artifact_s": (
            sum(e["self_s"] for e in tr["entries"]
                if e["name"] in ARTIFACT_FUNCTIONS),
            "s",
        ),
        "obs.artifact_bytes": (extra.get("artifact_bytes", 0), "bytes"),
        "apps.calls": (layers["apps"]["calls"], "count"),
        "harness.points_executed": (points - hits, "count"),
        "harness.cache_hit_frac": (hits / points if points else 0.0, "fraction"),
        "setup.import_s": (ref["import_s"], "s"),
        "setup.runtime_init_s": (ref["setup"]["runtime_init_s"], "s"),
        "setup.scheme_init_s": (ref["setup"]["scheme_init_s"], "s"),
        "setup.graph_s": (ref["setup"]["graph_s"], "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_x": (traced["wall_s"] / ref["wall_s"], "x"),
        "trace.attributed_frac": (tr["attributed_frac"], "fraction"),
    })
    if "warm_pass_s" in extra:
        out["harness.warm_pass_s"] = (statistics.median(extra["warm_pass_s"]), "s")
    for fig_id, secs in extra.get("fig_s", {}).items():
        out[f"fig.{fig_id}_s"] = (secs, "s")
    return out


def evaluate(run: dict, pin: Optional[str]) -> dict:
    passes = run["plain"] + [p for p in (run["ref"], run["traced"]) if p]
    check(passes, pin)
    report = {
        "attempted": len(passes),
        "failed": sum(1 for p in passes if p["reasons"]),
        "failures": sorted({r for p in passes for r in p["reasons"]}),
        "pinned": pin is not None,
        "metrics": end_to_end(run["plain"]),
        "per_layer": {},
        "passes": [
            {k: v for k, v in p.items() if k != "trace"} for p in passes
        ],
    }
    ref, traced = run["ref"], run["traced"]
    if ref and traced and not ref["reasons"] and not traced["reasons"]:
        report["per_layer"] = {
            name: {"value": v, "unit": u}
            for name, (v, u) in per_layer(ref, traced).items()
        }
        report["trace"] = traced["trace"]
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(workload: str, seed: int, rep: dict, spec: dict) -> None:
    print(f"== {workload} (seed {seed}): {rep['attempted']} passes, "
          f"{rep['failed']} failed, digest "
          f"{'pinned' if rep['pinned'] else 'compared across passes'} ==")
    for reason in rep["failures"]:
        print(f"   FAILED: {reason}")
    if rep["metrics"]:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"   {'metric':<14}{'unit':<10}{'value':>11}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'n':>4}  bound")
        for name, m in rep["metrics"].items():
            print(f"   {name:<14}{m['unit']:<10}{m['value']:>11.4f}{m['median']:>11.4f}"
                  f"{m['q1']:>11.4f}{m['q3']:>11.4f}{m['n']:>4}  "
                  f"{bounds.get(name, 0):.0%}")
        print("   (value: best-of-N per step for times, median otherwise; "
              "median/q1/q3 over passes)")
    error_frac = rep["failed"] / rep["attempted"] if rep["attempted"] else 1.0
    print(f"   {'error_frac':<14}{'fraction':<10}{error_frac:>12.4f}"
          f"   ({rep['failed']}/{rep['attempted']})")
    if rep["per_layer"]:
        print("   per layer (one traced pass; self_s excludes child spans):")
        for name, m in rep["per_layer"].items():
            value = m["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"     {name:<28}{text:>16} {m['unit']}")


def result_line(reports: Dict[str, dict], trace: Optional[int], spec: dict) -> dict:
    """The last output line: end-to-end metrics for ``--trace 0``,
    per-layer metrics for ``--trace 1``, both otherwise; names are
    prefixed with the workload when more than one ran."""
    single = len(reports) == 1
    metrics: Dict[str, dict] = {}
    correct = True
    for w, rep in reports.items():
        wanted = []
        if trace in (None, 0):
            wanted += [(m["name"], "e2e") for m in spec["end_to_end"]]
        if trace in (None, 1):
            wanted += [(m["name"], "layer") for m in spec["per_layer"]]
        for name, kind in wanted:
            key = name if single else f"{w}/{name}"
            if kind == "e2e" and name in rep["metrics"]:
                m = rep["metrics"][name]
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
            elif kind == "layer" and name in rep["per_layer"]:
                metrics[key] = rep["per_layer"][name]
            else:
                correct = False
        correct = correct and rep["failed"] == 0
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _require_checkout() -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        sys.exit(2)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _load_pins() -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh).get("pins", {})


def _pin_for(pins: dict, size: str, workload: str, seed: int) -> Optional[str]:
    # figs-quick figures fix their own seeds, so its pin holds for every seed.
    key = "0" if workload == "figs-quick" else str(seed)
    return pins.get(size, {}).get(workload, {}).get(key)


def main_bench(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help=f"run seconds / {NOMINAL_PASS_S} untraced passes per "
                         f"workload, and stop starting passes after "
                         f"{CEILING_X}x this many seconds")
    ap.add_argument("--repeats", type=int,
                    help="untraced passes per workload (default 3, or as "
                         "--seconds gives)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    help="1: per-layer metrics only; 0: end-to-end only; "
                         "default both")
    ap.add_argument("--smoke", action="store_true", help="sub-minute sizes")
    ap.add_argument("--out", type=Path, help="append the full report as a JSON line")
    args = ap.parse_args(argv)

    spec = _require_checkout()
    pins = _load_pins()
    size = "smoke" if args.smoke else "full"
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeats:
        n_passes = args.repeats
    elif args.seconds:
        n_passes = max(2, int(args.seconds / NOMINAL_PASS_S))
    else:
        n_passes = 3
    ceiling_s = CEILING_X * args.seconds if args.seconds else None
    t0 = perf_counter()
    runs = measure(names, args.seed, size, args.trace, n_passes, ceiling_s)
    reports = {
        w: evaluate(runs[w], _pin_for(pins, size, w, args.seed)) for w in names
    }
    elapsed = perf_counter() - t0

    for w, rep in reports.items():
        print_report(w, args.seed, rep, spec)
        if "trace" in rep:
            path = SCRATCH / f"trace-{w}-seed{args.seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": w, "seed": args.seed, **rep["trace"]}, fh, indent=1)
            print(f"   trace: {path.relative_to(ROOT)}")
    print(f"total {elapsed:.1f} s")
    if args.out is not None:
        record = {"seed": args.seed, "size": size, "trace": args.trace,
                  "elapsed_s": elapsed,
                  "workloads": {w: {k: v for k, v in rep.items() if k != "trace"}
                                for w, rep in reports.items()}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    line = result_line(reports, args.trace, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main_compare(argv: List[str]) -> int:
    """The rule for claiming a gain on a small shared machine, one row
    per workload."""
    ap = argparse.ArgumentParser(prog="bench.py compare")
    ap.add_argument("parent", type=Path, help="JSON lines written by --out")
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    def load(path: Path) -> List[dict]:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    parent, change = load(args.parent), load(args.change)
    n = min(len(parent), len(change))
    print(f"{n} pairs (parent record i vs change record i; alternate which "
          "side runs first; pairs with unequal pass counts are left out)")
    names = [w for w in WORKLOADS
             if any(w in r["workloads"] for r in parent[:n])]
    for w in names:
        cells = []
        for m in spec["end_to_end"]:
            pairs = []
            for p, c in zip(parent[:n], change[:n]):
                pm = p["workloads"].get(w, {}).get("metrics", {}).get(m["name"])
                cm = c["workloads"].get(w, {}).get("metrics", {}).get(m["name"])
                # Best-of-N values compare only over equal pass counts.
                if pm and cm and pm["n"] == cm["n"]:
                    pairs.append((pm["value"], cm["value"]))
            cells.append(f"{m['name']}: {judge(pairs, m['better'], m['bound'])}")
        print(f"{w:<12} " + " | ".join(cells))
    return 0


def judge(pairs: List[tuple], better: str, bound: float) -> str:
    """Gain: >= 10 pairs, the change wins >= 9/10 of them and the medians
    differ by more than the parent's interquartile range. Regression: the
    change's median is worse by more than the bound. Unresolved: either
    side's spread exceeds the bound and the change does not beat every
    parent run."""
    if not pairs:
        return "no data"
    p = [a for a, _ in pairs]
    c = [b for _, b in pairs]
    sign = 1.0 if better == "higher" else -1.0
    pq1, pm, pq3 = quartiles(p)
    cq1, cm, cq3 = quartiles(c)
    delta = sign * (cm - pm) / pm
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    spread = max((pq3 - pq1) / pm, (cq3 - cq1) / cm)
    dominates = min(sign * x for x in c) > max(sign * x for x in p)
    tally = f"{delta:+.1%}, {wins}/{len(pairs)} wins"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and delta > 0 \
            and abs(cm - pm) > pq3 - pq1:
        return f"gain ({tally})"
    if spread > bound and not dominates:
        return f"unresolved (spread {spread:.1%} > {bound:.0%}; {tally})"
    if delta < -bound:
        return f"regression ({tally})"
    return f"no regression ({tally})"


def main_crosscheck(argv: List[str]) -> int:
    """Layer shares from the span tracer next to cProfile tottime."""
    ap = argparse.ArgumentParser(prog="bench.py crosscheck")
    ap.add_argument("--workload", choices=list(WORKLOADS), default="histo-flush")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    _require_checkout()
    size = "smoke" if args.smoke else "full"
    traced = run_pass(args.workload, args.seed, size, "trace", serial_pool=True)
    profiled = run_pass(args.workload, args.seed, size, "cprofile", serial_pool=True)
    for rec in (traced, profiled):
        if "error" in rec:
            print(rec["error"], file=sys.stderr)
            return 1
    spans = {k: v["self_s"] for k, v in traced["trace"]["layers"].items()}
    prof = profiled["profile_s"]
    span_total, prof_total = sum(spans.values()), sum(prof.values())
    print(f"{'layer':<12}{'tracer':>10}{'cProfile':>10}{'diff':>8}")
    worst = 0.0
    for layer in sorted(set(spans) | set(prof), key=lambda k: -spans.get(k, 0.0)):
        a = spans.get(layer, 0.0) / span_total
        b = prof.get(layer, 0.0) / prof_total
        worst = max(worst, abs(a - b))
        print(f"{layer:<12}{a:>10.3f}{b:>10.3f}{a - b:>+8.3f}")
    print(f"largest share difference {worst:.3f} "
          f"(traced {traced['wall_s']:.2f} s, cProfile {profiled['wall_s']:.2f} s)")
    return 0


def main_pin(argv: List[str]) -> int:
    """Re-pin the seed-0 digests after an intended change of results."""
    ap = argparse.ArgumentParser(prog="bench.py pin")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    _require_checkout()
    size = "smoke" if args.smoke else "full"
    with open(BASELINE, encoding="utf-8") as fh:
        doc = json.load(fh)
    for w in WORKLOADS:
        passes = [run_pass(w, 0, size, "plain") for _ in range(2)]
        check(passes, None)
        bad = [r for p in passes for r in p["reasons"]]
        if bad:
            print(f"{w}: not pinned: {bad}", file=sys.stderr)
            return 1
        doc.setdefault("pins", {}).setdefault(size, {})[w] = {"0": passes[0]["digest"]}
        print(f"{w}: {passes[0]['digest']}")
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    commands = {"compare": main_compare, "crosscheck": main_crosscheck,
                "pin": main_pin}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        sys.exit(commands[sys.argv[1]](sys.argv[2:]))
    sys.exit(main_bench(sys.argv[1:]))
