"""One benchmark pass in a fresh process (started by ``bench.py``).

A fresh interpreter per pass keeps in-process memoization, such as the
figure module's ``lru_cache``d index-gather and SSSP sweeps, from
turning a repeat into a no-op. The pass writes one JSON result file.

Modes: ``plain`` (untraced; the end-to-end metrics), ``trace`` (layer
spans on; the per-layer metrics) and ``cprofile`` (cProfile tottime
grouped by layer, for cross-checking the tracer).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

import tracing  # noqa: E402  (the script directory is on sys.path)
import workloads  # noqa: E402


def _jsonable(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"), default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def profile_shares(profile) -> dict:
    """cProfile tottime per layer. Functions outside the named layers
    (builtins, numpy, the standard library, ``repro.machine``) are
    charged, per call edge, to the layer of the nearest caller inside
    one, as the span tracer charges them to the enclosing span."""
    import pstats

    stats = pstats.Stats(profile).stats
    src = str(SRC.resolve())

    def own_layer(func) -> str:
        filename = func[0]
        if not filename.startswith(src):
            return "other"
        module = Path(filename[len(src) + 1:]).with_suffix("").as_posix()
        return tracing.layer_of(module.replace("/", "."))

    resolved: dict = {}

    def layer(func, seen=()) -> str:
        if func not in resolved:
            own = own_layer(func)
            callers = stats[func][4] if func in stats else {}
            if own == "other" and callers and func not in seen:
                # Follow the caller that accounts for most of the time.
                top = max(callers, key=lambda c: callers[c][3])
                own = layer(top, seen + (func,))
            resolved[func] = own
        return resolved[func]

    totals: dict = {}
    for func, (_, _, tottime, _, callers) in stats.items():
        own = own_layer(func)
        if own != "other" or not callers:
            totals[own] = totals.get(own, 0.0) + tottime
            continue
        for caller, edge in callers.items():
            target = layer(caller)
            totals[target] = totals.get(target, 0.0) + edge[2]
    return totals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True, choices=("full", "smoke"))
    ap.add_argument("--mode", required=True, choices=("plain", "trace", "cprofile"))
    ap.add_argument("--serial-pool", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    out: dict = {}
    try:
        t0 = perf_counter()
        sys.path.insert(0, str(SRC))
        tracing.import_modules()
        import_s = perf_counter() - t0

        probe = tracing.SetupProbe()
        probe.install()
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install(probe)
        fn = workloads.WORKLOADS[args.workload]
        size = workloads.SIZES[args.workload][args.size]
        env = workloads.Env(tmp=args.tmp, serial_pool=args.serial_pool)

        profile = None
        if args.mode == "cprofile":
            import cProfile

            profile = cProfile.Profile()
            profile.enable()
        t1 = perf_counter()
        outcome = fn(args.seed, size, env)
        wall_s = perf_counter() - t1
        if profile is not None:
            profile.disable()
        # Snapshot spans and memory now: the read-back below calls
        # traced functions too, outside the timed section.
        trace = tracer.report(wall_s) if tracer is not None else None
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )

        result = outcome.result() if callable(outcome.result) else outcome.result
        failures = outcome.verify()
        setup = {
            key: probe.seconds.get(key, 0.0)
            for key in ("runtime_init_s", "scheme_init_s", "graph_s")
        }
        out = {
            "wall_s": wall_s,
            "import_s": import_s,
            "setup": setup,
            "setup_s": import_s + sum(setup.values()),
            "runtimes": probe.runtimes,
            "events": outcome.events() if outcome.events else probe.events,
            "points": outcome.points or probe.runtimes,
            "points_steps": outcome.points_steps,
            "steps": env.steps,
            "peak_rss_mb": rss_kb / 1024.0,
            "digest": digest(result),
            "failures": failures,
            "extra": outcome.extra,
        }
        if trace is not None:
            out["trace"] = trace
        if profile is not None:
            out["profile_s"] = profile_shares(profile)
        status = 0
    except Exception:
        out = {"error": traceback.format_exc()}
        status = 1
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, default=_jsonable)
    return status


if __name__ == "__main__":
    sys.exit(main())
