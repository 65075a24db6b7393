"""Command-line entry point: ``python -m repro.harness`` / ``tramlib-repro``.

Examples::

    tramlib-repro list
    tramlib-repro fig9
    tramlib-repro fig12 --profile quick
    tramlib-repro all --profile quick --out results/
    tramlib-repro fig9 --parallel 8
    tramlib-repro sweep --app histogram \\
        --axes "nodes=1,2,4;scheme=WW,WPs,PP" --seeds 0,1 \\
        --parallel 8 --metrics-out sweep.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigError
from repro.harness.figures import FIGURES, run_figure
from repro.harness.pool import PoolConfig
from repro.options import RunOptions


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tramlib-repro",
        description=(
            "Regenerate the figures of 'Shared Memory-Aware "
            "Latency-Sensitive Message Aggregation for Fine-Grained "
            "Communication' (SC 2024) on the simulated SMP cluster."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "figure id (e.g. fig9), 'all', 'sweep', 'report', 'validate', "
            "'validate-metrics', 'timeline-plot', or 'list'"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        type=Path,
        default=None,
        help="artifact to read (validate-metrics / timeline-plot targets)",
    )
    parser.add_argument(
        "--profile",
        choices=["paper", "quick"],
        default="paper",
        help="sweep size: 'paper' (default) or 'quick'",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write per-figure .txt reports into",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "write a machine-readable JSON artifact (schema "
            "repro.run-metrics/2) with per-run stage breakdowns, "
            "utilization and the bottleneck verdict; for 'all', PATH is "
            "a directory with one <fig>.json per figure"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "run figures under seeded fault injection + reliable "
            "delivery; SPEC is comma-separated key=value pairs, e.g. "
            "'drop=0.01,dup=0.005,corrupt=0.001,reorder=0.02'"
        ),
    )
    parser.add_argument(
        "--flow",
        default=None,
        metavar="SPEC",
        help=(
            "run figures under credit-based flow control (bounded "
            "comm-thread/NIC occupancy, backpressure, overload "
            "escalation); SPEC is comma-separated key=value pairs, e.g. "
            "'ct_msgs=64,ct_bytes=1048576,overload=200000,shed=2000000'"
        ),
    )
    telemetry = parser.add_argument_group("time-series telemetry")
    telemetry.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "attach the flight recorder to every simulated run: "
            "periodic samples of queue depth, backlog, credit-gate "
            "occupancy, overload state, retransmit/shed counts and "
            "per-scheme buffered items, embedded as a 'timeline' block "
            "in the metrics artifact (off by default; deterministic — "
            "sampled on the simulated clock, not wall time)"
        ),
    )
    telemetry.add_argument(
        "--timeline-cadence",
        type=float,
        default=None,
        metavar="NS",
        help="simulated-time sampling cadence in ns (default: 50000)",
    )
    telemetry.add_argument(
        "--timeline-capacity",
        type=int,
        default=None,
        metavar="N",
        help=(
            "flight-recorder ring capacity in samples; on overflow the "
            "recorder decimates (keeps every other sample and doubles "
            "its stride) so memory stays bounded (default: 512)"
        ),
    )
    parallel = parser.add_argument_group("parallel execution and caching")
    parallel.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help=(
            "dispatch sweep/figure grid points to N worker processes "
            "(work-stealing fork pool; results are merged "
            "deterministically by grid index, so output is identical to "
            "a serial run; a point that raises fails the run, a point "
            "whose worker is killed is requeued once)"
        ),
    )
    parallel.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "content-addressed result cache directory; completed points "
            "are persisted there and identical re-runs are free "
            "(default for 'sweep': .repro-cache/sweep)"
        ),
    )
    parallel.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely (no reads, no writes)",
    )
    parallel.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing cache entries (still writes fresh ones)",
    )
    recovery = parser.add_argument_group(
        "crash recovery ('sweep' target)",
        "a journaled sweep fsyncs every completed point, so one stopped "
        "by a failed point, a drain signal (exit 3) or a killed parent "
        "resumes where it stopped",
    )
    recovery.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted sweep: replay the crash-consistent "
            "journal (and the result cache) before executing anything, "
            "so only the points the previous run never resolved are run"
        ),
    )
    recovery.add_argument(
        "--journal",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append-only JSONL journal of completed points, fsync'd per "
            "record (default for 'sweep' with caching on: "
            "<cache-dir>/sweep-journal.jsonl); --resume replays it"
        ),
    )
    sweep = parser.add_argument_group("generic sweeps ('sweep' target)")
    sweep.add_argument(
        "--app",
        default="histogram",
        metavar="NAME",
        help="benchmark app to sweep (histogram, indexgather, alltoall, "
        "phold, pingack)",
    )
    sweep.add_argument(
        "--axes",
        default=None,
        metavar="SPEC",
        help=(
            "swept axes as 'name=v1,v2,...;name2=...' — e.g. "
            "'nodes=1,2,4;scheme=WW,WPs,PP'"
        ),
    )
    sweep.add_argument(
        "--fixed",
        default=None,
        metavar="SPEC",
        help="constant app parameters, 'name=value,name=value' — e.g. "
        "'updates_per_pe=2000,buffer_items=64'",
    )
    sweep.add_argument(
        "--seeds",
        default="0",
        metavar="LIST",
        help="comma-separated seeds replicating every cell (default: 0)",
    )
    sweep.add_argument(
        "--metric",
        default="total_time_ns",
        metavar="NAME",
        help="result attribute to record per point (default: total_time_ns)",
    )
    sweep.add_argument(
        "--max-points",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N points then stop (cache hits are free); "
        "an interrupted sweep resumes from its cache",
    )
    return parser


# ----------------------------------------------------------------------
# Sweep-spec parsing
# ----------------------------------------------------------------------
def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axes(spec: str) -> dict:
    axes = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad axis {part!r} (want name=v1,v2,...)")
        name, values = part.split("=", 1)
        axes[name.strip()] = [_coerce(v.strip()) for v in values.split(",") if v.strip()]
    if not axes:
        raise ValueError("no axes given")
    return axes


def _parse_fixed(spec: str) -> dict:
    fixed = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad parameter {part!r} (want name=value)")
        name, value = part.split("=", 1)
        fixed[name.strip()] = _coerce(value.strip())
    return fixed


def _run_options(args) -> RunOptions:
    """The one :class:`~repro.options.RunOptions` the flags ask for."""
    obs = None
    if args.timeline:
        from repro.obs import ObsConfig, TimelineConfig

        cadence, capacity = args.timeline_cadence, args.timeline_capacity
        obs = ObsConfig(
            timeline=TimelineConfig(
                cadence_ns=50_000.0 if cadence is None else cadence,
                capacity=512 if capacity is None else capacity,
            )
        )
    return RunOptions(faults=args.faults, flow=args.flow, obs=obs)


def _pool_config(args) -> PoolConfig:
    """The one :class:`~repro.harness.pool.PoolConfig` the flags ask for.

    ``sweep`` caches by default (``.repro-cache/sweep``, journaled next
    to it) and drains gracefully on SIGINT/SIGTERM.
    """
    sweep = args.target == "sweep"
    cache_dir = None if args.no_cache else args.cache_dir
    if sweep and cache_dir is None and not args.no_cache:
        cache_dir = Path(".repro-cache") / "sweep"
    journal = args.journal
    if sweep and journal is None and cache_dir is not None:
        journal = cache_dir / "sweep-journal.jsonl"
    return PoolConfig(
        parallel=args.parallel,
        cache_dir=cache_dir,
        cache_read=not args.fresh,
        max_executions=args.max_points,
        journal=journal,
        resume=args.resume,
        drain_signals=sweep,
    )


#: Sweep-only flags: a figure runs several grids, so it takes no
#: journal or point budget.
_SWEEP_ONLY = ("journal", "resume", "max_points")
#: What the targets without run options would drop on top.
_RUN_OPTION_FLAGS = ("faults", "flow", "timeline", "metrics_out")
#: ``validate`` and ``report`` run the figures clean and write no
#: artifact; the others run no simulation at all.
_NO_RUN_OPTIONS = ("validate", "report", "list", "validate-metrics", "timeline-plot")
#: The flight recorder's shape, dropped by every target without
#: ``--timeline``.
_TIMELINE_SHAPE = ("timeline_cadence", "timeline_capacity")


#: The one target that honours crash keys in ``--faults``: its figure
#: reads only per-scheme buffer, latency and time counters. Every other
#: target checks that each item arrives, or reports data from runs that
#: lost items; extC places its own crashes on top of the plan.
_CRASH_TARGET = "extB"


def _refused_flag(args) -> Optional[str]:
    """The first flag ``args.target`` would silently drop, if any."""
    if args.target in _NO_RUN_OPTIONS:
        refused = _SWEEP_ONLY + _RUN_OPTION_FLAGS
    elif args.target == "all" or args.target in FIGURES:
        refused = _SWEEP_ONLY
    elif args.target == "sweep":
        refused = ()
    else:
        return None
    for dest in refused:
        if getattr(args, dest) not in (None, False):
            return "--" + dest.replace("_", "-")
    if not args.timeline:
        for dest in _TIMELINE_SHAPE:
            if getattr(args, dest) is not None:
                return "--" + dest.replace("_", "-") + " without --timeline"
    return None


def _run_sweep_cmd(args, options: RunOptions, pool: PoolConfig) -> int:
    import functools
    import json as _json

    from repro.errors import HarnessError
    from repro.harness.pool import SweepInterrupted, run_app_point
    from repro.harness.sweep import run_sweep

    if not args.axes:
        print("error: sweep needs --axes 'name=v1,v2;...'", file=sys.stderr)
        return 2
    try:
        axes = _parse_axes(args.axes)
        fixed = _parse_fixed(args.fixed) if args.fixed else {}
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fn = functools.partial(run_app_point, args.app, args.metric, **fixed)
    # The fixed parameters are folded into the cache tag (they are not
    # part of the per-point params), so differently-pinned sweeps never
    # share cache entries.
    tag = f"app:{args.app}:{args.metric}:" + _json.dumps(
        fixed, sort_keys=True, separators=(",", ":")
    )
    t0 = time.perf_counter()
    try:
        result = run_sweep(
            fn,
            axes,
            seeds=seeds,
            metric=args.metric,
            metrics_path=args.metrics_out,
            tag=tag,
            options=options,
            pool=pool,
        )
    except SweepInterrupted as exc:
        print(f"sweep interrupted: {exc}", file=sys.stderr)
        return 3
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    table = result.to_table()
    print(table)
    summary = result.pool_summary_text()
    if summary:
        print(summary)
    hits, points = result.total_cache_hits, result.total_points
    print(
        f"[swept {points} point(s) in {elapsed:.1f}s wall with "
        f"--parallel {args.parallel}: {hits} cache hit(s), "
        f"{points - hits} executed]"
    )
    if args.metrics_out is not None:
        print(f"[metrics artifact written to {args.metrics_out}]")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"sweep_{args.app}_{args.metric}.txt").write_text(
            table + "\n"
        )
    return 0


def _run_one(
    fig_id: str,
    args,
    options: RunOptions,
    pool: PoolConfig,
    metrics_out: Optional[Path],
) -> None:
    t0 = time.perf_counter()
    data = run_figure(
        fig_id, args.profile, metrics_path=metrics_out, options=options,
        pool=pool,
    )
    elapsed = time.perf_counter() - t0
    report = data.render()
    print(report)
    suffix = f" under faults '{args.faults}'" if args.faults else ""
    if args.flow:
        suffix += f" with flow control '{args.flow}'"
    if pool.parallel != 1:
        suffix += f" at --parallel {pool.parallel}"
    print(f"[{fig_id} regenerated in {elapsed:.1f}s wall{suffix}]")
    if metrics_out is not None:
        print(f"[metrics artifact written to {metrics_out}]")
    print()
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{fig_id}.txt").write_text(report + "\n")


def _validate_metrics(path: Optional[Path]) -> int:
    import json

    from repro.harness.artifact import validate_metrics_payload

    if path is None:
        print("error: validate-metrics needs a path argument", file=sys.stderr)
        return 2
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    errors = validate_metrics_payload(payload)
    if errors:
        for err in errors:
            print(f"INVALID: {err}")
        return 1
    runs = payload.get("runs", [])
    verdict = (payload.get("summary") or {}).get("bottleneck")
    print(
        f"OK: {path} ({payload.get('target')}, {len(runs)} run(s), "
        f"bottleneck: {verdict})"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = _run_options(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    refused = _refused_flag(args)
    if refused is not None:
        print(f"error: {args.target!r} does not take {refused}", file=sys.stderr)
        return 2
    faults = options.faults
    if faults is not None and faults.has_crashes() and args.target != _CRASH_TARGET:
        print(
            f"error: {args.target!r} cannot run under crash keys in --faults; "
            f"only {_CRASH_TARGET} takes them",
            file=sys.stderr,
        )
        return 2
    pool = _pool_config(args)
    if args.target == "list":
        width = max(len(k) for k in FIGURES)
        for fig_id, (_, desc) in FIGURES.items():
            print(f"{fig_id.ljust(width)}  {desc}")
        return 0
    if args.target == "validate-metrics":
        return _validate_metrics(args.path)
    if args.target == "timeline-plot":
        from repro.harness.timeline_plot import run_timeline_plot

        return run_timeline_plot(args.path, out=args.out)
    if args.target == "sweep":
        return _run_sweep_cmd(args, options, pool)
    if args.target == "all":
        for fig_id in FIGURES:
            metrics_out = (
                args.metrics_out / f"{fig_id}.json"
                if args.metrics_out is not None
                else None
            )
            _run_one(fig_id, args, options, pool, metrics_out)
        return 0
    if args.target == "validate":
        from repro.harness.validate import render_results, validate_reproduction

        results = validate_reproduction(profile=args.profile, pool=pool)
        print(render_results(results))
        failed = [r for r in results if not r.passed]
        print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0
    if args.target == "report":
        from repro.harness.report import write_report

        outdir = args.out if args.out is not None else Path("results")
        outdir.mkdir(parents=True, exist_ok=True)
        path = write_report(
            outdir / "REPORT.md", profile=args.profile, pool=pool
        )
        print(f"wrote {path}")
        return 0
    if args.target not in FIGURES:
        print(
            f"error: unknown target {args.target!r} "
            f"(known: {', '.join(FIGURES)}, all, sweep, report, validate, "
            f"validate-metrics, timeline-plot, list)",
            file=sys.stderr,
        )
        return 2
    _run_one(args.target, args, options, pool, args.metrics_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
