"""Command-line entry point: ``python -m repro.harness`` / ``tramlib-repro``.

Every target is its own argparse subparser, built from the flag groups
it reads, so argparse refuses any flag a target would drop;
``tramlib-repro TARGET -h`` lists what a target takes.

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


class _Parser(argparse.ArgumentParser):
    """Raises :class:`ConfigError` where argparse would print usage and
    exit 2, so :func:`main` reports every refusal alike (``-h`` still
    exits 0). Flags are never abbreviated: a figure target has no
    ``--metric`` and must refuse it, not read it as ``--metrics-out``.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


def _at_least(minimum: int):
    """An argparse ``type``: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"want an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


# ----------------------------------------------------------------------
# Flag groups: a target's parser holds exactly the groups it reads
# ----------------------------------------------------------------------
def _profile_flag(parser) -> None:
    parser.add_argument("--profile", choices=["paper", "quick"], default="paper",
                        help="sweep size: 'paper' (default) or 'quick'")


def _out_flag(parser) -> None:
    parser.add_argument("--out", type=Path, metavar="DIR",
                        help="directory to also write the text report into")


def _path_arg(parser) -> None:
    parser.add_argument("path", type=Path, help="metrics artifact (JSON) to read")


def _run_option_flags(parser) -> None:
    group = parser.add_argument_group("run options")
    group.add_argument("--metrics-out", type=Path, metavar="PATH", help=(
        "write a machine-readable JSON artifact (schema "
        "repro.run-metrics/2) with per-run stage breakdowns, utilization "
        "and the bottleneck verdict; for 'all', PATH is a directory with "
        "one <fig>.json per figure"))
    group.add_argument("--faults", metavar="SPEC", help=(
        "run under seeded fault injection + reliable delivery; SPEC is "
        "comma-separated key=value pairs, e.g. "
        "'drop=0.01,dup=0.005,corrupt=0.001,reorder=0.02' (crash keys: "
        "extB only)"))
    group.add_argument("--flow", metavar="SPEC", help=(
        "run under credit-based flow control (bounded comm-thread/NIC "
        "occupancy, backpressure, overload escalation); SPEC is "
        "comma-separated key=value pairs, e.g. "
        "'ct_msgs=64,ct_bytes=1048576,overload=200000,shed=2000000'"))
    group.add_argument("--timeline", action="store_true", help=(
        "attach the flight recorder to every simulated run: periodic "
        "samples of queue depth, backlog, credit-gate occupancy, overload "
        "state, retransmit/shed counts and per-scheme buffered items, "
        "embedded as a 'timeline' block in the metrics artifact "
        "(deterministic: sampled on the simulated clock)"))
    group.add_argument("--timeline-cadence", type=float, metavar="NS", help=(
        "with --timeline: sampling cadence in simulated ns (default: 50000)"))
    group.add_argument("--timeline-capacity", type=int, metavar="N", help=(
        "with --timeline: ring capacity in samples, at least 8; on "
        "overflow the recorder keeps every other sample and doubles its "
        "stride (default: 512)"))


def _pool_flags(parser) -> None:
    group = parser.add_argument_group("parallel execution and caching")
    group.add_argument("--parallel", type=_at_least(1), default=1, metavar="N", help=(
        "dispatch grid points to N forked worker processes; results merge "
        "by grid index, so output is identical to a serial run"))
    group.add_argument("--cache-dir", type=Path, metavar="DIR", help=(
        "content-addressed result cache; identical re-runs of a point "
        "are free (default for 'sweep': .repro-cache/sweep)"))
    group.add_argument("--no-cache", action="store_true",
                       help="disable the result cache (no reads, no writes)")
    group.add_argument("--fresh", action="store_true",
                       help="ignore existing cache entries (still writes fresh ones)")
    # The PoolConfig inputs that only the sweep flags set.
    parser.set_defaults(journal=None, journal_name=None, resume=False,
                        max_points=None, drain_signals=False)


def _sweep_flags(parser) -> None:
    group = parser.add_argument_group("the swept grid")
    group.add_argument("--app", default="histogram", metavar="NAME", help=(
        "benchmark app to sweep (histogram, indexgather, alltoall, phold, "
        "pingack)"))
    group.add_argument("--axes", type=_parse_axes, required=True, metavar="SPEC",
                       help="swept axes as 'name=v1,v2,...;name2=...', e.g. "
                       "'nodes=1,2,4;scheme=WW,WPs,PP'")
    group.add_argument("--fixed", type=_parse_fixed, default={}, metavar="SPEC",
                       help="constant app parameters as 'name=value,...', "
                       "e.g. 'updates_per_pe=2000,buffer_items=64'")
    group.add_argument("--seeds", type=_parse_seeds, default="0", metavar="LIST",
                       help="comma-separated seeds replicating every cell "
                       "(default: 0)")
    group.add_argument("--metric", default="total_time_ns", metavar="NAME",
                       help="result attribute to record per point "
                       "(default: total_time_ns)")
    group.add_argument("--max-points", type=_at_least(0), metavar="N", help=(
        "execute at most N points, then stop with exit 3 (cache hits are "
        "free); --resume finishes the sweep"))
    group = parser.add_argument_group(
        "crash recovery",
        "a journaled sweep fsyncs every completed point, so one stopped "
        "by a failed point, a drain signal (exit 3) or a killed parent "
        "resumes where it stopped")
    group.add_argument("--resume", action="store_true", help=(
        "replay the journal (and the result cache) first, so only the "
        "points the previous run never resolved are executed"))
    group.add_argument("--journal", type=Path, metavar="PATH", help=(
        "append-only JSONL journal of completed points (default with "
        "caching on: <cache-dir>/sweep-journal.jsonl)"))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tramlib-repro",
        description=(
            "Regenerate the figures of 'Shared Memory-Aware "
            "Latency-Sensitive Message Aggregation for Fine-Grained "
            "Communication' (SC 2024) on the simulated SMP cluster."
        ),
        epilog="'tramlib-repro TARGET -h' lists the flags TARGET takes.",
    )
    targets = parser.add_subparsers(
        dest="target", metavar="TARGET", required=True, title="targets"
    )

    def target(name, summary, handler, *flag_groups):
        sub = targets.add_parser(name, help=summary, description=summary)
        for add in flag_groups:
            add(sub)
        sub.set_defaults(handler=handler)
        return sub

    figure = (_profile_flag, _out_flag, _run_option_flags, _pool_flags)
    for fig_id, (_, summary) in FIGURES.items():
        target(fig_id, summary, _run_figure, *figure)
    target("all", "every figure in turn", _run_all, *figure)
    sweep = target("sweep", "a generic app sweep over a parameter grid",
                   _run_sweep_cmd, _out_flag, _run_option_flags, _pool_flags,
                   _sweep_flags)
    # A sweep caches (unless --no-cache), journals inside its cache and
    # drains gracefully on SIGINT/SIGTERM.
    sweep.set_defaults(cache_dir=Path(".repro-cache") / "sweep",
                       journal_name="sweep-journal.jsonl", drain_signals=True)
    target("validate", "PASS/FAIL shape checks over every figure", _validate,
           _profile_flag, _pool_flags)
    report = target("report", "one Markdown reproduction report, DIR/REPORT.md",
                    _report, _profile_flag, _out_flag, _pool_flags)
    report.set_defaults(out=Path("results"))
    target("list", "the experiment registry", _list)
    target("validate-metrics", "re-check a metrics artifact (exit 0 ok, "
           "1 invalid, 2 unreadable)", _validate_metrics, _path_arg)
    target("timeline-plot", "ASCII charts of an artifact's timeline blocks",
           _timeline_plot, _path_arg, _out_flag)
    return parser


# ----------------------------------------------------------------------
# Sweep-spec parsing (argparse ``type`` functions)
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
            raise argparse.ArgumentTypeError(
                f"bad axis {part!r} (want name=v1,v2,...)"
            )
        name, values = part.split("=", 1)
        axes[name.strip()] = [_coerce(v.strip()) for v in values.split(",") if v.strip()]
    if not axes:
        raise argparse.ArgumentTypeError("no axes given")
    return axes


def _parse_fixed(spec: str) -> dict:
    fixed = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"bad parameter {part!r} (want name=value)"
            )
        name, value = part.split("=", 1)
        fixed[name.strip()] = _coerce(value.strip())
    return fixed


def _parse_seeds(spec: str) -> List[int]:
    try:
        return [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed list {spec!r} (want integers, e.g. 0,1,2)"
        ) from None


# ----------------------------------------------------------------------
# Flags -> RunOptions and PoolConfig, refusing what a target cannot honour
# ----------------------------------------------------------------------
#: The flight recorder's shape, meaningless without ``--timeline``.
_TIMELINE_SHAPE = ("timeline_cadence", "timeline_capacity")


#: The one target that honours crash keys in ``--faults``: its figure
#: reads only per-scheme buffer, latency and time counters. Every other
#: target checks that each item arrives, or reports data from runs that
#: lost items; extC places its own crashes on top of the plan.
_CRASH_TARGET = "extB"


def _run_options(args) -> RunOptions:
    """The one :class:`~repro.options.RunOptions` the flags ask for
    (the default for a target without run-option flags).

    Raises :class:`ConfigError` for a bad ``--faults``/``--flow`` spec or
    timeline shape, a timeline shape without ``--timeline``, and crash
    keys on any target but extB.
    """
    if "faults" not in args:
        return RunOptions()
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
    else:
        for dest in _TIMELINE_SHAPE:
            if getattr(args, dest) is not None:
                raise ConfigError(
                    f"{args.target!r} does not take "
                    f"--{dest.replace('_', '-')} without --timeline"
                )
    options = RunOptions(faults=args.faults, flow=args.flow, obs=obs)
    faults = options.faults
    if faults is not None and faults.has_crashes() and args.target != _CRASH_TARGET:
        raise ConfigError(
            f"{args.target!r} cannot run under crash keys in --faults; "
            f"only {_CRASH_TARGET} takes them"
        )
    return options


def _pool_config(args) -> PoolConfig:
    """The one :class:`~repro.harness.pool.PoolConfig` the flags ask for
    (the default for a target without pool flags).

    The ``sweep`` parser's defaults cache to ``.repro-cache/sweep``,
    journal to ``sweep-journal.jsonl`` in the cache and drain gracefully
    on SIGINT/SIGTERM.
    """
    if "parallel" not in args:
        return PoolConfig()
    cache_dir = None if args.no_cache else args.cache_dir
    journal = args.journal
    if journal is None and cache_dir is not None and args.journal_name:
        journal = cache_dir / args.journal_name
    return PoolConfig(
        parallel=args.parallel,
        cache_dir=cache_dir,
        cache_read=not args.fresh,
        max_executions=args.max_points,
        journal=journal,
        resume=args.resume,
        drain_signals=args.drain_signals,
    )


# ----------------------------------------------------------------------
# Target handlers: each takes (args, options, pool) and returns the exit code
# ----------------------------------------------------------------------
def _run_sweep_cmd(args, options: RunOptions, pool: PoolConfig) -> int:
    import functools
    import json as _json

    from repro.errors import HarnessError
    from repro.harness.pool import SweepInterrupted, run_app_point
    from repro.harness.sweep import run_sweep

    fn = functools.partial(run_app_point, args.app, args.metric, **args.fixed)
    # The fixed parameters are folded into the cache tag (they are not
    # part of the per-point params), so differently-pinned sweeps never
    # share cache entries.
    tag = f"app:{args.app}:{args.metric}:" + _json.dumps(
        args.fixed, sort_keys=True, separators=(",", ":")
    )
    t0 = time.perf_counter()
    try:
        result = run_sweep(
            fn,
            args.axes,
            seeds=args.seeds,
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


def _run_figure(args, options: RunOptions, pool: PoolConfig) -> int:
    _run_one(args.target, args, options, pool, args.metrics_out)
    return 0


def _run_all(args, options: RunOptions, pool: PoolConfig) -> int:
    for fig_id in FIGURES:
        metrics_out = (
            args.metrics_out / f"{fig_id}.json"
            if args.metrics_out is not None
            else None
        )
        _run_one(fig_id, args, options, pool, metrics_out)
    return 0


def _validate(args, options: RunOptions, pool: PoolConfig) -> int:
    from repro.harness.validate import render_results, validate_reproduction

    results = validate_reproduction(profile=args.profile, pool=pool)
    print(render_results(results))
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _report(args, options: RunOptions, pool: PoolConfig) -> int:
    from repro.harness.report import write_report

    args.out.mkdir(parents=True, exist_ok=True)
    path = write_report(args.out / "REPORT.md", profile=args.profile, pool=pool)
    print(f"wrote {path}")
    return 0


def _list(args, options: RunOptions, pool: PoolConfig) -> int:
    width = max(len(k) for k in FIGURES)
    for fig_id, (_, desc) in FIGURES.items():
        print(f"{fig_id.ljust(width)}  {desc}")
    return 0


def _validate_metrics(args, options: RunOptions, pool: PoolConfig) -> int:
    import json

    from repro.harness.artifact import validate_metrics_payload

    path = args.path
    try:
        payload = json.loads(path.read_text())
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


def _timeline_plot(args, options: RunOptions, pool: PoolConfig) -> int:
    from repro.harness.timeline_plot import run_timeline_plot

    return run_timeline_plot(args.path, out=args.out)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one target. A refused command line (any argparse usage error,
    or a flag value the target cannot honour) prints one ``error:`` line
    and returns 2 before anything runs."""
    try:
        args = _build_parser().parse_args(argv)
        options = _run_options(args)
        pool = _pool_config(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.handler(args, options, pool)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
