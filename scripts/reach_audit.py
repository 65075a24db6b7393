#!/usr/bin/env python
"""Function-level reach audit: which ``src/repro`` functions does a set of
CLI runs never call?

Each ``--``-separated argument list is run in-process through
``repro.harness.cli.main`` under ``sys.setprofile``; every ``src/repro``
code object that receives a call is recorded. Then every ``src/repro``
module is compiled and walked for its function code objects, and the ones
no run called are printed, grouped by module, with their line counts and a
total.

The runs' own output goes to stderr, so stdout carries only the report.

Usage (run from a scratch directory: the runs write their usual files)::

    PYTHONPATH=/path/to/src python /path/to/scripts/reach_audit.py \\
        -- all --profile quick --metrics-out m \\
        -- validate-metrics m/fig12.json \\
        -- fig12 --profile quick --faults drop=0.01

Forked pool workers are invisible to the profiler, so ``--parallel`` above
1 is refused. A function that only a forked child would run is reported as
never called. An argument list the CLI's parser refuses is refused too,
before anything runs.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from pathlib import Path


def _split_runs(argv):
    runs, cur = [], None
    for arg in argv:
        if arg == "--":
            cur = []
            runs.append(cur)
        elif cur is None:
            raise SystemExit("usage: reach_audit.py -- ARGV... [-- ARGV...]")
        else:
            cur.append(arg)
    return [run for run in runs if run]


def _functions(code):
    """Yield ``(code, lines, enclosing)`` for each named function, where
    ``enclosing`` holds the code objects of the functions around it."""
    def walk(co, enclosing):
        for const in co.co_consts:
            if not hasattr(const, "co_code"):
                continue
            if not const.co_name.startswith("<") and const.co_flags & 0x1:
                # CO_OPTIMIZED: a function body, not a class or module body
                last = max(_last_line(const), const.co_firstlineno)
                yield const, last - const.co_firstlineno + 1, enclosing
                yield from walk(const, enclosing + (const,))
            else:
                yield from walk(const, enclosing)
    yield from walk(code, ())


def _last_line(co):
    last = max((ln for _, _, ln in co.co_lines() if ln is not None), default=0)
    for const in co.co_consts:
        if hasattr(const, "co_code"):
            last = max(last, _last_line(const))
    return last


def main(argv=None):
    import repro
    from repro.errors import ConfigError
    from repro.harness.cli import _build_parser, main as cli_main

    runs = _split_runs(sys.argv[1:] if argv is None else argv)
    if not runs:
        raise SystemExit("usage: reach_audit.py -- ARGV... [-- ARGV...]")
    for run in runs:
        try:
            args = _build_parser().parse_args(run)
        except ConfigError as exc:
            raise SystemExit(f"refused: {' '.join(run)!r}: {exc}") from None
        # Targets without pool flags (list, validate-metrics, ...) run serially.
        if getattr(args, "parallel", 1) > 1:
            raise SystemExit(
                f"refused: {' '.join(run)!r} uses --parallel above 1; the "
                "profiler cannot see forked workers"
            )

    root = Path(repro.__file__).parent
    prefix = str(root)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            co = frame.f_code
            if co.co_filename.startswith(prefix):
                called.add((co.co_filename, co.co_firstlineno, co.co_name))

    for run in runs:
        print(f"reach_audit: repro {' '.join(run)}", file=sys.stderr)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli_main(run)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        print(f"reach_audit: rc={rc}", file=sys.stderr)

    total_fns = never = never_lines = 0
    for path in sorted(root.rglob("*.py")):
        filename = str(path)
        code = compile(path.read_text(), filename, "exec")
        rows, uncalled = [], set()
        for co, lines, enclosing in _functions(code):
            total_fns += 1
            if (filename, co.co_firstlineno, co.co_name) in called:
                continue
            never += 1
            uncalled.add(co)
            if not uncalled.intersection(enclosing):
                never_lines += lines  # else already in the outer count
            name = getattr(co, "co_qualname", co.co_name)  # 3.11+
            rows.append((co.co_firstlineno, name, lines))
        if rows:
            print(f"{path.relative_to(root.parent)}")
            for line, qualname, lines in rows:
                print(f"  {line:5d}  {qualname}  ({lines} lines)")
    print(
        f"never called: {never} of {total_fns} functions, "
        f"{never_lines} lines"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
