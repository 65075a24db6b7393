"""Smoke test of ``scripts/reach_audit.py``, the function-level reach
audit that lists the ``src/repro`` functions no CLI run calls."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SCRIPT = REPO / "scripts" / "reach_audit.py"
FOOTER = re.compile(r"never called: (\d+) of (\d+) functions, (\d+) lines")


def run_audit(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def never_called(report: str) -> dict:
    """Module path -> qualnames the report lists as never called."""
    listed, module = {}, None
    for line in report.splitlines()[:-1]:
        if line.startswith(" "):
            listed[module].add(line.split()[1])
        else:
            module = line
            listed[module] = set()
    return listed


class TestReachAudit:
    def test_list_run_reports_uncalled_functions(self, tmp_path):
        proc = run_audit(tmp_path, "--", "list")
        assert proc.returncode == 0, proc.stderr
        assert "reach_audit: repro list" in proc.stderr
        assert "reach_audit: rc=0" in proc.stderr
        footer = FOOTER.fullmatch(proc.stdout.splitlines()[-1])
        assert footer is not None, proc.stdout[-200:]
        never, total, lines = map(int, footer.groups())
        assert 0 < never < total and lines > never
        listed = never_called(proc.stdout)
        assert sum(map(len, listed.values())) == never
        # `list` runs no simulation, but it does enter the CLI.
        assert "Engine.run" in listed["repro/sim/engine.py"]
        assert "main" not in listed.get("repro/harness/cli.py", set())
        assert list(tmp_path.iterdir()) == []

    def test_parallel_run_refused(self, tmp_path):
        proc = run_audit(tmp_path, "--", "list", "--", "fig1", "--parallel", "2")
        assert proc.returncode == 1
        assert "refused:" in proc.stderr and "--parallel" in proc.stderr
        assert proc.stdout == ""
        assert "reach_audit: repro" not in proc.stderr  # nothing ran

    def test_argv_the_cli_refuses_is_refused_before_running(self, tmp_path):
        proc = run_audit(tmp_path, "--", "list", "--", "list", "--parallel", "2")
        assert proc.returncode == 1
        assert "refused:" in proc.stderr
        assert "unrecognized arguments: --parallel 2" in proc.stderr
        assert proc.stdout == ""
        assert "reach_audit: repro" not in proc.stderr  # nothing ran
