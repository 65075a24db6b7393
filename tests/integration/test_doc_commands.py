"""Every documented command line parses.

Each ``tramlib-repro ...`` and ``python -m repro.harness ...`` line in the
fenced code blocks of the docs, and in the ``run:`` steps of the CI
workflow, goes through the CLI's parser without running, so no doc can
show a flag its target refuses. Backslash continuations and YAML folded
(``run: >``) blocks are joined first; shell comments, redirections and
pipes are cut off.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.harness.cli import _build_parser

REPO = Path(__file__).resolve().parents[2]
DOCS = [
    REPO / "README.md",
    REPO / "EXPERIMENTS.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]
CI = REPO / ".github" / "workflows" / "ci.yml"
COMMAND = re.compile(r"(?:tramlib-repro|python -m repro\.harness)\s(.*)")
SHELL_STOP = re.compile(r"\d?>|\||&&|;|<")


def _join_continuations(numbered):
    """``(lineno, line)`` pairs with backslash-continued lines joined
    onto the line that starts them."""
    joined, start, pending = [], None, ""
    for lineno, line in numbered:
        if start is None:
            start = lineno
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        joined.append((start, pending + line))
        start, pending = None, ""
    return joined


def _fenced(text):
    inside, lines = False, []
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            lines.append((lineno, line))
    return lines


def _run_steps(text):
    """The shell lines of every ``run:`` step: a ``>`` block folds into
    one line, a ``|`` block keeps its lines."""
    lines = text.splitlines()
    out = []
    for i, line in enumerate(lines):
        m = re.match(r"\s*(?:- )?run:\s*(.*)$", line)
        if m is None:
            continue
        value, key_col = m.group(1).strip(), line.index("run:")
        if value[:1] not in (">", "|"):
            out.append((i + 1, value))
            continue
        block = []
        for j in range(i + 1, len(lines)):
            nxt = lines[j]
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= key_col:
                break
            block.append((j + 1, nxt.strip()))
        if value.startswith(">"):
            out.append((i + 1, " ".join(text for _, text in block if text)))
        else:
            out.extend(block)
    return out


def _commands():
    sources = [(path, _fenced(path.read_text())) for path in DOCS]
    sources.append((CI, _run_steps(CI.read_text())))
    for path, numbered in sources:
        for lineno, line in _join_continuations(numbered):
            m = COMMAND.search(line)
            if m is None:
                continue
            argv = []
            for token in shlex.split(m.group(1), comments=True):
                if SHELL_STOP.fullmatch(token):
                    break
                argv.append(token)
            yield f"{path.relative_to(REPO)}:{lineno}", argv


COMMANDS = dict(_commands())


def test_every_doc_source_shows_commands():
    sources = {where.rsplit(":", 1)[0] for where in COMMANDS}
    for doc in ("README.md", "docs/reproducing.md",
                ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"):
        assert doc in sources
    # The CI's folded sweep steps join into one command line each.
    sweeps = [argv for where, argv in COMMANDS.items()
              if where.startswith(".github") and argv[0] == "sweep"]
    assert sweeps and all("--metrics-out" in argv for argv in sweeps)


@pytest.mark.parametrize("where", sorted(COMMANDS))
def test_documented_command_parses(where):
    _build_parser().parse_args(COMMANDS[where])
