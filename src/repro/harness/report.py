"""One-shot reproduction report.

``write_report`` regenerates a set of experiments and writes a single
Markdown document with every data table, the paper's expectation for
each, and the run configuration — the artifact you attach to a
reproduction claim. The CLI exposes it as ``tramlib-repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.harness.figures import FIGURES, run_figure


def _figure_markdown(fig_id: str, profile: str, pool) -> str:
    t0 = time.perf_counter()
    data = run_figure(fig_id, profile, pool=pool)
    elapsed = time.perf_counter() - t0
    lines = [
        f"## {fig_id} — {data.title}",
        "",
        "```text",
        data.to_table(),
        "```",
        "",
        f"*y-axis*: {data.ylabel}.",
    ]
    if data.expected:
        lines.append(f"*Paper expectation*: {data.expected}.")
    if data.notes:
        lines.append(f"*Notes*: {data.notes}.")
    lines.append(f"*Regenerated in {elapsed:.1f}s wall.*")
    lines.append("")
    return "\n".join(lines)


def write_report(
    path: Union[str, Path],
    *,
    profile: str = "paper",
    figures: Optional[Iterable[str]] = None,
    pool=None,
) -> Path:
    """Regenerate experiments and write a Markdown report.

    Parameters
    ----------
    path:
        Output file (created/overwritten).
    profile:
        ``paper`` or ``quick``.
    figures:
        Experiment ids to include; defaults to the full registry.
    pool:
        Optional :class:`~repro.harness.pool.PoolConfig` for the
        figures' grid points (worker processes, result cache).

    Returns
    -------
    Path
        The written file.
    """
    ids = list(figures) if figures is not None else list(FIGURES)
    header = [
        "# Reproduction report",
        "",
        "*Shared Memory-Aware Latency-Sensitive Message Aggregation for "
        "Fine-Grained Communication* (SC 2024) — regenerated on the "
        "simulated SMP cluster.",
        "",
        f"Profile: `{profile}`. Experiments: {', '.join(ids)}.",
        "",
        "All values are **simulated time**; compare shapes against the "
        "paper, not absolute numbers (see EXPERIMENTS.md).",
        "",
    ]
    body = [_figure_markdown(fig_id, profile, pool) for fig_id in ids]
    out = Path(path)
    out.write_text("\n".join(header + body))
    return out
