"""`repro timeline-plot`: stacked time-series figures from an artifact.

Reads a ``repro.run-metrics`` JSON artifact produced with ``--timeline``
and renders each run's flight-recorder block as per-track stacked ASCII
area charts — comm-thread backlog, NIC backlog, credit-gate occupancy,
parked messages, per-scheme buffered items, queued bytes and the
overload flag — so a run's time structure (a backlog ramp under an
overload window, gates saturating before shedding starts) is visible
straight from the terminal, no plotting stack required.

Charts are stacked: at every time column the series are drawn on top of
each other, so the silhouette is the total and the bands are the
per-entity shares.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Symbols assigned to series within one track, in legend order.
_SYMBOLS = "#*o+x%@=~^"

#: Chart geometry.
_WIDTH = 72
_HEIGHT = 8

#: Track definitions: (title, unit, predicate on series name). Order is
#: presentation order; a series lands in the first track that claims it.
_TRACKS: List[Tuple[str, str, object]] = [
    ("comm-thread backlog", "ns",
     lambda n: n.startswith("ct.") and n.endswith(".backlog_ns")),
    ("NIC tx backlog", "ns",
     lambda n: n.startswith("nic.") and n.endswith(".tx_backlog_ns")),
    ("NIC rx backlog", "ns",
     lambda n: n.startswith("nic.") and n.endswith(".rx_backlog_ns")),
    ("credit-gate in-flight", "messages",
     lambda n: n.startswith("gate.") and n.endswith(".in_flight_msgs")),
    ("parked at gates", "messages",
     lambda n: n.startswith("gate.") and n.endswith(".parked")),
    ("buffered items per scheme", "items",
     lambda n: n.startswith("tram.") and n.endswith(".pending_items")),
    ("worker queued bytes", "bytes", lambda n: n == "workers.queued_bytes"),
    ("in-flight reliability window", "messages",
     lambda n: n == "reliability.pending_messages"),
    ("overload state", "0/1", lambda n: n == "flow.overloaded"),
    ("oldest park age", "ns", lambda n: n == "flow.oldest_park_age_ns"),
]


def group_tracks(series: Dict[str, List[float]]) -> List[Tuple[str, str, Dict[str, List[float]]]]:
    """Partition series into presentation tracks; drops cumulative
    counters (their stacked areas would just be monotone wedges)."""
    out = []
    claimed = set()
    for title, unit, wants in _TRACKS:
        members = {
            name: col
            for name, col in series.items()
            if name not in claimed and wants(name)
        }
        if not members or all(not any(col) for col in members.values()):
            continue
        claimed.update(members)
        out.append((title, unit, dict(sorted(members.items()))))
    return out


def _resample(times: Sequence[float], col: Sequence[float], grid: Sequence[float]) -> List[float]:
    """Sample-and-hold ``col`` onto ``grid`` (0 before the first sample)."""
    out = []
    i = -1
    for t in grid:
        while i + 1 < len(times) and times[i + 1] <= t:
            i += 1
        out.append(col[i] if i >= 0 else 0.0)
    return out


def _fmt(v: float) -> str:
    if v >= 1e9:
        return f"{v / 1e9:.3g}G"
    if v >= 1e6:
        return f"{v / 1e6:.3g}M"
    if v >= 1e3:
        return f"{v / 1e3:.3g}k"
    return f"{v:.3g}"


def render_track(
    title: str,
    unit: str,
    times: Sequence[float],
    members: Dict[str, List[float]],
    *,
    width: int = _WIDTH,
    height: int = _HEIGHT,
) -> str:
    """One stacked ASCII area chart with axis labels and a legend."""
    t0, t1 = times[0], times[-1]
    span = (t1 - t0) or 1.0
    grid = [t0 + span * j / (width - 1) for j in range(width)]
    names = list(members)
    resampled = [_resample(times, members[n], grid) for n in names]
    # Stacked: cumulative top edge of each band per column.
    tops: List[List[float]] = []
    acc = [0.0] * width
    for col in resampled:
        acc = [a + v for a, v in zip(acc, col)]
        tops.append(list(acc))
    peak = max(acc) or 1.0
    rows = []
    for r in range(height, 0, -1):
        # Cell is filled by the lowest band whose top reaches this row.
        lo = peak * (r - 0.5) / height
        cells = []
        for j in range(width):
            ch = " "
            for si in range(len(names)):
                if tops[si][j] >= lo:
                    ch = _SYMBOLS[si % len(_SYMBOLS)]
                    break
            cells.append(ch)
        label = _fmt(peak * r / height) if r in (height, height // 2) else ""
        rows.append(f"{label:>8} |" + "".join(cells))
    rows.append(f"{'0':>8} +" + "-" * width)
    rows.append(
        f"{'':>9}{_fmt(t0)}ns{'':<{max(1, width - 18)}}{_fmt(t1)}ns"
    )
    legend = "  ".join(
        f"{_SYMBOLS[i % len(_SYMBOLS)]}={n}" for i, n in enumerate(names)
    )
    head = f"-- {title} ({unit}, peak {_fmt(peak)}) --"
    return "\n".join([head] + rows + [f"  {legend}"])


def render_timeline(tl: dict, *, width: int = _WIDTH) -> str:
    """All tracks of one run's timeline block."""
    times = tl.get("times_ns") or []
    series = tl.get("series") or {}
    if not times:
        return "(timeline has no samples)"
    parts = [
        f"timeline: {len(times)} sample(s) @ {_fmt(tl.get('cadence_ns', 0))}ns"
        f" cadence (stride {tl.get('stride', 1)}, "
        f"{tl.get('decimations', 0)} decimation(s))"
    ]
    tracks = group_tracks(series)
    if not tracks:
        parts.append("(no non-zero gauge series to plot)")
    for title, unit, members in tracks:
        parts.append("")
        parts.append(render_track(title, unit, times, members, width=width))
    return "\n".join(parts)


def run_timeline_plot(path: Path, out: Optional[Path] = None) -> int:
    """CLI body: render every timeline-bearing run in an artifact."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    runs = payload.get("runs") or []
    plotted = 0
    reports = []
    for i, run in enumerate(runs):
        tl = run.get("timeline") if isinstance(run, dict) else None
        if not tl:
            continue
        plotted += 1
        block = f"== run {i} ==\n{render_timeline(tl)}"
        print(block)
        print()
        reports.append((i, block))
    if not plotted:
        print(
            f"error: no timeline blocks in {path} — re-run the harness "
            f"with --timeline to record them",
            file=sys.stderr,
        )
        return 1
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        stem = Path(path).stem
        dest = out / f"timeline_{stem}.txt"
        dest.write_text(
            "\n\n".join(block for _, block in reports) + "\n"
        )
        print(f"[wrote {dest}]")
    print(f"[plotted {plotted} of {len(runs)} run(s)]")
    return 0
