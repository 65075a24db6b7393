"""Programmatic reproduction validation.

Each paper figure's qualitative claim is encoded as a checker over the
regenerated :class:`~repro.harness.experiment.FigureData`;
:func:`validate_reproduction` runs them and reports pass/fail — the
library-level equivalent of the benchmark suite's assertions, usable
from the CLI (``tramlib-repro validate``) or from code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import HarnessError
from repro.harness.experiment import FigureData
from repro.harness.figures import FIGURES, run_figure
from repro.util.tables import render_table

Checker = Callable[[FigureData], Tuple[bool, str]]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one figure's shape check."""

    fig_id: str
    passed: bool
    details: str


def _last(data: FigureData, name: str) -> float:
    return data.series_by_name(name).y[-1]


# ----------------------------------------------------------------------
# Checkers (shape rules; quick-profile-safe thresholds)
# ----------------------------------------------------------------------
def _check_fig1(d: FigureData):
    y = d.series_by_name("one_way_us").y
    flat = abs(y[1] - y[0]) / y[0] < 0.2
    bw = y[-1] > 10 * y[0]
    return flat and bw, f"small={y[0]:.2f}us large={y[-1]:.1f}us"


def _check_fig3(d: FigureData):
    y = d.series_by_name("time_ms").y
    ok = y[1] > 1.5 * y[0] and y[-1] < 1.3 * y[0]
    return ok, f"nonSMP={y[0]:.3f} SMP1={y[1]:.3f} best={y[-1]:.3f} ms"


def _check_fig8(d: FigureData):
    y = d.series_by_name("time_ms").y
    return min(y[1:]) < 1.2 * y[0], f"nonSMP={y[0]:.3f} bestSMP={min(y[1:]):.3f}"


def _check_fig9(d: FigureData):
    ww, wps = _last(d, "WW"), _last(d, "WPs")
    ww0 = d.series_by_name("WW").y[0]
    wps0 = d.series_by_name("WPs").y[0]
    ok = wps <= ww and (ww / ww0) > (wps / wps0)
    return ok, f"WW {ww0:.3f}->{ww:.3f}, WPs {wps0:.3f}->{wps:.3f} ms"


def _check_fig10(d: FigureData):
    wps = d.series_by_name("WPs").y
    return wps[0] > wps[-1], f"WPs g-sweep {wps[0]:.3f}->{wps[-1]:.3f} ms"


def _check_fig11(d: FigureData):
    ww, wps = _last(d, "WW"), _last(d, "WPs")
    return ww > 1.3 * wps, f"WW={ww:.3f} WPs={wps:.3f} ms at largest"


def _check_fig12(d: FigureData):
    pp, wps, ww = _last(d, "PP"), _last(d, "WPs"), _last(d, "WW")
    return pp < wps < ww, f"PP={pp:.1f} WPs={wps:.1f} WW={ww:.1f} us"


def _check_fig13(d: FigureData):
    ww = _last(d, "WW")
    best = min(_last(d, s.name) for s in d.series)
    return ww >= best, f"WW={ww:.3f} best={best:.3f} ms"


def _check_fig14(d: FigureData):
    return _last(d, "PP") <= _last(d, "WW"), (
        f"PP={_last(d, 'PP'):.3f} WW={_last(d, 'WW'):.3f} ms"
    )


def _check_fig15(d: FigureData):
    return _last(d, "PP") <= 1.0, f"PP={_last(d, 'PP'):.3f} (norm WW=1)"


def _check_fig16(d: FigureData):
    return _last(d, "WPs") <= 1.05 * _last(d, "WW"), (
        f"WPs={_last(d, 'WPs'):.3f} WW={_last(d, 'WW'):.3f} ms"
    )


def _check_fig17(d: FigureData):
    values = [_last(d, s.name) for s in d.series]
    ok = all(0.7 <= v <= 1.15 for v in values)
    return ok, f"normalized spread {min(values):.2f}..{max(values):.2f}"


def _check_fig18(d: FigureData):
    rejected = dict(zip(d.x, d.series_by_name("rejected").y))
    ok = rejected["PP"] < 0.95 * rejected["WW"]
    return ok, f"PP={rejected['PP']:.0f} WW={rejected['WW']:.0f}"


def _check_tabA(d: FigureData):
    measured = d.series_by_name("measured").y
    analytic = d.series_by_name("analytic_max").y
    ok = all(m <= a for m, a in zip(measured, analytic))
    return ok, "measured <= analytic for all schemes"


def _check_tabB(d: FigureData):
    lower = d.series_by_name("lower_bound").y
    measured = d.series_by_name("measured").y
    upper = d.series_by_name("upper_bound").y
    ok = all(lo <= m <= hi for lo, m, hi in zip(lower, measured, upper))
    return ok, "bounds hold for all schemes"


def _check_extA(d: FigureData):
    msgs = dict(zip(d.x, d.series_by_name("messages").y))
    ok = msgs["WW"] > msgs["WPs"] > msgs["WNs"] and msgs["PP"] > msgs["NN"]
    return ok, f"WW={msgs['WW']:.0f} ... NN={msgs['NN']:.0f}"


def _check_extB(d: FigureData):
    bufs = dict(zip(d.x, d.series_by_name("buffers").y))
    lat = dict(zip(d.x, d.series_by_name("latency_us").y))
    ok = bufs["R2D"] < bufs["WPs"] and lat["R2D"] > lat["WPs"]
    return ok, (
        f"buffers R2D={bufs['R2D']:.0f}<WPs={bufs['WPs']:.0f}, "
        f"latency R2D={lat['R2D']:.1f}>WPs={lat['WPs']:.1f}us"
    )


def _check_extC(d: FigureData):
    # Column 0 is k=0: no crash fabric, everything must be delivered.
    # Columns with k>0 lose something to the crashes but never
    # everything — failover routing and loss accounting keep the run
    # finishing with a partial (not empty, not silently complete)
    # delivery; the generator itself raises on an unbalanced ledger.
    ok = True
    worst = 1.0
    for s in d.series:
        if s.y[0] != 1.0:
            ok = False
        for frac in s.y[1:]:
            worst = min(worst, frac)
            if not 0.0 < frac < 1.0:
                ok = False
    return ok, f"k=0 fraction 1.0 everywhere, worst crashed fraction {worst:.2f}"


CHECKERS: Dict[str, Checker] = {
    "fig1": _check_fig1,
    "fig3": _check_fig3,
    "fig8": _check_fig8,
    "fig9": _check_fig9,
    "fig10": _check_fig10,
    "fig11": _check_fig11,
    "fig12": _check_fig12,
    "fig13": _check_fig13,
    "fig14": _check_fig14,
    "fig15": _check_fig15,
    "fig16": _check_fig16,
    "fig17": _check_fig17,
    "fig18": _check_fig18,
    "tabA": _check_tabA,
    "tabB": _check_tabB,
    "extA": _check_extA,
    "extB": _check_extB,
    "extC": _check_extC,
}


def validate_figure(
    fig_id: str, profile: str = "quick", pool=None
) -> CheckResult:
    """Regenerate one figure and check its shape claim.

    ``pool`` (a :class:`~repro.harness.pool.PoolConfig`) configures the
    sweep pool for the figure's grid points: identical data, less
    wall-clock, and a long validation run that survives worker crashes
    and hangs.
    """
    checker = CHECKERS.get(fig_id)
    if checker is None:
        raise HarnessError(f"no checker for {fig_id!r}")
    passed, details = checker(run_figure(fig_id, profile, pool=pool))
    return CheckResult(fig_id=fig_id, passed=passed, details=details)


def validate_reproduction(
    profile: str = "quick",
    figures: Optional[Iterable[str]] = None,
    pool=None,
) -> List[CheckResult]:
    """Check the shape claims of the given figures (default: all)."""
    ids = list(figures) if figures is not None else list(FIGURES)
    return [validate_figure(fig_id, profile, pool=pool) for fig_id in ids]


def render_results(results: List[CheckResult]) -> str:
    """Human-readable PASS/FAIL table."""
    rows = [
        [r.fig_id, "PASS" if r.passed else "FAIL", r.details]
        for r in results
    ]
    return render_table(["experiment", "status", "details"], rows)
