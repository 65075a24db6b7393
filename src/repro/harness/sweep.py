"""Generic parameter sweeps with seed replication.

The per-figure generators in :mod:`repro.harness.figures` are
hand-shaped to match the paper; this module provides the generic tool
for *new* studies: run a factory over a parameter grid, optionally
replicating each cell over seeds to get error bars (the simulator is
deterministic per seed, so seed variation plays the role of the paper's
multiple trials).

Execution goes through :mod:`repro.harness.pool`: grid points can be
dispatched to a work-stealing process pool (``parallel=N``) and/or
persisted in a content-addressed result cache (``cache_dir=...``), with
results merged deterministically by grid index so the aggregated
:class:`SweepResult` and metrics artifact do not depend on the
schedule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import HarnessError
from repro.harness.pool import PoolConfig, harness_session, map_points
from repro.options import RunOptions
from repro.util.stats import mean_std
from repro.util.tables import render_table


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep.

    A seed-run whose metric came out NaN (or a point fn returning None)
    appears as ``nan`` in :attr:`values`; the mean/std aggregate over
    the finite values only, so one undefined seed degrades a cell's
    error bars instead of wiping out the cell.
    """

    params: Dict[str, Any]
    #: Per-seed metric values, in seed order (``nan`` = undefined).
    values: Tuple[float, ...]
    #: Per-seed execution wall-clock (0.0 for replayed cache hits).
    wall_s: Tuple[float, ...] = ()
    #: How many of this cell's seed-runs were served from the cache.
    cache_hits: int = 0

    @property
    def finite_values(self) -> Tuple[float, ...]:
        return tuple(v for v in self.values if math.isfinite(v))

    @property
    def mean(self) -> float:
        finite = self.finite_values
        return mean_std(finite)[0] if finite else float("nan")

    @property
    def std(self) -> float:
        finite = self.finite_values
        return mean_std(finite)[1] if finite else float("nan")


@dataclass
class SweepResult:
    """All cells of a completed sweep."""

    axes: Dict[str, Sequence[Any]]
    metric: str
    cells: List[SweepCell] = field(default_factory=list)
    #: Pool execution provenance (the artifact's ``provenance`` block):
    #: per-point cache/worker/wall records plus the aggregate summary.
    #: ``None`` when nothing ran through a pool context.
    pool: Optional[Dict[str, Any]] = None

    def cell(self, **params: Any) -> SweepCell:
        """Look up one grid point by its exact parameters."""
        for c in self.cells:
            if c.params == params:
                return c
        raise KeyError(params)

    @property
    def total_cache_hits(self) -> int:
        return sum(c.cache_hits for c in self.cells)

    @property
    def total_points(self) -> int:
        return sum(len(c.values) for c in self.cells)

    def to_table(self) -> str:
        """Render the grid as a table (one row per cell)."""
        names = list(self.axes)
        headers = names + [f"{self.metric} (mean)", "std", "wall (s)", "cache"]
        rows = [
            [c.params[n] for n in names]
            + [c.mean, c.std, sum(c.wall_s), f"{c.cache_hits}/{len(c.values)}"]
            for c in self.cells
        ]
        return render_table(headers, rows)

    def pool_summary_text(self) -> Optional[str]:
        """Human-readable pool execution summary for the end-of-run
        report (hit rate, total execution wall, per-worker points), or
        ``None`` when no provenance was recorded."""
        if not self.pool:
            return None
        summary = self.pool.get("summary") or {}
        n = summary.get("n_points", 0)
        hits = summary.get("cache_hits", 0)
        executed = summary.get("executed", 0)
        wall = summary.get("exec_wall_s", 0.0)
        rate = hits / n if n else 0.0
        parts = [
            f"pool: {n} point(s), {hits} cache hit(s) ({rate:.0%}), "
            f"{executed} executed in {wall:.2f}s"
        ]
        workers = summary.get("workers") or {}
        if len(workers) > 1 or (workers and "0" not in workers):
            per = ", ".join(
                f"w{wid}: {st.get('points', 0)}pt/{st.get('wall_s', 0.0):.2f}s"
                for wid, st in sorted(
                    workers.items(), key=lambda kv: int(kv[0])
                )
            )
            parts.append(f"  workers: {per}")
        return "\n".join(parts)


def run_sweep(
    fn: Callable[..., float],
    axes: Dict[str, Sequence[Any]],
    *,
    seeds: Sequence[int] = (0,),
    metric: str = "value",
    metrics_path=None,
    tag: Optional[str] = None,
    options: Optional[RunOptions] = None,
    pool: Optional[PoolConfig] = None,
    **pool_fields: Any,
) -> SweepResult:
    """Evaluate ``fn(seed=..., **params)`` over the cartesian grid.

    Parameters
    ----------
    fn:
        Callable returning one float metric. It must accept every axis
        name as a keyword argument plus ``seed``, and its result must
        depend only on those arguments (no ambient global RNG — the
        pool scrambles global RNG state per executor to enforce this).
    axes:
        Mapping of parameter name to the values to sweep.
    seeds:
        Seeds to replicate each cell over (error bars).
    metrics_path:
        Optional path: run the grid inside an
        :class:`~repro.obs.config.ObsSession` and write the
        schema-versioned JSON artifact there (per-run snapshots with
        stage breakdowns; see :mod:`repro.harness.artifact`).
    tag:
        Stable cache identity for ``fn``; required with a cache
        directory or a journal when ``fn`` is a lambda/closure/partial.
    options:
        The :class:`~repro.options.RunOptions` every point runs under
        (faults, reliability, flow control, observability and its
        timeline); ``None`` keeps the ambient ones. They are folded
        into every cache key and the journal header, and listed in the
        artifact's ``config`` block.
    pool:
        The :class:`~repro.harness.pool.PoolConfig` executing the grid:
        worker processes (the aggregated result is identical at any
        ``parallel``), the content-addressed result cache and the
        crash-consistent journal. A point that raises fails the sweep;
        a point whose worker is killed is requeued once.
    pool_fields:
        Shorthand for ``PoolConfig`` fields (``parallel=4``,
        ``cache_dir=...``, ``journal=...``), applied on top of ``pool``.

    Examples
    --------
    >>> from repro.harness.sweep import run_sweep
    >>> res = run_sweep(lambda x, seed: float(x * x), {"x": [1, 2, 3]})
    >>> [c.mean for c in res.cells]
    [1.0, 4.0, 9.0]
    """
    if not axes:
        raise HarnessError("sweep needs at least one axis")
    if not seeds:
        raise HarnessError("sweep needs at least one seed")
    names = list(axes)
    combos = [
        dict(zip(names, combo))
        for combo in itertools.product(*(axes[n] for n in names))
    ]

    config = replace(pool or PoolConfig(), **pool_fields)
    collect = metrics_path is not None
    with harness_session(options, config, collect) as (session, ctx, in_effect):
        outcomes = map_points(fn, combos, tag=tag, seeds=seeds)

    result = SweepResult(axes=dict(axes), metric=metric)
    result.pool = ctx.provenance_payload()
    n_seeds = len(seeds)
    for ci, params in enumerate(combos):
        chunk = outcomes[ci * n_seeds : (ci + 1) * n_seeds]
        result.cells.append(
            SweepCell(
                params=params,
                values=tuple(
                    float("nan") if o.value is None else float(o.value)
                    for o in chunk
                ),
                wall_s=tuple(o.wall_s for o in chunk),
                cache_hits=sum(1 for o in chunk if o.cache_hit),
            )
        )

    if metrics_path is None:
        return result

    from repro.harness.artifact import build_metrics_payload, write_metrics_json

    extra = {
        "axes": {n: list(axes[n]) for n in names},
        "seeds": list(seeds),
        **in_effect.describe(),
    }
    payload = build_metrics_payload(
        target=f"sweep:{metric}",
        profile="custom",
        runs=session.records,
        sweep=result,
        extra_config=extra,
        provenance=result.pool,
    )
    write_metrics_json(metrics_path, payload)
    return result
