"""Machine-readable run artifacts (``--metrics-out``).

One JSON document per harness invocation, schema-versioned so external
tooling (CI checks, regression dashboards, notebook analysis) can parse
runs without scraping text tables. The payload bundles:

* the invocation config (target, profile, anything the caller adds);
* the figure/sweep data that the text report renders;
* one :func:`repro.obs.snapshot.run_snapshot` per completed simulation
  run — machine shape, per-scheme stats and stage breakdowns,
  utilization with the bottleneck verdict, and the metrics-registry
  dump;
* a cross-run summary naming the dominant bottleneck.

:func:`validate_metrics_payload` is the reader-side contract check the
CI job runs on freshly produced artifacts.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Bump on any backwards-incompatible payload change. /2 added the
#: requirement that optional per-run blocks (utilization, faults,
#: reliability, flow, timeline) are always present — explicitly null
#: when the subsystem is off — so consumers can distinguish "disabled"
#: from "written by an older schema".
METRICS_SCHEMA = "repro.run-metrics/2"

#: Schema versions :func:`validate_metrics_payload` accepts.
_ACCEPTED_SCHEMAS = ("repro.run-metrics/1", METRICS_SCHEMA)

#: Keys every per-run snapshot must carry (see ``run_snapshot``).
_RUN_KEYS = ("machine", "total_time_ns", "transport", "schemes", "metrics")

#: Optional per-run blocks that /2 requires to be present (null ok).
_OPTIONAL_RUN_KEYS = ("utilization", "faults", "reliability", "flow", "timeline")

#: Tolerance for the stage-partition identity check (the stage
#: histograms are exact up to pro-rata float splits).
_STAGE_REL_TOL = 1e-6


def _jsonable(obj: Any) -> Any:
    """JSON fallback: numpy scalars, paths, dataclasses, sequences."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    if hasattr(obj, "tolist"):  # numpy array
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _figure_dict(figure: Any) -> dict:
    return {
        "fig_id": figure.fig_id,
        "title": figure.title,
        "xlabel": figure.xlabel,
        "ylabel": figure.ylabel,
        "x": list(figure.x),
        "series": [{"name": s.name, "y": list(s.y)} for s in figure.series],
        "expected": figure.expected,
        "notes": figure.notes,
    }


def _null_nan(value: Any) -> Any:
    """Non-finite floats serialize as JSON null.

    A metric may legitimately come out NaN (an empty mean, a rate over
    zero items), and so may a cell mean with no finite value; JSON has
    no NaN, so the artifact writes null.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _sweep_dict(sweep: Any) -> dict:
    return {
        "axes": {name: list(vals) for name, vals in sweep.axes.items()},
        "metric": sweep.metric,
        "cells": [
            {
                "params": dict(c.params),
                "values": [_null_nan(v) for v in c.values],
                "mean": _null_nan(c.mean),
                "std": _null_nan(c.std),
                # Volatile execution metadata (excluded from the
                # canonical form, see canonical_metrics_bytes).
                "wall_s": list(getattr(c, "wall_s", ()) or ()),
                "cache_hits": getattr(c, "cache_hits", 0),
            }
            for c in sweep.cells
        ],
    }


def _summary_dict(runs: Sequence[dict]) -> dict:
    verdicts = Counter()
    for run in runs:
        util = run.get("utilization")
        if util and util.get("bottleneck"):
            verdicts[util["bottleneck"]] += 1
    return {
        "n_runs": len(runs),
        "bottleneck_counts": dict(verdicts),
        # The modal verdict across runs; None when nothing reported one.
        "bottleneck": verdicts.most_common(1)[0][0] if verdicts else None,
    }


def build_metrics_payload(
    *,
    target: str,
    profile: str,
    runs: Sequence[dict],
    figure: Any = None,
    sweep: Any = None,
    extra_config: Optional[Dict[str, Any]] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> dict:
    """Assemble the schema-versioned artifact for one harness invocation.

    Parameters
    ----------
    target:
        What was run (a figure id, ``"sweep"``, an app name, ...).
    profile:
        The harness profile (``paper``/``quick``) or equivalent label.
    runs:
        Per-run snapshots, normally ``ObsSession.records``.
    figure / sweep:
        Optional :class:`~repro.harness.experiment.FigureData` /
        :class:`~repro.harness.sweep.SweepResult` to embed.
    extra_config:
        Free-form invocation parameters worth recording.
    provenance:
        Optional per-point execution provenance from the sweep pool
        (cache hit/miss, worker id, wall-clock per point). Volatile by
        nature — excluded from :func:`canonical_metrics_bytes`.
    """
    return {
        "schema": METRICS_SCHEMA,
        "target": target,
        "profile": profile,
        "config": dict(extra_config) if extra_config else {},
        "figure": _figure_dict(figure) if figure is not None else None,
        "sweep": _sweep_dict(sweep) if sweep is not None else None,
        "runs": list(runs),
        "summary": _summary_dict(runs),
        "provenance": dict(provenance) if provenance else None,
    }


#: Per-sweep-cell keys that record execution metadata rather than
#: simulated results (wall-clock, cache state).
_VOLATILE_CELL_KEYS = ("wall_s", "cache_hits")


def canonical_metrics_bytes(payload: Any) -> bytes:
    """The schedule-independent byte form of a metrics payload.

    Serial and parallel executions of the same sweep produce identical
    simulated results but necessarily different execution metadata
    (which worker ran a point, how long it took, whether the cache
    served it). This helper strips exactly that metadata — the
    ``provenance`` block and the per-cell volatile keys — and
    serializes the rest canonically (sorted keys). Two artifacts are
    equivalent iff their canonical bytes are equal; the determinism
    tests and the CI sweep-smoke job assert equality between
    ``--parallel 1`` and ``--parallel N`` and between cold and
    warm-cache runs this way.
    """
    clean = json.loads(json.dumps(payload, default=_jsonable))
    if isinstance(clean, dict):
        clean.pop("provenance", None)
        sweep = clean.get("sweep")
        if isinstance(sweep, dict):
            for cell in sweep.get("cells") or ():
                if isinstance(cell, dict):
                    for key in _VOLATILE_CELL_KEYS:
                        cell.pop(key, None)
    return json.dumps(
        clean, sort_keys=True, separators=(",", ":"), default=_jsonable
    ).encode("utf-8")


def write_metrics_json(path: Any, payload: dict) -> Path:
    """Serialize a payload to ``path`` (parents created). Returns path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, indent=2, default=_jsonable, sort_keys=False)
        + "\n"
    )
    return out


def _check_scheme(
    prefix: str, scheme: Any, errors: List[str], *, crash_lossy: bool = False
) -> None:
    if not isinstance(scheme, dict):
        errors.append(f"{prefix}: not an object")
        return
    for key in ("name", "stats", "latency"):
        if key not in scheme:
            errors.append(f"{prefix}: missing {key!r}")
    stages = scheme.get("stages")
    latency = scheme.get("latency")
    if stages is not None and isinstance(latency, dict):
        # Stage-partition identity: the non-handler stages must sum to
        # the scheme's end-to-end latency total. On a run that lost
        # items to process crashes the identity weakens to an
        # inequality: stages are folded at the grouping handler while
        # per-item latency is recorded at final delivery, so an item
        # destroyed between the two (a crash-drained section task)
        # carries stage attribution with no matching latency sample.
        total = sum(
            h.get("total_ns", 0.0)
            for name, h in stages.items()
            if name != "handler"
        )
        lat_total = latency.get("total_ns", 0.0)
        tol = _STAGE_REL_TOL * max(abs(lat_total), 1.0)
        if crash_lossy:
            if total < lat_total - tol:
                errors.append(
                    f"{prefix}: stage breakdown ({total}) falls short of "
                    f"end-to-end latency total ({lat_total}) on a "
                    f"crash-lossy run"
                )
        elif abs(total - lat_total) > tol:
            errors.append(
                f"{prefix}: stage breakdown ({total}) does not sum to "
                f"end-to-end latency total ({lat_total})"
            )


def _check_run(
    prefix: str, run: Any, errors: List[str], *, strict_optional: bool = True
) -> None:
    if not isinstance(run, dict):
        errors.append(f"{prefix}: not an object")
        return
    for key in _RUN_KEYS:
        if key not in run:
            errors.append(f"{prefix}: missing {key!r}")
    if strict_optional:
        # /2 contract: disabled subsystems are an explicit null, never
        # an absent key.
        for key in _OPTIONAL_RUN_KEYS:
            if key not in run:
                errors.append(
                    f"{prefix}: missing optional block {key!r} "
                    f"(schema /2 requires explicit null when disabled)"
                )
    util = run.get("utilization")
    if util is not None:
        if not isinstance(util, dict):
            errors.append(f"{prefix}: utilization is not an object")
        elif "bottleneck" not in util:
            errors.append(f"{prefix}: utilization missing 'bottleneck'")
    _check_flow(prefix, run, errors)
    _check_faults_flow(prefix, run, errors)
    _check_timeline(prefix, run, errors)
    faults = run.get("faults")
    crash_lossy = bool(
        isinstance(faults, dict) and faults.get("items_lost_to_crash")
    )
    for i, scheme in enumerate(run.get("schemes") or ()):
        _check_scheme(
            f"{prefix}.schemes[{i}]", scheme, errors, crash_lossy=crash_lossy
        )


def _check_flow(prefix: str, run: dict, errors: List[str]) -> None:
    """Flow-controlled runs must carry a closable conservation ledger
    and the ``flow.*`` registry metrics."""
    flow = run.get("flow")
    if flow is None:
        return
    if not isinstance(flow, dict):
        errors.append(f"{prefix}: flow is not an object")
        return
    for key in ("stats", "gates", "conservation"):
        if key not in flow:
            errors.append(f"{prefix}: flow missing {key!r}")
    cons = flow.get("conservation")
    if isinstance(cons, dict):
        if cons.get("balanced") is False:
            errors.append(
                f"{prefix}: flow conservation violated "
                f"(produced={cons.get('produced')}, "
                f"delivered={cons.get('delivered')}, "
                f"shed={cons.get('shed')}, lost={cons.get('lost')}, "
                f"abandoned={cons.get('abandoned')}, "
                f"buffered={cons.get('buffered')}, "
                f"parked={cons.get('parked')})"
            )
        if cons.get("parked"):
            errors.append(
                f"{prefix}: {cons['parked']} item(s) still parked at "
                f"credit gates after quiescence"
            )
    metrics = run.get("metrics")
    names = metrics.get("metrics", {}) if isinstance(metrics, dict) else {}
    if "flow.items_shed" not in names:
        errors.append(f"{prefix}: flow active but flow.* metrics missing")


def _check_faults_flow(prefix: str, run: dict, errors: List[str]) -> None:
    """Cross-check the conservation ledger against the faults and
    reliability blocks.

    With both faults and flow active but shedding off, every non-zero
    ledger term other than ``delivered``/``buffered``/``parked`` must be
    traceable to a producer block: ``lost`` to ``faults.items_lost``,
    ``lost_to_crash`` (crash fabric armed) to
    ``faults.items_lost_to_crash``, and ``abandoned`` to
    ``reliability.items_abandoned`` (zero when the reliability layer is
    off). Historically this lost-vs-abandoned split was only asserted in
    the flow-only path, so a faults+flow artifact could smuggle a
    mis-attributed loss past ``balanced`` as long as the *sum* closed.
    The arithmetic identity itself is also re-derived from the
    serialized terms rather than trusting the ``balanced`` flag.
    """
    flow = run.get("flow")
    faults = run.get("faults")
    if not isinstance(flow, dict) or not isinstance(faults, dict):
        return
    cons = flow.get("conservation")
    if not isinstance(cons, dict):
        return

    def term(key: str) -> int:
        val = cons.get(key, 0)
        return int(val) if isinstance(val, (int, float)) else 0

    # Shedding on: shed items are attributed by the flow layer itself
    # and the split below does not decompose further — flow-only checks
    # in _check_flow still apply.
    if term("shed"):
        return
    if cons.get("lost") != faults.get("items_lost"):
        errors.append(
            f"{prefix}: ledger lost ({cons.get('lost')}) != "
            f"faults.items_lost ({faults.get('items_lost')})"
        )
    if "lost_to_crash" in cons and "items_lost_to_crash" in faults:
        if cons.get("lost_to_crash") != faults.get("items_lost_to_crash"):
            errors.append(
                f"{prefix}: ledger lost_to_crash "
                f"({cons.get('lost_to_crash')}) != "
                f"faults.items_lost_to_crash "
                f"({faults.get('items_lost_to_crash')})"
            )
    elif ("lost_to_crash" in cons) != ("items_lost_to_crash" in faults):
        errors.append(
            f"{prefix}: crash-fabric keys out of sync between the "
            f"ledger and the faults block (ledger has lost_to_crash: "
            f"{'lost_to_crash' in cons}, faults has "
            f"items_lost_to_crash: {'items_lost_to_crash' in faults})"
        )
    reliability = run.get("reliability")
    if isinstance(reliability, dict):
        if cons.get("abandoned") != reliability.get("items_abandoned"):
            errors.append(
                f"{prefix}: ledger abandoned ({cons.get('abandoned')}) != "
                f"reliability.items_abandoned "
                f"({reliability.get('items_abandoned')})"
            )
    elif term("abandoned"):
        errors.append(
            f"{prefix}: ledger reports {term('abandoned')} abandoned "
            f"item(s) with the reliability layer off"
        )
    # Re-derive the identity from the serialized terms; ``balanced`` is
    # None (no identity) only for dup faults without reliability.
    if cons.get("balanced") is not None:
        accounted = (
            term("delivered")
            + term("shed")
            + term("lost")
            + term("lost_to_crash")
            + term("abandoned")
            + term("buffered")
            + term("parked")
        )
        if term("produced") != accounted:
            errors.append(
                f"{prefix}: ledger terms do not close: produced "
                f"({term('produced')}) != accounted ({accounted})"
            )


#: Schema tag a run's timeline block must carry (see repro.obs.timeline).
_TIMELINE_SCHEMA = "repro.obs.timeline/1"

#: Relative tolerance for the final-sample ≡ snapshot-counter check.
#: Both are computed from the same live objects within one
#: ``run_snapshot`` call, so they agree exactly for counters; the
#: tolerance only absorbs float-summation differences in derived
#: gauges.
_TIMELINE_REL_TOL = 1e-9


def _check_timeline(prefix: str, run: dict, errors: List[str]) -> None:
    """Internal-consistency checks on a run's flight-recorder block:
    schema tag, monotone sample times, parallel series columns, and
    final-sample agreement with the snapshot's metrics registry."""
    tl = run.get("timeline")
    if tl is None:
        return
    if not isinstance(tl, dict):
        errors.append(f"{prefix}: timeline is not an object")
        return
    if tl.get("schema") != _TIMELINE_SCHEMA:
        errors.append(
            f"{prefix}: timeline schema mismatch: expected "
            f"{_TIMELINE_SCHEMA!r}, got {tl.get('schema')!r}"
        )
    for key in ("cadence_ns", "times_ns", "series", "final"):
        if key not in tl:
            errors.append(f"{prefix}: timeline missing {key!r}")
    times = tl.get("times_ns")
    if not isinstance(times, list):
        return
    if any(b <= a for a, b in zip(times, times[1:])):
        errors.append(f"{prefix}: timeline sample times are not "
                      f"strictly increasing")
    n = tl.get("n_samples")
    if n is not None and n != len(times):
        errors.append(f"{prefix}: timeline n_samples ({n}) != "
                      f"len(times_ns) ({len(times)})")
    capacity = tl.get("capacity")
    if isinstance(capacity, int) and len(times) > capacity:
        errors.append(f"{prefix}: timeline holds {len(times)} samples, "
                      f"over its capacity of {capacity}")
    series = tl.get("series")
    if isinstance(series, dict):
        for name, col in series.items():
            if not isinstance(col, list) or len(col) != len(times):
                errors.append(
                    f"{prefix}: timeline series {name!r} has "
                    f"{len(col) if isinstance(col, list) else '?'} points, "
                    f"expected {len(times)}"
                )
    final = tl.get("final")
    if not isinstance(final, dict):
        return
    t_final = final.get("time_ns")
    if times and isinstance(t_final, (int, float)) and t_final < times[-1]:
        errors.append(f"{prefix}: timeline final.time_ns ({t_final}) "
                      f"precedes last sample ({times[-1]})")
    # Final-sample ≡ snapshot-counter agreement: every timeline series
    # that shadows a metrics-registry entry must report the same final
    # value the registry snapshot recorded.
    metrics = run.get("metrics")
    reg = metrics.get("metrics", {}) if isinstance(metrics, dict) else {}
    values = final.get("values")
    if not isinstance(values, dict):
        return
    for name, val in values.items():
        entry = reg.get(name)
        if not isinstance(entry, dict):
            continue
        ref = entry.get("value")
        if not isinstance(ref, (int, float)) or not isinstance(
            val, (int, float)
        ):
            continue
        tol = _TIMELINE_REL_TOL * max(abs(ref), 1.0)
        if abs(val - ref) > tol:
            errors.append(
                f"{prefix}: timeline final sample for {name!r} ({val}) "
                f"disagrees with snapshot counter ({ref})"
            )


_PROVENANCE_POINT_KEYS = ("index", "cache_hit", "worker", "wall_s", "seed")


def _check_provenance(prov: Any, errors: List[str]) -> None:
    if prov is None:
        return
    if not isinstance(prov, dict):
        errors.append("'provenance' is not an object")
        return
    points = prov.get("points")
    if not isinstance(points, list):
        errors.append("provenance missing 'points' list")
        return
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            errors.append(f"provenance.points[{i}]: not an object")
            continue
        for key in _PROVENANCE_POINT_KEYS:
            if key not in point:
                errors.append(f"provenance.points[{i}]: missing {key!r}")
    summary = prov.get("summary")
    if isinstance(summary, dict):
        if summary.get("n_points") != len(points):
            errors.append("provenance.summary.n_points != len(points)")
        hits = sum(
            1 for p in points if isinstance(p, dict) and p.get("cache_hit")
        )
        if summary.get("cache_hits") != hits:
            errors.append(
                "provenance.summary.cache_hits does not match points"
            )
        # Conservation: n_points == cache_hits + executed. A summary
        # that counts points outside both (an older artifact's poisoned
        # points) fails here.
        if summary.get("executed") != len(points) - hits:
            errors.append("provenance.summary.executed does not match points")


def validate_metrics_payload(payload: Any) -> List[str]:
    """Check a parsed artifact against the schema; returns problems.

    An empty list means the payload is well-formed. Checks cover the
    envelope, per-run required keys, the utilization/bottleneck block,
    and the stage-partition identity on every scheme that carries a
    stage breakdown.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    schema = payload.get("schema")
    if schema not in _ACCEPTED_SCHEMAS:
        errors.append(
            f"schema mismatch: expected one of {_ACCEPTED_SCHEMAS!r}, "
            f"got {schema!r}"
        )
    # /1 artifacts may legitimately omit disabled optional blocks.
    strict_optional = schema == METRICS_SCHEMA
    for key in ("target", "profile", "runs", "summary"):
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    runs = payload.get("runs")
    if runs is not None and not isinstance(runs, list):
        errors.append("'runs' is not a list")
        runs = None
    for i, run in enumerate(runs or ()):
        _check_run(f"runs[{i}]", run, errors, strict_optional=strict_optional)
    summary = payload.get("summary")
    if isinstance(summary, dict):
        if runs is not None and summary.get("n_runs") != len(runs):
            errors.append("summary.n_runs does not match len(runs)")
    elif summary is not None:
        errors.append("'summary' is not an object")
    _check_provenance(payload.get("provenance"), errors)
    return errors
