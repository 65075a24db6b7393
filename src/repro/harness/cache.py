"""Content-addressed result cache for sweep points.

Every sweep point — one ``fn(seed=..., **params)`` invocation — is
keyed by a stable hash (:func:`fingerprint`, which also heads the sweep
journal) over everything that determines its result:

* the point *tag* (a stable name for the metric function),
* the resolved parameters and the seed,
* the cost-model constants (so recalibrating the simulator invalidates
  every cached point automatically),
* every ambient run option that is on — fault plan, non-default
  reliability, flow control, timeline (see
  :meth:`repro.options.RunOptions.describe`).

Completed points are persisted as individual JSON artifacts under a
cache directory (``<root>/<key[:2]>/<key>.json``, written atomically),
so re-runs of identical points are free and an interrupted sweep is
resumable: the next invocation finds the finished points on disk and
executes only the missing ones.

The simulator is deterministic per seed, which is what makes caching by
inputs sound: a hit replays the exact value (and observability records)
the execution would have produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

from repro.harness.artifact import jsonable
from repro.options import RunOptions

#: Bump on any change that invalidates previously cached points
#: (entry layout, key ingredients, record semantics).
CACHE_SCHEMA = "repro.sweep-cache/1"


def cost_model_fingerprint(costs: Any = None) -> Dict[str, Any]:
    """The cost-model constants that feed every simulated result.

    ``None`` fingerprints the default :class:`~repro.machine.costs.CostModel`,
    so editing any calibration constant in the source invalidates the
    cache without manual intervention.
    """
    from repro.machine.costs import CostModel

    model = costs if costs is not None else CostModel()
    return dataclasses.asdict(model)


def fingerprint(options: Optional[RunOptions], **ingredients: Any) -> str:
    """Stable content hash of one unit of harness work.

    ``ingredients`` name the work (schema, tag, points, cost model);
    ``options`` adds every run option that is on, so a degraded,
    lossy, flow-controlled or timeline-bearing run never shares a cache
    entry or a journal with a different one. With every option off the
    payload keeps its historical explicit-null ``faults``/``flow``
    shape, so existing cache entries stay valid.
    """
    payload = {"faults": None, "flow": None, **ingredients}
    if options is not None:
        payload.update(options.describe())
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=jsonable
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def point_key(
    *,
    tag: str,
    params: Mapping[str, Any],
    seed: int,
    costs: Any = None,
    options: Optional[RunOptions] = None,
) -> str:
    """Stable content hash identifying one sweep point."""
    return fingerprint(
        options,
        schema=CACHE_SCHEMA,
        tag=tag,
        params=dict(params),
        seed=int(seed),
        costs=cost_model_fingerprint(costs),
    )


class ResultCache:
    """Directory of per-point result artifacts, addressed by content key.

    Entries are plain JSON documents::

        {"schema": "repro.sweep-cache/1", "key": ..., "tag": ...,
         "params": {...}, "seed": 0, "value": <metric payload>,
         "records": [<run snapshot>, ...], "meta": {"wall_s": ..., ...}}

    Reads tolerate missing/corrupt/foreign files (they count as misses);
    a corrupt or mismatched entry is additionally quarantined once —
    renamed to ``<key>.bad`` — so every later run misses it by file
    absence instead of re-parsing the same broken JSON, and the evidence
    survives for inspection. Writes are atomic (tempfile +
    ``os.replace``) so a killed sweep never leaves a half-written entry
    behind.
    """

    def __init__(self, root: Any) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (once) so it never re-parses."""
        try:
            os.replace(path, path.with_suffix(".bad"))
        except OSError:  # pragma: no cover - raced or read-only cache
            pass

    def get(self, key: str) -> Optional[dict]:
        """The cached entry for ``key``, or ``None`` on any miss."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss: nothing to quarantine
        try:
            entry = json.loads(text)
        except ValueError:
            self._quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA
            or entry.get("key") != key
        ):
            self._quarantine(path)
            return None
        return entry

    def put(self, key: str, entry: Mapping[str, Any]) -> Path:
        """Persist one completed point atomically. Returns its path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(entry)
        doc["schema"] = CACHE_SCHEMA
        doc["key"] = key
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(doc, default=jsonable) + "\n")
        os.replace(tmp, path)
        return path

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*/*.json")):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed
