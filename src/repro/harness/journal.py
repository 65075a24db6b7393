"""Crash-consistent sweep journal: append-only JSONL of completed points.

The result cache makes *identical* points resumable, but a sweep
running without a cache has no durable state at all. The journal
closes that gap. The pool appends one fsync'd JSON line per completed
point, so the on-disk file is always a consistent prefix of the sweep
no matter when the parent dies (``kill -9`` included: a torn final
line is detected and dropped on replay) or why the sweep stopped (a
failed point, a drain, a point whose worker died twice).

Layout::

    {"kind": "header", "schema": "repro.sweep-journal/2",
     "fingerprint": <sha256 over tag + grid + seeds + cost model
                     + run options>,
     "n_points": 8}
    {"kind": "point", "index": 3, "value": .., "records": [..], ...}
    ...
    {"kind": "complete", "n_recorded": 8}

The fingerprint (:func:`repro.harness.cache.fingerprint`, the same one
that addresses the result cache) pins the journal to one exact sweep:
``--resume`` replays only a journal whose header matches the grid being
executed (same schema, same tag, same points in the same order, same
cost-model constants, same run options), so a stale journal from a
different sweep in the same directory is ignored and overwritten rather
than corrupting results. Replayed entries carry the point's value *and*
its observability records, which is what keeps a resumed sweep's
artifact canonical-byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping

from repro.harness.artifact import jsonable

#: Bump on any change to the record layout or fingerprint ingredients.
#: /2 dropped the per-point ``status``/``retries``/``error`` fields: a
#: /1 journal may hold failed entries with a null value, so it is
#: rotated rather than replayed.
JOURNAL_SCHEMA = "repro.sweep-journal/2"


class SweepJournal:
    """Append-only JSONL writer for one sweep's completed points.

    Use :meth:`open` (which handles header/rotation logic) rather than
    the constructor. Every append is flushed and fsync'd before
    returning, so a record either made it to stable storage whole or is
    a torn tail the replay path discards — the journal is crash
    consistent by construction.
    """

    def __init__(self, path: Path, fingerprint: str, fh) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._fh = fh
        self.recorded = 0

    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, path: Any, fingerprint: str, n_points: int, *, resume: bool
    ) -> "SweepJournal":
        """Open (or rotate) the journal at ``path``.

        With ``resume`` set and an existing journal whose header matches
        ``fingerprint``, new records append after the existing ones;
        in every other case the file is truncated and a fresh header is
        written. The caller replays existing entries *before* opening
        (see :meth:`replay`).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        keep = False
        if resume and path.is_file():
            keep = cls._header_matches(path, fingerprint)
        if keep:
            fh = path.open("a", encoding="utf-8")
            journal = cls(path, fingerprint, fh)
            return journal
        fh = path.open("w", encoding="utf-8")
        journal = cls(path, fingerprint, fh)
        journal._append(
            {
                "kind": "header",
                "schema": JOURNAL_SCHEMA,
                "fingerprint": fingerprint,
                "n_points": n_points,
            }
        )
        return journal

    @staticmethod
    def _header_matches(path: Path, fingerprint: str) -> bool:
        try:
            with path.open("r", encoding="utf-8") as fh:
                first = fh.readline()
            header = json.loads(first)
        except (OSError, ValueError):
            return False
        return (
            isinstance(header, dict)
            and header.get("kind") == "header"
            and header.get("schema") == JOURNAL_SCHEMA
            and header.get("fingerprint") == fingerprint
        )

    # ------------------------------------------------------------------
    def _append(self, doc: Mapping[str, Any]) -> None:
        line = json.dumps(doc, separators=(",", ":"), default=jsonable)
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def record_point(self, outcome: Any) -> None:
        """Durably append one completed point."""
        self._append(
            {
                "kind": "point",
                "index": outcome.spec.index,
                "seed": outcome.spec.seed,
                "params": dict(outcome.spec.params),
                "key": outcome.spec.key,
                "value": outcome.value,
                "records": outcome.records,
                "worker": outcome.worker,
                "wall_s": outcome.wall_s,
            }
        )
        self.recorded += 1

    def complete(self) -> None:
        """Mark the sweep finished (informational trailer)."""
        self._append({"kind": "complete", "n_recorded": self.recorded})

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best effort
            pass

    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: Any, fingerprint: str) -> Dict[int, dict]:
        """Entries of a matching journal, keyed by grid index.

        Returns ``{}`` when the file is missing, unreadable, or was
        written for a different sweep. A torn (crash-truncated) final
        line ends the replay silently — everything before it is intact
        by the fsync-per-record discipline. Duplicate indices keep the
        last record (a point re-resolved after an earlier resume).
        """
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return {}
        entries: Dict[int, dict] = {}
        header_seen = False
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                break  # torn tail — everything after is unreliable
            if not isinstance(doc, dict):
                break
            if not header_seen:
                if (
                    doc.get("kind") != "header"
                    or doc.get("schema") != JOURNAL_SCHEMA
                    or doc.get("fingerprint") != fingerprint
                ):
                    return {}
                header_seen = True
                continue
            if doc.get("kind") != "point":
                continue
            index = doc.get("index")
            if isinstance(index, int) and index >= 0:
                entries[index] = doc
        return entries
