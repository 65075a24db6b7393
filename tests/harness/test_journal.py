"""Tests for the crash-consistent sweep journal."""

import functools
import json

from repro.flow import FlowConfig, FlowSession
from repro.harness.cache import fingerprint
from repro.harness.journal import JOURNAL_SCHEMA, SweepJournal
from repro.harness.pool import PointOutcome, PointSpec, run_app_point
from repro.harness.sweep import run_sweep
from repro.options import RunOptions


def journal_fingerprint(tag, specs, options=None):
    return fingerprint(
        options,
        schema=JOURNAL_SCHEMA,
        tag=tag,
        points=[[dict(s.params), s.seed] for s in specs],
    )


def _specs(n=3, tag_seed=0):
    return [
        PointSpec(index=i, params={"x": i + tag_seed}, seed=0, key=None)
        for i in range(n)
    ]


def _outcome(spec, value=1.0):
    return PointOutcome(spec=spec, value=value, worker=1, wall_s=0.25)


class TestFingerprint:
    def test_stable(self):
        assert journal_fingerprint("t", _specs()) == journal_fingerprint(
            "t", _specs()
        )

    def test_sensitive_to_tag_and_grid(self):
        base = journal_fingerprint("t", _specs())
        assert journal_fingerprint("u", _specs()) != base
        assert journal_fingerprint("t", _specs(tag_seed=1)) != base
        assert journal_fingerprint("t", _specs(n=2)) != base

    def test_sensitive_to_run_options(self):
        base = journal_fingerprint("t", _specs())
        flowed = RunOptions(flow="ct_msgs=2")
        assert journal_fingerprint("t", _specs(), flowed) != base
        lossy = RunOptions(faults="drop=0.05", reliability=None)
        reliable = RunOptions(faults="drop=0.05")
        assert journal_fingerprint("t", _specs(), lossy) != (
            journal_fingerprint("t", _specs(), reliable)
        )


class TestWriteAndReplay:
    def test_header_then_points_as_jsonl(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.record_point(_outcome(specs[2], value=9.0))
        j.complete()
        j.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["schema"] == JOURNAL_SCHEMA
        assert lines[0]["fingerprint"] == fp
        assert [l["kind"] for l in lines[1:]] == ["point", "point", "complete"]

    def test_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[1], value=4.0))
        j.record_point(_outcome(specs[2], value=9.0))
        j.close()
        entries = SweepJournal.replay(path, fp)
        assert set(entries) == {1, 2}
        assert entries[1]["value"] == 4.0
        assert entries[2]["value"] == 9.0

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert SweepJournal.replay(tmp_path / "nope.jsonl", "fp") == {}

    def test_replay_rejects_foreign_fingerprint(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.close()
        assert SweepJournal.replay(path, "different") == {}

    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.close()
        # Simulate a crash mid-append: a half-written final record.
        with path.open("a") as fh:
            fh.write('{"kind": "point", "index": 1, "val')
        entries = SweepJournal.replay(path, fp)
        assert set(entries) == {0}

    def test_duplicate_index_keeps_last(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0], value=1.0))
        j.record_point(_outcome(specs[0], value=2.0))
        j.close()
        assert SweepJournal.replay(path, fp)[0]["value"] == 2.0


class TestRotation:
    def test_resume_appends_to_matching_journal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.close()
        j = SweepJournal.open(path, fp, len(specs), resume=True)
        j.record_point(_outcome(specs[1]))
        j.close()
        assert set(SweepJournal.replay(path, fp)) == {0, 1}
        # Exactly one header: the resume appended, not rotated.
        kinds = [
            json.loads(l)["kind"] for l in path.read_text().splitlines()
        ]
        assert kinds.count("header") == 1

    def test_without_resume_rotates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.close()
        j = SweepJournal.open(path, fp, len(specs), resume=False)
        j.close()
        assert SweepJournal.replay(path, fp) == {}

    def test_resume_over_foreign_journal_rotates(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        old = journal_fingerprint("other", specs)
        j = SweepJournal.open(path, old, len(specs), resume=False)
        j.record_point(_outcome(specs[0]))
        j.close()
        fp = journal_fingerprint("t", specs)
        j = SweepJournal.open(path, fp, len(specs), resume=True)
        j.close()
        # The stale journal was rotated out, never replayed into "t".
        assert SweepJournal.replay(path, fp) == {}
        assert SweepJournal.replay(path, old) == {}

    def test_v1_journal_rotated_not_replayed(self, tmp_path):
        """A /1 journal can hold failed entries with a null value; its
        header never matches, so resume rotates it."""
        path = tmp_path / "journal.jsonl"
        specs = _specs()
        fp = journal_fingerprint("t", specs)
        v1 = [
            {"kind": "header", "schema": "repro.sweep-journal/1",
             "fingerprint": fp, "n_points": len(specs)},
            {"kind": "point", "index": 0, "status": "poisoned",
             "value": None, "records": [], "error": "tb"},
        ]
        path.write_text("".join(json.dumps(d) + "\n" for d in v1))
        assert SweepJournal.replay(path, fp) == {}
        j = SweepJournal.open(path, fp, len(specs), resume=True)
        j.close()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == JOURNAL_SCHEMA == "repro.sweep-journal/2"
        assert path.read_text().count("\n") == 1  # the /1 entries are gone


_HISTO = functools.partial(
    run_app_point, "histogram", "total_time_ns",
    updates_per_pe=200, buffer_items=16, batch=100,
)
_AXES = {"nodes": [2], "scheme": ["WW", "WPs"]}


class TestRunOptionsGuard:
    def test_resume_never_replays_across_run_options(self, tmp_path):
        """A journal written under flow control must not answer a
        resumed sweep without it: the header folds in the run options."""
        journal = tmp_path / "sweep.jsonl"
        flow = FlowConfig.parse("ct_msgs=2,ct_bytes=4096,overload=20000,clear=5000")
        with FlowSession(flow):
            flowed = run_sweep(_HISTO, _AXES, tag="probe", journal=journal)
        resumed = run_sweep(
            _HISTO, _AXES, tag="probe", journal=journal, resume=True
        )
        plain = run_sweep(_HISTO, _AXES, tag="probe")
        assert resumed.pool["summary"]["executed"] == 2
        assert [c.values for c in resumed.cells] == [
            c.values for c in plain.cells
        ]
        assert [c.values for c in flowed.cells] != [
            c.values for c in plain.cells
        ]
