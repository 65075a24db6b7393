"""Tests for ObsConfig gating and the run-capturing ObsSession."""

import numpy as np

from repro.machine import MachineConfig
from repro.obs import ObsConfig, ObsSession, run_snapshot
from repro.options import ambient
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(2, 2, 2)


def _traffic(rt, tram):
    W = rt.machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"sess/{ctx.worker.wid}")
        counts = np.bincount(rng.integers(0, W, 100), minlength=W)
        tram.insert_bulk(ctx, counts)
        tram.flush_when_done(ctx)

    for w in range(W):
        rt.post(w, driver)


def _build(machine=MACHINE, **rt_kwargs):
    rt = RuntimeSystem(machine, seed=0, **rt_kwargs)
    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=16),
        deliver_bulk=lambda ctx, w, n, si, sc: None,
    )
    return rt, tram


class TestGating:
    def test_disabled_by_default(self):
        rt, tram = _build()
        assert not rt.obs_enabled
        assert tram.stages is None

    def test_explicit_config_enables(self):
        rt, tram = _build(obs=ObsConfig())
        assert rt.obs_enabled
        assert tram.stages is not None

    def test_enabled_false_stays_off(self):
        with ObsSession(ObsConfig(enabled=False)) as session:
            rt, tram = _build()
            assert not rt.obs_enabled
            assert tram.stages is None
            _traffic(rt, tram)
            rt.run()
        assert session.records == []  # disabled sessions capture nothing

    def test_session_config_inherited(self):
        with ObsSession():
            rt, tram = _build()
            assert rt.obs_enabled
            assert tram.stages is not None
        rt2, tram2 = _build()  # outside: off again
        assert not rt2.obs_enabled

    def test_disabled_run_attaches_no_spans_and_no_histograms(self):
        rt, tram = _build()
        _traffic(rt, tram)
        rt.run()
        assert tram.stages is None
        assert tram.stats.items_delivered > 0
        # percentiles still work through the reservoir default
        assert tram.stats.latency.mean > 0


class TestSessionCapture:
    def test_one_record_per_runtime(self):
        with ObsSession() as session:
            for _ in range(2):
                rt, tram = _build()
                _traffic(rt, tram)
                rt.run()
        assert len(session.records) == 2
        for snap in session.records:
            assert snap["total_time_ns"] > 0
            assert snap["schemes"][0]["name"] == "WPs"
            assert snap["utilization"]["bottleneck"]

    def test_rerun_same_runtime_replaces_snapshot(self):
        with ObsSession() as session:
            rt, tram = _build()
            _traffic(rt, tram)
            stats1 = rt.run()
            _traffic(rt, tram)
            stats2 = rt.run()
        assert len(session.records) == 1
        snap = session.records[0]
        assert snap["events_fired"] == stats1.events_fired + stats2.events_fired

    def test_nesting_inner_wins_outer_restored(self):
        with ObsSession() as outer:
            with ObsSession() as inner:
                assert ambient().session is inner
                rt, tram = _build()
                _traffic(rt, tram)
                rt.run()
            assert ambient().session is outer
        assert ambient().session is None
        assert len(inner.records) == 1
        assert outer.records == []


class TestSnapshotShape:
    def test_snapshot_keys(self):
        rt, tram = _build(obs=ObsConfig())
        _traffic(rt, tram)
        rt.run()
        snap = run_snapshot(rt)
        assert set(snap) >= {
            "machine", "total_time_ns", "transport", "schemes",
            "utilization", "metrics",
        }
        assert snap["machine"]["total_workers"] == MACHINE.total_workers
        scheme = snap["schemes"][0]
        assert scheme["stages"] is not None
        assert scheme["stats"]["items_delivered"] > 0

    def test_snapshot_without_obs_has_null_stages(self):
        rt, tram = _build()
        _traffic(rt, tram)
        rt.run()
        snap = run_snapshot(rt)
        assert snap["schemes"][0]["stages"] is None

    def test_optional_blocks_explicitly_null(self):
        """Schema /2 contract: disabled subsystems appear as explicit
        nulls, never as missing keys."""
        rt, tram = _build()
        _traffic(rt, tram)
        rt.run()
        snap = run_snapshot(rt)
        for key in ("faults", "reliability", "flow", "timeline"):
            assert key in snap, key
            assert snap[key] is None, key


class TestAbsorb:
    def _run_records(self, n=1):
        with ObsSession() as session:
            for _ in range(n):
                rt, tram = _build()
                _traffic(rt, tram)
                rt.run()
        return session.records

    def test_absorb_empty_is_a_noop(self):
        with ObsSession() as session:
            session.absorb([])
        assert session.records == []

    def test_absorb_preserves_order(self):
        recs = [{"tag": i} for i in range(3)]
        with ObsSession() as session:
            session.absorb(recs)
        assert session.records == recs

    def test_absorbing_twice_appends(self):
        with ObsSession() as session:
            session.absorb([{"tag": "a"}])
            session.absorb([{"tag": "b"}, {"tag": "c"}])
        assert [r["tag"] for r in session.records] == ["a", "b", "c"]
        # Records are stored as-is, not copied or re-keyed.
        assert session.records[0] == {"tag": "a"}

    def test_absorb_into_session_with_local_snapshots(self):
        """Pool-merge scenario: locally captured runs and absorbed
        worker records interleave in arrival order."""
        with ObsSession() as session:
            rt, tram = _build()
            _traffic(rt, tram)
            rt.run()
            shipped = self._run_records(n=1)
            session.absorb(shipped)
            rt2, tram2 = _build()
            _traffic(rt2, tram2)
            rt2.run()
        assert len(session.records) == 3
        assert session.records[1] is shipped[0]
        for snap in session.records:
            assert snap["total_time_ns"] > 0

    def test_absorbed_records_survive_runtime_rerun(self):
        """A later run() on a local runtime must replace only its own
        snapshot, never an absorbed one."""
        with ObsSession() as session:
            rt, tram = _build()
            _traffic(rt, tram)
            rt.run()
            session.absorb([{"tag": "shipped"}])
            _traffic(rt, tram)
            rt.run()  # refreshes the first slot in place
        assert len(session.records) == 2
        assert session.records[1] == {"tag": "shipped"}
