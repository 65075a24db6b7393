"""Timeline blocks in the metrics artifact: schema /2, validation,
schedule-independence, and the terminal renderer."""

import json

import pytest

from repro.harness.artifact import (
    METRICS_SCHEMA,
    canonical_metrics_bytes,
    validate_metrics_payload,
)
from repro.harness.sweep import run_sweep
from repro.harness.timeline_plot import (
    group_tracks,
    render_timeline,
    run_timeline_plot,
)
from repro.machine import MachineConfig
from repro.obs import ObsConfig, TimelineConfig
from repro.options import RunOptions


def _point(nodes, seed):
    import numpy as np

    from repro.runtime.system import RuntimeSystem
    from repro.tram import TramConfig, make_scheme

    rt = RuntimeSystem(MachineConfig(nodes, 2, 2), seed=seed)
    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=16),
        deliver_bulk=lambda ctx, w, n, si, sc: None,
    )
    W = rt.machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"tla/{ctx.worker.wid}")
        counts = np.bincount(rng.integers(0, W, 200), minlength=W)
        tram.insert_bulk(ctx, counts)
        tram.flush_when_done(ctx)

    for w in range(W):
        rt.post(w, driver)
    rt.run()
    return float(rt.engine.now)


AXES = {"nodes": [1, 2]}
TL = TimelineConfig(cadence_ns=1_000.0)
TL_OPTIONS = RunOptions(obs=ObsConfig(timeline=TL))


@pytest.fixture(scope="module")
def timeline_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("tla") / "metrics.json"
    run_sweep(_point, AXES, seeds=(0, 1), metrics_path=path,
              options=TL_OPTIONS, tag="tla")
    return path, json.loads(path.read_text())


class TestArtifactShape:
    def test_schema_v2_with_timeline_blocks(self, timeline_artifact):
        _, payload = timeline_artifact
        assert payload["schema"] == METRICS_SCHEMA == "repro.run-metrics/2"
        assert payload["config"]["timeline"]["cadence_ns"] == 1_000.0
        for run in payload["runs"]:
            tl = run["timeline"]
            assert tl["schema"] == "repro.obs.timeline/1"
            assert tl["n_samples"] >= 1

    def test_validates_clean(self, timeline_artifact):
        _, payload = timeline_artifact
        assert validate_metrics_payload(payload) == []

    def test_without_timeline_block_is_explicit_null(self, tmp_path):
        path = tmp_path / "plain.json"
        run_sweep(_point, AXES, seeds=(0,), metrics_path=path, tag="tla")
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        for run in payload["runs"]:
            assert run["timeline"] is None


class TestValidatorVersions:
    def test_v1_lenient_about_optional_blocks(self, timeline_artifact):
        _, payload = timeline_artifact
        old = json.loads(json.dumps(payload))
        old["schema"] = "repro.run-metrics/1"
        for run in old["runs"]:
            for key in ("faults", "reliability", "flow", "timeline"):
                run.pop(key, None)
        assert validate_metrics_payload(old) == []

    def test_v2_strict_about_optional_blocks(self, timeline_artifact):
        _, payload = timeline_artifact
        bad = json.loads(json.dumps(payload))
        del bad["runs"][0]["timeline"]
        errs = validate_metrics_payload(bad)
        assert any("timeline" in e and "explicit null" in e for e in errs)

    def test_unknown_schema_rejected(self, timeline_artifact):
        _, payload = timeline_artifact
        bad = json.loads(json.dumps(payload))
        bad["schema"] = "repro.run-metrics/3"
        assert any("schema mismatch" in e
                   for e in validate_metrics_payload(bad))


class TestTimelineBlockValidation:
    def _mutate(self, payload, fn):
        bad = json.loads(json.dumps(payload))
        fn(bad["runs"][0]["timeline"])
        return validate_metrics_payload(bad)

    def test_nonmonotone_times_detected(self, timeline_artifact):
        _, payload = timeline_artifact

        def swap(tl):
            tl["times_ns"][0], tl["times_ns"][-1] = (
                tl["times_ns"][-1], tl["times_ns"][0],
            )

        errs = self._mutate(payload, swap)
        assert any("strictly increasing" in e for e in errs)

    def test_ragged_series_detected(self, timeline_artifact):
        _, payload = timeline_artifact

        def truncate(tl):
            name = next(iter(tl["series"]))
            tl["series"][name] = tl["series"][name][:-1]

        errs = self._mutate(payload, truncate)
        assert any("points, expected" in e for e in errs)

    def test_final_disagreement_detected(self, timeline_artifact):
        _, payload = timeline_artifact

        def corrupt(tl):
            tl["final"]["values"]["commthreads.out_messages"] += 7.0

        errs = self._mutate(payload, corrupt)
        assert any("disagrees with snapshot counter" in e for e in errs)

    def test_overcapacity_detected(self, timeline_artifact):
        _, payload = timeline_artifact
        errs = self._mutate(
            payload, lambda tl: tl.update(capacity=1)
        )
        assert any("over its capacity" in e for e in errs)


class TestScheduleIndependence:
    def test_serial_and_parallel_bytes_identical(self, tmp_path):
        payloads = []
        for parallel in (1, 2):
            path = tmp_path / f"p{parallel}.json"
            run_sweep(_point, AXES, seeds=(0, 1), metrics_path=path,
                      options=TL_OPTIONS, parallel=parallel, tag="tla")
            payloads.append(json.loads(path.read_text()))
        assert (
            canonical_metrics_bytes(payloads[0])
            == canonical_metrics_bytes(payloads[1])
        )
        # And the timeline blocks specifically are deep-equal.
        for a, b in zip(payloads[0]["runs"], payloads[1]["runs"]):
            assert a["timeline"] == b["timeline"]


class TestRenderer:
    def test_tracks_grouped_and_rendered(self, timeline_artifact):
        _, payload = timeline_artifact
        tl = payload["runs"][0]["timeline"]
        tracks = group_tracks(tl["series"])
        assert tracks, "no plottable tracks found"
        text = render_timeline(tl)
        assert "sample(s)" in text
        assert "peak" in text
        # Cumulative counters are excluded from the stacked charts.
        assert "commthreads.out_messages" not in text

    def test_cli_roundtrip(self, timeline_artifact, tmp_path, capsys):
        path, _ = timeline_artifact
        assert run_timeline_plot(path, out=tmp_path) == 0
        outfile = tmp_path / f"timeline_{path.stem}.txt"
        assert outfile.exists()
        assert "== run 0 ==" in outfile.read_text()
        assert "plotted 4 of 4" in capsys.readouterr().out

    def test_plotless_artifact_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        run_sweep(_point, AXES, seeds=(0,), metrics_path=path, tag="tla")
        assert run_timeline_plot(path) == 1
        assert "--timeline" in capsys.readouterr().err
