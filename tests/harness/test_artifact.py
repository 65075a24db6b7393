"""Tests for the --metrics-out JSON artifact pipeline."""

import json
import math

import pytest

from repro.harness import cli
from repro.harness.artifact import (
    METRICS_SCHEMA,
    build_metrics_payload,
    canonical_metrics_bytes,
    validate_metrics_payload,
    write_metrics_json,
)
from repro.harness.figures import run_figure
from repro.harness.sweep import run_sweep


class TestPayloadBuilding:
    def test_minimal_payload_validates(self):
        payload = build_metrics_payload(
            target="t", profile="quick", runs=[],
        )
        assert payload["schema"] == METRICS_SCHEMA
        assert validate_metrics_payload(payload) == []

    def test_summary_counts_bottlenecks(self):
        runs = [
            {"machine": {}, "total_time_ns": 1, "transport": {},
             "schemes": [], "metrics": {},
             "utilization": {"bottleneck": "workers"}},
            {"machine": {}, "total_time_ns": 1, "transport": {},
             "schemes": [], "metrics": {},
             "utilization": {"bottleneck": "workers"}},
            {"machine": {}, "total_time_ns": 1, "transport": {},
             "schemes": [], "metrics": {},
             "utilization": {"bottleneck": "nic_tx"}},
        ]
        payload = build_metrics_payload(target="t", profile="p", runs=runs)
        assert payload["summary"]["n_runs"] == 3
        assert payload["summary"]["bottleneck"] == "workers"
        assert payload["summary"]["bottleneck_counts"] == {
            "workers": 2, "nic_tx": 1,
        }

    def test_write_creates_parents(self, tmp_path):
        payload = build_metrics_payload(target="t", profile="p", runs=[])
        path = write_metrics_json(tmp_path / "a" / "b" / "m.json", payload)
        assert path.exists()
        assert json.loads(path.read_text())["target"] == "t"


class TestValidation:
    def _good(self):
        # Schema /2: optional blocks are explicitly null when disabled.
        return build_metrics_payload(target="t", profile="p", runs=[
            {"machine": {}, "total_time_ns": 1.0, "transport": {},
             "schemes": [], "metrics": {}, "utilization": None,
             "faults": None, "reliability": None, "flow": None,
             "timeline": None},
        ])

    def test_good_payload_clean(self):
        assert validate_metrics_payload(self._good()) == []

    def test_not_an_object(self):
        assert validate_metrics_payload([1, 2]) == [
            "payload is not a JSON object"
        ]

    def test_schema_mismatch_detected(self):
        bad = self._good()
        bad["schema"] = "something/else"
        assert any("schema mismatch" in e
                   for e in validate_metrics_payload(bad))

    def test_missing_run_key_detected(self):
        bad = self._good()
        del bad["runs"][0]["metrics"]
        assert any("missing 'metrics'" in e
                   for e in validate_metrics_payload(bad))

    def test_utilization_without_bottleneck_detected(self):
        bad = self._good()
        bad["runs"][0]["utilization"] = {"worker_mean": 0.5}
        assert any("bottleneck" in e for e in validate_metrics_payload(bad))

    def test_broken_stage_sum_detected(self):
        bad = self._good()
        bad["runs"][0]["schemes"] = [{
            "name": "WW",
            "stats": {},
            "latency": {"total_ns": 1000.0},
            "stages": {"wire": {"total_ns": 1.0}},
        }]
        assert any("does not sum" in e for e in validate_metrics_payload(bad))

    def test_summary_count_mismatch_detected(self):
        bad = self._good()
        bad["summary"]["n_runs"] = 99
        assert any("n_runs" in e for e in validate_metrics_payload(bad))


class TestProvenanceValidation:
    def _with_provenance(self, points, summary=None):
        payload = build_metrics_payload(target="t", profile="p", runs=[])
        prov = {"parallel": 2, "cache_dir": None, "points": points}
        if summary is not None:
            prov["summary"] = summary
        payload["provenance"] = prov
        return payload

    def _point(self, index, hit=False):
        return {"index": index, "cache_hit": hit, "worker": 1,
                "wall_s": 0.1, "seed": 0}

    def test_absent_provenance_ok(self):
        payload = build_metrics_payload(target="t", profile="p", runs=[])
        assert payload["provenance"] is None
        assert validate_metrics_payload(payload) == []

    def test_well_formed_provenance_ok(self):
        payload = self._with_provenance(
            [self._point(0), self._point(1, hit=True)],
            summary={"n_points": 2, "cache_hits": 1, "executed": 1},
        )
        assert validate_metrics_payload(payload) == []

    def test_missing_point_key_detected(self):
        point = self._point(0)
        del point["worker"]
        payload = self._with_provenance([point])
        assert any("missing 'worker'" in e
                   for e in validate_metrics_payload(payload))

    def test_points_list_required(self):
        payload = build_metrics_payload(target="t", profile="p", runs=[])
        payload["provenance"] = {"parallel": 1}
        assert any("points" in e for e in validate_metrics_payload(payload))

    def test_summary_inconsistency_detected(self):
        payload = self._with_provenance(
            [self._point(0)],
            summary={"n_points": 1, "cache_hits": 5, "executed": 1},
        )
        assert any("cache_hits" in e
                   for e in validate_metrics_payload(payload))

    def test_poisoned_points_break_conservation(self):
        """Points counted outside cache_hits and executed (an older
        artifact's quarantined points) fail the identity."""
        payload = self._with_provenance(
            [self._point(0), self._point(1)],
            summary={"n_points": 2, "cache_hits": 0, "executed": 1,
                     "poisoned": 1},
        )
        assert any("executed" in e
                   for e in validate_metrics_payload(payload))


class TestCanonicalBytes:
    def _payload(self):
        from repro.harness.sweep import run_sweep

        path_free = run_sweep(
            lambda x, seed: float(x), {"x": [1, 2]},
        )
        payload = build_metrics_payload(
            target="t", profile="p", runs=[], sweep=path_free,
            provenance={"parallel": 1, "points": [], "summary": {}},
        )
        return payload

    def test_strips_provenance_and_volatile_cell_keys(self):
        a = self._payload()
        b = json.loads(json.dumps(a))
        b["provenance"] = {"parallel": 8, "points": [{"worker": 3}]}
        for cell in b["sweep"]["cells"]:
            cell["wall_s"] = [99.0]
            cell["cache_hits"] = 7
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)

    def test_detects_result_changes(self):
        a = self._payload()
        b = json.loads(json.dumps(a))
        b["sweep"]["cells"][0]["values"] = [123.0]
        assert canonical_metrics_bytes(a) != canonical_metrics_bytes(b)

    def test_key_order_irrelevant(self):
        a = self._payload()
        b = json.loads(json.dumps(a))
        b["sweep"] = dict(reversed(list(b["sweep"].items())))
        assert canonical_metrics_bytes(a) == canonical_metrics_bytes(b)


class TestRunFigureArtifact:
    """Acceptance path: fig12 (index-gather) with --metrics-out."""

    @pytest.fixture(scope="class")
    def fig12_artifact(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metrics") / "fig12.json"
        data = run_figure("fig12", "quick", metrics_path=path)
        return data, json.loads(path.read_text())

    def test_validates_clean(self, fig12_artifact):
        _, payload = fig12_artifact
        assert validate_metrics_payload(payload) == []

    def test_embeds_figure_data(self, fig12_artifact):
        data, payload = fig12_artifact
        assert payload["target"] == "fig12"
        assert payload["profile"] == "quick"
        fig = payload["figure"]
        assert fig["fig_id"] == "fig12"
        assert [s["name"] for s in fig["series"]] == [
            s.name for s in data.series
        ]

    def test_runs_carry_stage_breakdowns(self, fig12_artifact):
        _, payload = fig12_artifact
        assert payload["runs"], "no run snapshots captured"
        for run in payload["runs"]:
            assert run["utilization"]["bottleneck"]
            for scheme in run["schemes"]:
                assert scheme["stages"], "stage breakdown missing"
                total = sum(
                    h["total_ns"] for name, h in scheme["stages"].items()
                    if name != "handler"
                )
                assert total == pytest.approx(
                    scheme["latency"]["total_ns"], rel=1e-6
                )

    def test_without_metrics_path_no_session(self):
        # plain call still works and instrumentation stays off
        data = run_figure("fig1", "quick")
        assert data.fig_id == "fig1"


class TestRunSweepArtifact:
    def test_sweep_writes_artifact(self, tmp_path):
        from repro.apps import run_histogram
        from repro.machine import MachineConfig

        def metric(z, seed):
            r = run_histogram(
                MachineConfig(1, 2, 2), "WPs", updates_per_pe=z,
                buffer_items=16, batch=200, seed=seed,
            )
            return r.total_time_ns

        path = tmp_path / "sweep.json"
        result = run_sweep(
            metric, {"z": [100, 200]}, metrics_path=path, metric="time_ns",
        )
        assert len(result.cells) == 2
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        assert payload["sweep"]["axes"] == {"z": [100, 200]}
        assert len(payload["runs"]) == 2  # one runtime per cell

    def test_nan_cell_serializes_null_and_validates(self, tmp_path):
        path = tmp_path / "nan.json"
        result = run_sweep(
            lambda x, seed: float("nan"), {"x": [0]}, metrics_path=path,
        )
        assert math.isnan(result.cells[0].values[0])
        assert math.isnan(result.cells[0].mean)
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        cell = payload["sweep"]["cells"][0]
        assert cell["values"] == [None]
        assert cell["mean"] is None


class TestCli:
    def test_metrics_out_flag(self, tmp_path, capsys):
        path = tmp_path / "fig1.json"
        rc = cli.main(["fig1", "--profile", "quick",
                       "--metrics-out", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert validate_metrics_payload(payload) == []
        assert "metrics artifact written" in capsys.readouterr().out

    def test_validate_metrics_ok(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_metrics_json(
            path, build_metrics_payload(target="t", profile="p", runs=[]),
        )
        rc = cli.main(["validate-metrics", str(path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_metrics_invalid_payload(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": "nope"}))
        rc = cli.main(["validate-metrics", str(path)])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out

    def test_validate_metrics_missing_file(self, tmp_path):
        rc = cli.main(["validate-metrics", str(tmp_path / "absent.json")])
        assert rc == 2

    def test_validate_metrics_needs_path(self):
        rc = cli.main(["validate-metrics"])
        assert rc == 2
