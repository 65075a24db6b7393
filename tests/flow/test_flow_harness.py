"""Harness surface: snapshots, registry metrics, artifacts and the CLI."""

import json

import pytest

from repro.flow import FlowConfig
from repro.machine import MachineConfig
from repro.obs import ObsConfig
from repro.obs.registry import registry_from_runtime
from repro.obs.snapshot import run_snapshot
from repro.options import RunOptions, active_options
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

SMP = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)

TINY = FlowConfig(
    ct_max_msgs=2, ct_max_bytes=2048, nic_max_msgs=2, nic_max_bytes=2048,
    overload_backlog_ns=5_000.0, clear_backlog_ns=1_000.0,
)


def run_flowed(flow=TINY):
    rt = RuntimeSystem(SMP, seed=0, obs=ObsConfig(), flow=flow)
    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=4, idle_flush=True),
        deliver_item=lambda ctx, it: None,
    )
    W = SMP.total_workers

    def driver(ctx, remaining):
        rng = rt.rng.stream(f"h/{ctx.worker.wid}/{remaining}")
        for _ in range(50):
            tram.insert(ctx, dst=int(rng.integers(0, W)))
        if remaining:
            ctx.emit(ctx.worker.post_task, driver, remaining - 1)

    for w in range(W):
        rt.post(w, driver, 5)
    rt.run(max_events=50_000_000)
    return rt, tram


class TestRegistry:
    def test_flow_metrics_present(self):
        rt, _ = run_flowed()
        names = registry_from_runtime(rt).to_json()["metrics"]
        for key in (
            "flow.messages_admitted", "flow.messages_parked",
            "flow.messages_shed", "flow.items_shed", "flow.bytes_shed",
            "flow.park_wait_ns", "flow.source_stall_ns",
            "flow.parked_messages", "flow.overloaded",
            "flow.overload_escalations", "flow.overload_clears",
        ):
            assert key in names, key
        assert names["flow.messages_parked"]["value"] > 0

    def test_worker_and_ct_gauges_present(self):
        rt, _ = run_flowed()
        names = registry_from_runtime(rt).to_json()["metrics"]
        assert names["workers.queued_bytes_hwm"]["value"] > 0
        assert names["commthreads.max_backlog_ns"]["value"] > 0.0

    def test_no_flow_metrics_when_off(self):
        rt, _ = run_flowed(flow=None)
        names = registry_from_runtime(rt).to_json()["metrics"]
        assert not any(k.startswith("flow.") for k in names)


class TestSnapshot:
    def test_flow_block_round_trips(self):
        rt, _ = run_flowed()
        snap = run_snapshot(rt)
        flow = snap["flow"]
        assert flow is not None
        assert flow["conservation"]["balanced"] is True
        assert flow["stats"]["messages_parked"] > 0
        assert snap["utilization"]["worker_queued_bytes_hwm"] > 0
        assert "bottleneck_detail" in snap["utilization"]
        json.dumps(snap)  # must be JSON-clean

    def test_flow_block_none_when_off(self):
        rt, _ = run_flowed(flow=None)
        assert run_snapshot(rt)["flow"] is None


class TestArtifactValidation:
    def _payload(self, rt):
        from repro.harness.artifact import build_metrics_payload

        return build_metrics_payload(
            target="test", profile="quick", runs=[run_snapshot(rt)]
        )

    def test_valid_flow_artifact_passes(self):
        from repro.harness.artifact import validate_metrics_payload

        rt, _ = run_flowed()
        assert validate_metrics_payload(self._payload(rt)) == []

    def test_conservation_violation_flagged(self):
        from repro.harness.artifact import validate_metrics_payload

        rt, _ = run_flowed()
        payload = self._payload(rt)
        payload["runs"][0]["flow"]["conservation"]["balanced"] = False
        errors = validate_metrics_payload(payload)
        assert any("conservation violated" in e for e in errors)

    def test_stranded_parked_items_flagged(self):
        from repro.harness.artifact import validate_metrics_payload

        rt, _ = run_flowed()
        payload = self._payload(rt)
        payload["runs"][0]["flow"]["conservation"]["parked"] = 3
        errors = validate_metrics_payload(payload)
        assert any("still parked" in e for e in errors)

    def test_missing_flow_metrics_flagged(self):
        from repro.harness.artifact import validate_metrics_payload

        rt, _ = run_flowed()
        payload = self._payload(rt)
        del payload["runs"][0]["metrics"]["metrics"]["flow.items_shed"]
        errors = validate_metrics_payload(payload)
        assert any("flow.* metrics missing" in e for e in errors)


class TestRunFigure:
    def test_figure_under_flow_writes_valid_artifact(self, tmp_path):
        from repro.harness.artifact import validate_metrics_payload
        from repro.harness.figures import run_figure

        out = tmp_path / "fig3.json"
        run_figure("fig3", "quick", metrics_path=out,
                   options=RunOptions(flow="ct_msgs=4,ct_bytes=8192"))
        payload = json.loads(out.read_text())
        assert validate_metrics_payload(payload) == []
        assert payload["config"]["flow"]["ct_max_msgs"] == 4
        flowed = [r for r in payload["runs"] if r["flow"] is not None]
        assert flowed  # every simulated run carried the controller
        for run in flowed:
            assert run["flow"]["conservation"]["balanced"] in (True, None)

    def test_disabled_spec_is_fast_path(self):
        from repro.harness.figures import run_figure

        data = run_figure(
            "fig3", "quick", options=RunOptions(flow=FlowConfig(enabled=False))
        )
        assert data.fig_id == "fig3"


class TestCli:
    def test_bad_flow_spec_rejected_early(self, capsys):
        from repro.harness.cli import main

        assert main(["fig3", "--flow", "ct_msgs=0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_flow_key_rejected(self, capsys):
        from repro.harness.cli import main

        assert main(["fig3", "--flow", "bogus=1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--faults", "drop=0.01"],
        ["validate", "--flow", "ct_msgs=8"],
        ["validate", "--timeline"],
        ["validate", "--metrics-out", "m.json"],
        ["report", "--faults", "drop=0.01"],
        ["report", "--flow", "ct_msgs=8"],
        ["report", "--timeline"],
        ["report", "--metrics-out", "m.json"],
        ["fig3", "--journal", "j.jsonl"],
        ["fig3", "--resume"],
        ["fig3", "--max-points", "1"],
        ["all", "--journal", "j.jsonl"],
        ["all", "--resume"],
        ["all", "--max-points", "1"],
    ])
    def test_dropped_flag_refused(self, argv, tmp_path, monkeypatch, capsys):
        from repro.harness.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert argv[1] in err
        assert list(tmp_path.iterdir()) == []  # refused before running


class TestSweep:
    def test_sweep_runs_under_flow_session(self):
        from repro.harness.sweep import run_sweep

        calls = []

        def fn(x, seed):
            calls.append(active_options().flow)
            return float(x)

        res = run_sweep(fn, {"x": [1, 2]}, options=RunOptions(flow="ct_msgs=3"))
        assert [c.mean for c in res.cells] == [1.0, 2.0]
        assert all(c is not None and c.ct_max_msgs == 3 for c in calls)
