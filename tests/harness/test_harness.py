"""Tests for the experiment harness and CLI (quick profile)."""

import pytest

from repro.errors import HarnessError
from repro.harness import FIGURES, FigureData, Series, run_figure
from repro.harness.cli import main


class TestFigureData:
    def test_to_table_shape(self):
        data = FigureData(
            fig_id="x", title="t", xlabel="nodes", ylabel="ms",
            x=[1, 2], series=[Series("a", [0.1, 0.2]), Series("b", [0.3, 0.4])],
        )
        table = data.to_table()
        lines = table.splitlines()
        assert lines[0].split() == ["nodes", "a", "b"]
        assert len(lines) == 4

    def test_series_by_name(self):
        data = FigureData(
            fig_id="x", title="t", xlabel="n", ylabel="y",
            x=[1], series=[Series("a", [1.0])],
        )
        assert data.series_by_name("a").y == [1.0]
        with pytest.raises(KeyError):
            data.series_by_name("zzz")

    def test_render_includes_expectation(self):
        data = FigureData(
            fig_id="figX", title="T", xlabel="n", ylabel="y",
            x=[1], series=[Series("a", [1.0])], expected="a wins",
        )
        out = data.render()
        assert "figX" in out and "a wins" in out


class TestRegistry:
    def test_all_paper_figures_present(self):
        for fig in ("fig1", "fig3", "fig8", "fig9", "fig10", "fig11",
                    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
                    "fig18", "tabA", "tabB", "extA", "extB"):
            assert fig in FIGURES

    def test_unknown_figure_raises(self):
        with pytest.raises(HarnessError):
            run_figure("fig99")

    def test_bad_profile_raises(self):
        with pytest.raises(HarnessError):
            run_figure("fig1", profile="huge")


class TestQuickFigures:
    """Each quick-profile figure regenerates and shows the paper shape."""

    def test_fig1_shape(self):
        data = run_figure("fig1", "quick")
        y = data.series_by_name("one_way_us").y
        assert y[0] == pytest.approx(y[1], rel=0.15)  # flat for small
        assert y[-1] > 10 * y[0]  # bandwidth-bound for large

    def test_fig3_shape(self):
        data = run_figure("fig3", "quick")
        y = data.series_by_name("time_ms").y
        nonsmp, smp1 = y[0], y[1]
        assert smp1 > 1.5 * nonsmp
        assert y[1] > y[2] > y[3] * 0.99  # more processes help

    def test_fig11_ww_collapse(self):
        data = run_figure("fig11", "quick")
        ww = data.series_by_name("WW").y
        wps = data.series_by_name("WPs").y
        assert ww[-1] > 1.3 * wps[-1]

    def test_fig12_latency_ordering(self):
        data = run_figure("fig12", "quick")
        at_largest = {s.name: s.y[-1] for s in data.series}
        assert at_largest["PP"] < at_largest["WPs"] < at_largest["WW"]

    def test_tabB_bounds_hold(self):
        data = run_figure("tabB", "quick")
        lower = data.series_by_name("lower_bound").y
        measured = data.series_by_name("measured").y
        upper = data.series_by_name("upper_bound").y
        for lo, m, hi in zip(lower, measured, upper):
            assert lo <= m <= hi

    def test_tabA_measured_within_bound(self):
        data = run_figure("tabA", "quick")
        measured = data.series_by_name("measured").y
        analytic = data.series_by_name("analytic_max").y
        for m, a in zip(measured, analytic):
            assert m <= a

    def test_extA_message_hierarchy(self):
        data = run_figure("extA", "quick")
        msgs = dict(zip(data.x, data.series_by_name("messages").y))
        assert msgs["WW"] > msgs["WPs"] > msgs["WNs"]
        assert msgs["PP"] > msgs["NN"]

    def test_extB_routing_tradeoff(self):
        data = run_figure("extB", "quick")
        bufs = dict(zip(data.x, data.series_by_name("buffers").y))
        lat = dict(zip(data.x, data.series_by_name("latency_us").y))
        assert bufs["R2D"] < bufs["WPs"]
        assert lat["R2D"] > lat["WPs"]

    def test_fig18_shape(self):
        """PP rejects >5% fewer out-of-order events than WW; the exact
        counts are deterministic results and pin PHOLD's behaviour."""
        data = run_figure("fig18", "quick")
        rejected = dict(zip(data.x, data.series_by_name("rejected").y))
        assert rejected == {"WW": 5096, "WPs": 5021, "WsP": 4994, "PP": 3392}
        assert rejected["PP"] < 0.95 * rejected["WW"]


class TestFigureMemo:
    def test_memo_never_leaks_across_run_options(self):
        """fig12/fig13 share a memoized sweep; a result computed under
        faults must not answer a later clean call."""
        from repro.faults import FaultPlan, FaultSession
        from repro.harness.figures import _ig_sweep, fig13

        with FaultSession(FaultPlan.parse("drop=0.05")):
            faulty = fig13("quick")
        after = fig13("quick")
        _ig_sweep.cache_clear()
        clean = fig13("quick")
        assert [s.y for s in after.series] == [s.y for s in clean.series]
        assert [s.y for s in faulty.series] != [s.y for s in clean.series]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_run_single(self, capsys, tmp_path):
        assert main(["fig1", "--profile", "quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert (tmp_path / "fig1.txt").exists()

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2


class TestReport:
    def test_write_report_selected_figures(self, tmp_path):
        from repro.harness.report import write_report

        path = write_report(
            tmp_path / "REPORT.md", profile="quick",
            figures=["fig1", "tabB"],
        )
        text = path.read_text()
        assert "# Reproduction report" in text
        assert "fig1" in text and "tabB" in text
        assert "Paper expectation" in text
        assert "```text" in text

    def test_cli_report_target(self, capsys, tmp_path, monkeypatch):
        import repro.harness.report as report_mod

        called = {}

        def fake(path, profile):
            called["path"] = path
            called["profile"] = profile
            path = tmp_path / "REPORT.md"
            path.write_text("stub")
            return path

        monkeypatch.setattr(report_mod, "write_report",
                            lambda path, profile, **kw: fake(path, profile))
        assert main(["report", "--profile", "quick",
                     "--out", str(tmp_path)]) == 0
        assert called["profile"] == "quick"
