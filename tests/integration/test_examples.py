"""Every shipped example must run end-to-end (smoke + output checks)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "items per network message" in out
        assert "True" in out  # all delivered

    def test_scheme_comparison(self, capsys):
        out = run_example("scheme_comparison.py", capsys)
        for scheme in ("WW", "WPs", "WsP", "PP"):
            assert scheme in out

    def test_commthread_bottleneck(self, capsys):
        out = run_example("commthread_bottleneck.py", capsys)
        assert "non-SMP" in out
        assert "workers/commthread" in out

    @pytest.mark.slow
    def test_sssp_wasted_updates(self, capsys):
        out = run_example("sssp_wasted_updates.py", capsys)
        assert "identical shortest-path distances" in out
        assert "priority flushing" in out

    @pytest.mark.slow
    def test_pdes_rollbacks(self, capsys):
        out = run_example("pdes_rollbacks.py", capsys)
        assert "rejected" in out
        assert "PP" in out

    def test_custom_hybrid_scheme(self, capsys):
        out = run_example("custom_hybrid_scheme.py", capsys)
        assert "hybrid" in out
        assert "Direct" in out
