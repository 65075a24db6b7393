"""Fig 18 — PHOLD synthetic: rejected (out-of-order) events.

Besides the paper's qualitative claim, the per-scheme rejected counts
are pinned exactly: they are deterministic simulation results, so they
must match on every host.
"""

from conftest import run_once

from repro.harness.figures import fig18

#: Quick-profile rejected-event counts per scheme.
EXPECTED_REJECTED = {"WW": 5096, "WPs": 5021, "WsP": 4994, "PP": 3392}


def test_fig18_phold_rejected(benchmark):
    data = run_once(benchmark, fig18, "quick")
    rejected = dict(zip(data.x, data.series_by_name("rejected").y))
    # The paper: >5% fewer rejected events for node-aware PP.
    assert rejected["PP"] < 0.95 * rejected["WW"]
    assert rejected["PP"] < 0.97 * rejected["WPs"]
    # Regression gate: the exact counts.
    assert rejected == EXPECTED_REJECTED
