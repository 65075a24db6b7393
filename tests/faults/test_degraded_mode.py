"""Graceful degradation: retry-budget exhaustion falls back to direct sends.

The acceptance property: under a permanent 100%-drop window towards one
node, the reliability layer trips its retry budget, the affected
channels degrade, the schemes record the degradation in ``TramStats``
and route later inserts as direct per-item sends — and the run still
completes (quiescence through natural event-queue drain), with every
inserted item accounted for as delivered, abandoned or fabric-lost.
"""

import pytest

from repro.faults import FOREVER, FaultPlan, FaultWindow
from repro.machine import MachineConfig
from repro.runtime.reliability import ReliabilityConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import SCHEME_NAMES, TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=1, workers_per_process=4)

#: Trip the budget fast: 3 attempts spanning ~7 * 1000ns of backoff.
TRIP_FAST = ReliabilityConfig(
    retransmit_timeout_ns=1_000.0, max_retries=2, ack_delay_ns=500.0
)

#: Node 1 is unreachable for the whole run.
BLACKHOLE = FaultPlan(
    windows=(FaultWindow(0.0, FOREVER, "drop", target=1, magnitude=1.0),)
)


def run_degraded(scheme="WPs", late_items=60):
    rt = RuntimeSystem(
        MACHINE, seed=5, faults=BLACKHOLE, reliability=TRIP_FAST
    )
    tram = make_scheme(
        scheme, rt,
        TramConfig(buffer_items=16, idle_flush=True),
        deliver_item=lambda ctx, it: None,
    )
    W = MACHINE.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"deg/{ctx.worker.wid}")
        for _ in range(80):
            tram.insert(ctx, dst=int(rng.integers(0, W)))

    for w in range(W):
        rt.post(w, driver)

    # A second wave of inserts long after the budget has tripped
    # (~7us with TRIP_FAST) exercises the per-insert fallback path.
    def late_driver(ctx):
        rng = rt.rng.stream(f"deg-late/{ctx.worker.wid}")
        for _ in range(late_items):
            tram.insert(ctx, dst=int(rng.integers(0, W)))

    rt.engine.after(200_000.0, rt.worker(0).post_task, late_driver)
    stats = rt.run(max_events=10_000_000)
    return rt, tram, stats


class TestDegradedMode:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_budget_trip_degrades_and_run_completes(self, scheme):
        rt, tram, _ = run_degraded(scheme)
        rel = rt.reliable.stats
        st = tram.stats
        # The channel towards node 1 tripped and was recorded by the scheme.
        assert rel.channels_degraded >= 1
        assert rel.messages_abandoned > 0
        assert st.degraded_destinations >= 1
        # Inserts after the trip bypass aggregation entirely.
        assert st.direct_fallback_sends > 0
        # The run drained: every insert is delivered, abandoned with the
        # channel, or destroyed by the fabric after the fallback (direct
        # sends on a degraded channel travel unprotected).
        assert st.items_delivered + rel.items_abandoned + (
            rt.faults.stats.items_lost
        ) == st.items_inserted
        assert rt.reliable.pending_count() == 0

    def test_no_escalation_without_flush_timer(self):
        _, tram, _ = run_degraded("WPs")
        assert tram.stats.degraded_destinations >= 1
        assert tram.stats.flush_escalations == 0

    def test_healthy_destinations_stay_aggregated(self):
        # Three nodes, node 1 blackholed: every channel whose data *or*
        # ack path crosses the node-1 wire degrades, but the 0<->2
        # channels never involve it and must stay protected+aggregated.
        machine = MachineConfig(nodes=3, processes_per_node=1,
                                workers_per_process=4)
        # Timeout well above the healthy-channel RTT (so congestion never
        # trips the budget) but small enough that the blackholed channels
        # exhaust within the run's timer horizon.
        trip = ReliabilityConfig(
            retransmit_timeout_ns=50_000.0, max_retries=2, ack_delay_ns=500.0
        )
        rt = RuntimeSystem(machine, seed=5, faults=BLACKHOLE, reliability=trip)
        tram = make_scheme(
            "WPs", rt, TramConfig(buffer_items=16, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        W = machine.total_workers

        def driver(ctx):
            rng = rt.rng.stream(f"deg3/{ctx.worker.wid}")
            for _ in range(80):
                tram.insert(ctx, dst=int(rng.integers(0, W)))

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=10_000_000)
        assert tram.stats.degraded_destinations >= 1
        # Degradation never spreads past channels touching process 1
        # (data towards it dropped, or acks from it dropped).
        for (src, dst) in tram._degraded:
            assert 1 in (src, dst)
        assert not rt.reliable.is_degraded(0, 2)
        assert not rt.reliable.is_degraded(2, 0)
