"""Integration: bounded occupancy, backpressure and overload behavior.

Covers the tentpole mechanics (caps honored under saturating load,
parked messages drained by quiescence, source stalls) plus the worker
queue-accounting and comm-thread backlog satellites, expedited-lane
ordering under backpressure stalls, and overload escalation composed
with scripted comm-thread stalls.
"""

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, FaultWindow
from repro.flow import FlowConfig
from repro.machine import MachineConfig, nonsmp_machine
from repro.network.message import NetMessage
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

TINY = FlowConfig(
    ct_max_msgs=2,
    ct_max_bytes=2048,
    nic_max_msgs=2,
    nic_max_bytes=2048,
    overload_backlog_ns=5_000.0,
    clear_backlog_ns=1_000.0,
)

SMP = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


def saturate(machine, flow, scheme="WW", rounds=8, per_round=50, **tram_kw):
    """Drive every worker with ``rounds`` insert tasks (multi-task so
    later tasks observe the congestion earlier emissions created)."""
    rt = RuntimeSystem(machine, seed=0, flow=flow)
    tram = make_scheme(
        scheme, rt,
        TramConfig(buffer_items=4, idle_flush=True, **tram_kw),
        deliver_item=lambda ctx, it: None,
    )
    W = machine.total_workers

    def driver(ctx, remaining):
        rng = rt.rng.stream(f"sat/{ctx.worker.wid}/{remaining}")
        for _ in range(per_round):
            tram.insert(ctx, dst=int(rng.integers(0, W)))
        if remaining:
            ctx.emit(ctx.worker.post_task, driver, remaining - 1)

    for w in range(W):
        rt.post(w, driver, rounds - 1)
    rt.run(max_events=50_000_000)
    return rt, tram


class TestBoundedOccupancy:
    @pytest.mark.parametrize(
        "machine", [SMP, nonsmp_machine(2, ranks_per_node=4)],
        ids=["smp", "nonsmp"],
    )
    def test_caps_honored_under_saturation(self, machine):
        rt, tram = saturate(machine, TINY)
        assert tram.stats.items_delivered == tram.stats.items_inserted
        assert rt.flow.stats.messages_parked > 0
        for gate in rt.flow.gates():
            assert gate.hwm_msgs <= gate.max_msgs
            assert not gate.parked  # everything drained by quiescence
        cons = rt.flow.conservation()
        assert cons["balanced"] is True
        assert cons["parked"] == 0

    def test_source_stalls_charged_under_congestion(self):
        rt, _ = saturate(SMP, TINY)
        assert rt.flow.stats.source_stalls > 0
        assert rt.flow.stats.source_stall_ns > 0.0

    def test_flow_off_runs_identically_to_seed(self):
        base_rt, base = saturate(SMP, None)
        assert base_rt.flow is None
        flow_rt, flowed = saturate(SMP, TINY)
        # Backpressure changes timing but never loses or invents items.
        assert (
            flowed.stats.items_delivered == base.stats.items_delivered
        )


class TestWorkerQueueAccounting:
    def test_queued_bytes_hwm_tracked_and_drains(self):
        rt, _ = saturate(SMP, TINY)
        hwms = [w.stats.queued_bytes_hwm for w in rt.workers]
        assert max(hwms) > 0
        for w in rt.workers:
            assert w.stats.queued_bytes == 0  # all handlers ran

    def test_surfaced_in_utilization_report(self):
        from repro.harness.metrics import utilization

        rt, _ = saturate(SMP, TINY)
        report = utilization(rt)
        assert report.worker_queued_bytes_hwm == max(
            w.stats.queued_bytes_hwm for w in rt.workers
        )
        assert "worker queued bytes" in report.to_table()


class TestCommThreadBacklog:
    def test_max_backlog_recorded(self):
        rt, _ = saturate(SMP, TINY)
        backlogs = [
            p.commthread.stats.max_backlog_ns
            for p in rt.processes
            if p.commthread is not None
        ]
        assert max(backlogs) > 0.0

    def test_bottleneck_detail_names_backlog(self):
        from repro.harness.metrics import UtilizationReport

        report = UtilizationReport(
            total_time_ns=1e6,
            worker_mean=0.1, worker_max=0.2,
            commthread_mean=0.8, commthread_max=0.9,
            nic_tx_mean=0.3, nic_rx_mean=0.3,
            commthread_queue_wait_ns=0.0, nic_queue_wait_ns=0.0,
            commthread_max_backlog_ns=123_456.0,
            worker_queued_bytes_hwm=42,
        )
        assert report.bottleneck() == "commthreads"
        assert "123,456" in report.bottleneck_detail()


class TestExpeditedBypass:
    def test_expedited_overtakes_stalled_normal_queue(self):
        """An expedited message delivered while the PE grinds through a
        backpressure-stalled task must run before normal tasks that were
        queued ahead of it. A scripted comm-thread stall supplies the
        pressure that makes the source stalls long enough to observe."""
        flow = replace(TINY, max_stall_ns=200_000.0)
        plan = FaultPlan(
            windows=(FaultWindow(0.0, 100_000.0, "ct_stall", target=0),)
        )
        rt = RuntimeSystem(SMP, seed=0, flow=flow, faults=plan)
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=1, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        order = []
        rt.register_handler("test.exp", lambda ctx, msg: order.append("exp"))
        W = SMP.total_workers

        def driver(ctx, remaining):
            for i in range(20):
                tram.insert(ctx, dst=(ctx.worker.wid + 1 + i) % W)
            if remaining:
                ctx.emit(ctx.worker.post_task, driver, remaining - 1)

        rt.post(0, driver, 6)

        def poke():
            w0 = rt.worker(0)
            assert w0.busy  # mid-stall: the queue behind it is real
            w0.post_task(lambda ctx: order.append("n1"))
            w0.post_task(lambda ctx: order.append("n2"))
            w0.deliver_message(
                NetMessage(
                    kind="test.exp", src_worker=3, dst_process=0,
                    dst_worker=0, size_bytes=32, payload=None,
                    expedited=True,
                )
            )

        rt.engine.at(30_000.0, poke)
        rt.run(max_events=50_000_000)
        assert rt.flow.stats.source_stalls > 0
        assert order.index("exp") < order.index("n1")
        assert order.index("exp") < order.index("n2")


class TestOverload:
    def test_escalates_and_clears_under_ct_stall(self):
        """A scripted comm-thread stall composes with flow control: the
        stall inflates the pressure signal, trips the detector, and the
        detector clears with hysteresis once the backlog drains."""
        plan = FaultPlan(
            windows=(FaultWindow(10_000.0, 60_000.0, "ct_stall", target=0),)
        )
        rt = RuntimeSystem(SMP, seed=0, flow=TINY, faults=plan)
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=4, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        W = SMP.total_workers

        def driver(ctx, remaining):
            rng = rt.rng.stream(f"ovl/{ctx.worker.wid}/{remaining}")
            for _ in range(40):
                tram.insert(ctx, dst=int(rng.integers(0, W)))
            if remaining:
                ctx.emit(ctx.worker.post_task, driver, remaining - 1)

        for w in range(W):
            rt.post(w, driver, 5)
        rt.run(max_events=50_000_000)
        stats = rt.flow.stats
        assert stats.overload_escalations >= 1
        assert stats.overload_clears >= 1
        assert not rt.flow.overloaded  # cleared by the end of the run
        assert tram.stats.overload_escalations >= 1
        assert tram.stats.items_delivered == tram.stats.items_inserted
        # Escalation state resets when the overload clears.
        assert tram._overload_capacity_mult == 1.0

    def test_escalation_grows_buffer_capacity(self):
        rt = RuntimeSystem(SMP, seed=0, flow=TINY)
        tram = make_scheme(
            "WW", rt,
            TramConfig(buffer_items=4, overload_buffer_growth=3.0),
            deliver_item=lambda ctx, it: None,
        )
        tram.on_overload()
        assert tram._overload_capacity_mult == 3.0
        tram.on_overload_cleared()
        assert tram._overload_capacity_mult == 1.0
