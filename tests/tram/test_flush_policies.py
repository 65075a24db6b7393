"""Flush policies: explicit, idle, priority (paper §III-B and the
future-work prioritization feature)."""

import pytest

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


def build(scheme="WPs", **cfg):
    rt = RuntimeSystem(MACHINE, seed=0)
    delivered = []
    tram = make_scheme(
        scheme, rt, TramConfig(buffer_items=100, item_bytes=8, **cfg),
        deliver_item=lambda ctx, it: delivered.append((ctx.now, it.payload)),
    )
    return rt, tram, delivered


class TestExplicitFlush:
    def test_without_flush_items_stay_buffered(self):
        rt, tram, delivered = build()
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7))
        rt.run(max_events=10_000)
        assert delivered == []
        assert tram.pending_items() == 1

    def test_flush_delivers_buffered_items(self):
        rt, tram, delivered = build()

        def driver(ctx):
            tram.insert(ctx, dst=7, payload="x")
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=10_000)
        assert [p for _, p in delivered] == ["x"]
        assert tram.stats.messages_flush == 1

    def test_flush_on_empty_buffers_sends_nothing(self):
        rt, tram, delivered = build()
        rt.post(0, lambda ctx: tram.flush(ctx))
        rt.run(max_events=10_000)
        assert tram.stats.messages_sent == 0


class TestIdleFlush:
    def test_idle_worker_flushes_pending(self):
        rt, tram, delivered = build(idle_flush=True)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7, payload="y"))
        rt.run(max_events=10_000)
        # No explicit flush; idle hook pushed the item out.
        assert [p for _, p in delivered] == ["y"]
        assert tram.stats.messages_flush == 1

    def test_idle_flush_does_not_fire_when_empty(self):
        rt, tram, delivered = build(idle_flush=True)
        rt.post(0, lambda ctx: ctx.charge(100.0))
        rt.run(max_events=10_000)
        assert tram.stats.messages_sent == 0


class TestPriorityFlush:
    def test_urgent_item_flushes_immediately(self):
        rt, tram, delivered = build(priority_threshold=10.0)

        def driver(ctx):
            tram.insert(ctx, dst=7, payload="slow", priority=100.0)
            tram.insert(ctx, dst=7, payload="fast", priority=1.0)

        rt.post(0, driver)
        rt.run(max_events=10_000)
        # The urgent insert flushed both buffered items.
        assert sorted(p for _, p in delivered) == ["fast", "slow"]
        assert tram.stats.messages_flush == 1

    def test_non_urgent_items_stay(self):
        rt, tram, delivered = build(priority_threshold=10.0)

        def driver(ctx):
            tram.insert(ctx, dst=7, payload="slow", priority=100.0)

        rt.post(0, driver)
        rt.run(max_events=10_000)
        assert delivered == []
        assert tram.pending_items() == 1

    def test_unprioritized_items_unaffected(self):
        rt, tram, delivered = build(priority_threshold=10.0)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7))
        rt.run(max_events=10_000)
        assert tram.pending_items() == 1


class TestExpedited:
    def test_tram_messages_overtake_normal_tasks(self):
        """Expedited TramLib delivery runs before queued app tasks."""
        rt = RuntimeSystem(MACHINE, seed=0)
        order = []
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=1, expedited=True),
            deliver_item=lambda ctx, it: order.append("tram"),
        )
        # Occupy worker 7 with a long task, then queue a slow app task;
        # the tram message arriving meanwhile must run first.
        rt.post(7, lambda ctx: ctx.charge(100_000.0))
        rt.post(7, lambda ctx: order.append("app"), delay=50_000.0)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7), delay=1_000.0)
        rt.run(max_events=10_000)
        assert order == ["tram", "app"]


class TestPriorityFlushStats:
    def test_priority_flushes_counted(self):
        rt, tram, delivered = build(priority_threshold=10.0)

        def driver(ctx):
            tram.insert(ctx, dst=7, payload="a", priority=50.0)
            tram.insert(ctx, dst=7, payload="b", priority=1.0)  # urgent
            tram.insert(ctx, dst=7, payload="c", priority=0.5)  # urgent

        rt.post(0, driver)
        rt.run(max_events=10_000)
        assert tram.stats.priority_flushes == 2
        assert tram.stats.messages_flush == 2

    def test_summary_includes_percentiles_when_sampled(self):
        from repro.machine import MachineConfig
        from repro.runtime.system import RuntimeSystem
        from repro.tram import TramConfig, make_scheme

        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "WPs", rt, TramConfig(buffer_items=4, latency_sample=128),
            deliver_item=lambda ctx, it: None,
        )

        def driver(ctx):
            for i in range(16):
                tram.insert(ctx, dst=4 + (i % 4))
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        summary = tram.stats.summary()
        assert summary["latency_p50_ns"] is not None
        assert summary["latency_p99_ns"] >= summary["latency_p50_ns"]
