"""Scheme-specific buffer placement and message-count behaviour.

These tests pin down exactly what distinguishes the schemes (the
paper's design axis): where buffers live, how many a flush empties,
and who pays grouping/atomic costs.
"""

import numpy as np
import pytest

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

# 2 nodes x 2 processes x 2 workers: W=8, N=4 processes, t=2.
MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)


def run_one_item_per_dest(scheme, **cfg_kwargs):
    """Worker 0 sends one item to every remote worker, then flushes."""
    rt = RuntimeSystem(MACHINE, seed=0)
    tram = make_scheme(
        scheme,
        rt,
        TramConfig(buffer_items=100, item_bytes=8, **cfg_kwargs),
        deliver_item=lambda ctx, it: None,
    )
    W = MACHINE.total_workers

    def driver(ctx):
        for dst in range(2, W):  # all workers outside process 0
            tram.insert(ctx, dst=dst)
        tram.flush(ctx)

    rt.post(0, driver)
    rt.run(max_events=100_000)
    return rt, tram


class TestFlushMessageCounts:
    """One partially-filled buffer per destination -> flush sends one
    message per buffer: the §III-C flush-cost story in miniature."""

    def test_ww_one_message_per_destination_worker(self):
        _, tram = run_one_item_per_dest("WW")
        assert tram.stats.messages_flush == 6  # 6 remote workers
        assert tram.stats.buffers_allocated == 6

    def test_wps_one_message_per_destination_process(self):
        _, tram = run_one_item_per_dest("WPs")
        assert tram.stats.messages_flush == 3  # 3 remote processes
        assert tram.stats.buffers_allocated == 3

    def test_wsp_matches_wps_buffering(self):
        _, tram = run_one_item_per_dest("WsP")
        assert tram.stats.messages_flush == 3
        assert tram.stats.buffers_allocated == 3

    def test_pp_one_message_per_destination_process(self):
        _, tram = run_one_item_per_dest("PP")
        assert tram.stats.messages_flush == 3
        assert tram.stats.buffers_allocated == 3

    def test_direct_sends_immediately(self):
        _, tram = run_one_item_per_dest("Direct")
        assert tram.stats.messages_full == 6
        assert tram.stats.messages_flush == 0


class TestPPSharing:
    def test_pp_buffers_shared_within_process(self):
        """Both workers of process 0 fill the same shared buffer."""
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "PP", rt, TramConfig(buffer_items=4, item_bytes=8),
            deliver_item=lambda ctx, it: None,
        )
        sent_at = []
        orig = tram._emit_message

        def spy(ctx, payload, count, dst_process, dst_worker, *, full, **kw):
            sent_at.append((ctx.now, count, full))
            orig(ctx, payload, count, dst_process, dst_worker, full=full, **kw)

        tram._emit_message = spy

        def driver(ctx):
            tram.insert(ctx, dst=7)  # remote process 3
            tram.insert(ctx, dst=7)

        rt.post(0, driver)
        rt.post(1, driver)
        rt.run(max_events=100_000)
        # 4 inserts from two different workers fill the one g=4 buffer.
        assert len(sent_at) == 1
        assert sent_at[0][1] == 4
        assert sent_at[0][2] is True
        assert tram.stats.buffers_allocated == 1
        assert tram.stats.atomic_inserts == 4

    def test_pp_buffers_live_in_process_shared_heap(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "PP", rt, TramConfig(buffer_items=10),
            deliver_item=lambda ctx, it: None,
        )
        rt.post(0, lambda ctx: tram.insert(ctx, dst=7))
        rt.run(max_events=10_000)
        assert any(
            key == tram._shared_key for key in rt.process(0).shared
        )

    def test_pp_flush_when_done_waits_for_all_workers(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "PP", rt, TramConfig(buffer_items=100),
            deliver_item=lambda ctx, it: None,
        )

        def driver(ctx):
            tram.insert(ctx, dst=7)
            tram.flush_when_done(ctx)

        rt.post(0, driver)
        rt.post(1, driver, delay=1000.0)
        rt.run(max_events=10_000)
        # Exactly one flush message carrying both items.
        assert tram.stats.messages_flush == 1
        assert tram.stats.items_delivered == 2


class TestGroupingCosts:
    def test_wsp_pays_grouping_at_source(self):
        _, wsp = run_one_item_per_dest("WsP")
        _, wps = run_one_item_per_dest("WPs")
        # Both group the same element count overall, but WsP records the
        # work at emission (source side).
        assert wsp.stats.group_elements > 0
        assert wps.stats.group_elements > 0

    def test_ww_never_groups(self):
        _, tram = run_one_item_per_dest("WW")
        assert tram.stats.group_elements == 0

    def test_only_pp_uses_atomics(self):
        for scheme, expect in [("WW", 0), ("WPs", 0), ("WsP", 0)]:
            _, tram = run_one_item_per_dest(scheme)
            assert tram.stats.atomic_inserts == expect
        _, pp = run_one_item_per_dest("PP")
        assert pp.stats.atomic_inserts == 6


class TestMessageAddressing:
    def test_ww_messages_are_worker_addressed(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=1),
            deliver_item=lambda ctx, it: None,
        )
        seen = []
        kind = tram._ns + ".w"
        original = rt.handler_for(kind)

        def spy(ctx, msg):
            seen.append(msg)
            original(ctx, msg)

        rt.register_handler(kind, spy, overwrite=True)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=5))
        rt.run(max_events=10_000)
        assert seen[0].dst_worker == 5

    def test_wps_messages_are_process_addressed(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "WPs", rt, TramConfig(buffer_items=1),
            deliver_item=lambda ctx, it: None,
        )
        seen = []
        kind = tram._ns + ".p"
        original = rt.handler_for(kind)

        def spy(ctx, msg):
            seen.append(msg)
            original(ctx, msg)

        rt.register_handler(kind, spy, overwrite=True)
        rt.post(0, lambda ctx: tram.insert(ctx, dst=5))
        rt.run(max_events=10_000)
        assert seen[0].dst_worker is None
        assert seen[0].dst_process == MACHINE.process_of_worker(5)


class TestResizedFlush:
    def test_flush_message_bytes_match_fill(self):
        """Flushed messages are resized to the filled portion (§III-B)."""
        rt = RuntimeSystem(MACHINE, seed=0)
        tram = make_scheme(
            "WPs", rt, TramConfig(buffer_items=1000, item_bytes=8),
            deliver_item=lambda ctx, it: None,
        )

        def driver(ctx):
            for _ in range(3):
                tram.insert(ctx, dst=7)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=10_000)
        expected = rt.costs.message_bytes(3, 8)
        assert tram.stats.bytes_sent == expected  # not 1000 items' worth
