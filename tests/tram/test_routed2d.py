"""Tests for the 2D topological-routing scheme (legacy-TRAM extension)."""

import pytest

from repro.errors import ConfigError
from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme
from repro.tram.schemes.routed2d import grid_shape

MACHINE = MachineConfig(nodes=4, processes_per_node=2, workers_per_process=2)


def build(g=8, **cfg):
    rt = RuntimeSystem(MACHINE, seed=0)
    got = []
    tram = make_scheme(
        "R2D", rt,
        TramConfig(buffer_items=g, item_bytes=8, idle_flush=True, **cfg),
        deliver_item=lambda ctx, it: got.append((ctx.worker.wid, it.payload)),
    )
    return rt, tram, got


class TestGridShape:
    @pytest.mark.parametrize(
        "n,expected", [(1, (1, 1)), (4, (2, 2)), (8, (2, 4)), (16, (4, 4)),
                       (12, (3, 4)), (7, (1, 7))]
    )
    def test_factorizations(self, n, expected):
        assert grid_shape(n) == expected
        rows, cols = grid_shape(n)
        assert rows * cols == n


class TestRouting:
    def test_next_hop_two_hops_max(self):
        rt, tram, _ = build()
        n = MACHINE.total_processes
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                hop1 = tram.next_hop(src, dst)
                if hop1 == dst:
                    continue
                hop2 = tram.next_hop(hop1, dst)
                assert hop2 == dst, (src, hop1, dst)

    def test_no_self_hop(self):
        rt, tram, _ = build()
        n = MACHINE.total_processes
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    assert tram.next_hop(src, dst) != src

    def test_same_column_goes_direct(self):
        rt, tram, _ = build()
        # Processes 0 and 4 share column 0 on the 2x4 grid.
        assert tram.next_hop(0, 4) == 4


class TestDelivery:
    def test_exactly_once_through_hops(self):
        rt, tram, got = build(g=4)
        W = MACHINE.total_workers

        def driver(ctx):
            wid = ctx.worker.wid
            for i in range(15):
                tram.insert(ctx, dst=(wid * 5 + i) % W, payload=(wid, i))

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=1_000_000)
        assert len(got) == 15 * W
        assert tram.pending_items() == 0

    def test_forwarding_happens(self):
        """Cross-row traffic must transit an intermediate."""
        rt, tram, got = build(g=2)

        def driver(ctx):
            # worker 0 (process 0, row 0) -> worker 15 (process 7, row 1,
            # different column): needs a hop.
            tram.insert(ctx, dst=15)
            tram.insert(ctx, dst=15)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        assert len(got) == 2
        assert tram.stats.messages_forwarded >= 1

    def test_fewer_source_buffers_than_wps(self):
        """The point of routing: O(cols) next hops, not O(N) dests."""
        rt, tram, _ = build(g=1000)
        W = MACHINE.total_workers

        def driver(ctx):
            for dst in range(W):
                if MACHINE.process_of_worker(dst) != MACHINE.process_of_worker(
                    ctx.worker.wid
                ):
                    tram.insert(ctx, dst=dst)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        # Worker 0 (process 0, row 0) reaches every process via its
        # row-mates (4 columns): at most cols next hops, vs 7 for WPs.
        source_bufs = len(tram._tables[0])
        assert source_bufs <= tram.cols
        assert source_bufs < MACHINE.total_processes - 1


class TestConstraints:
    def test_bulk_mode_rejected(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        with pytest.raises(ConfigError, match="per-item"):
            make_scheme("R2D", rt, TramConfig(),
                        deliver_bulk=lambda ctx, w, n, si, sc: None)

    def test_flat_fabric_makes_routing_slower(self):
        """The paper's §I claim: on distance-insensitive fabrics the
        extra hop costs more than the buffer savings are worth for
        steady traffic."""
        def run(scheme):
            rt = RuntimeSystem(MACHINE, seed=0)
            tram = make_scheme(
                scheme, rt,
                TramConfig(buffer_items=16, item_bytes=8, idle_flush=True),
                deliver_item=lambda ctx, it: None,
            )
            W = MACHINE.total_workers

            def driver(ctx):
                rng = rt.rng.stream(f"r/{ctx.worker.wid}")
                for _ in range(300):
                    tram.insert(ctx, dst=int(rng.integers(0, W)))

            for w in range(W):
                rt.post(w, driver)
            stats = rt.run(max_events=2_000_000)
            return stats.end_time, tram.stats.latency.mean

        t_r2d, lat_r2d = run("R2D")
        t_wps, lat_wps = run("WPs")
        assert lat_r2d > lat_wps  # the extra hop shows up in latency
