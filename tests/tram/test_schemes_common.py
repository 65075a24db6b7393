"""Behaviour shared by all aggregation schemes (parametrized)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import SCHEME_NAMES, TramConfig, make_scheme

# Paper schemes + baseline + extensions (node-level, 2D routing).
ALL_SCHEMES = list(SCHEME_NAMES) + ["Direct", "WNs", "NN", "R2D"]
BULK_SCHEMES = [s for s in ALL_SCHEMES if s != "R2D"]  # R2D is per-item only


def build(scheme, g=4, wpp=2, ppn=2, nodes=2, seed=0, deliver_item=None,
          deliver_bulk=None, **cfg):
    machine = MachineConfig(nodes=nodes, processes_per_node=ppn,
                            workers_per_process=wpp)
    rt = RuntimeSystem(machine, seed=seed)
    # Multi-hop schemes park forwarded items at intermediates; idle
    # flushing guarantees drainage without requiring app cooperation.
    cfg.setdefault("idle_flush", scheme == "R2D")
    tram = make_scheme(
        scheme, rt, TramConfig(buffer_items=g, item_bytes=8, **cfg),
        deliver_item=deliver_item, deliver_bulk=deliver_bulk,
    )
    return rt, tram


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestPerItemConservation:
    def test_every_item_delivered_exactly_once(self, scheme):
        got = []
        rt, tram = build(scheme, deliver_item=lambda ctx, it: got.append(it.payload))
        W = rt.machine.total_workers

        def driver(ctx):
            wid = ctx.worker.wid
            for i in range(13):
                tram.insert(ctx, dst=(wid * 13 + i) % W, payload=(wid, i))
            tram.flush(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=200_000)
        assert sorted(got) == sorted((w, i) for w in range(W) for i in range(13))
        assert tram.stats.items_delivered == tram.stats.items_inserted == 13 * W
        assert tram.pending_items() == 0

    def test_items_arrive_at_correct_worker(self, scheme):
        arrivals = []
        rt, tram = build(
            scheme,
            deliver_item=lambda ctx, it: arrivals.append((ctx.worker.wid, it.dst)),
        )
        W = rt.machine.total_workers

        def driver(ctx):
            for dst in range(W):
                tram.insert(ctx, dst=dst, payload=None)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=100_000)
        assert len(arrivals) == W
        for worker, dst in arrivals:
            assert worker == dst


@pytest.mark.parametrize("scheme", BULK_SCHEMES)
class TestBulkConservation:
    def test_counts_conserved(self, scheme):
        received = np.zeros(8, dtype=np.int64)

        def deliver(ctx, wid, count, src_ids, src_counts):
            received[wid] += count
            assert src_counts.sum() == count

        rt, tram = build(scheme, g=16, deliver_bulk=deliver)
        W = rt.machine.total_workers

        def driver(ctx):
            rng = rt.rng.stream(f"d/{ctx.worker.wid}")
            counts = np.bincount(rng.integers(0, W, 200), minlength=W)
            tram.insert_bulk(ctx, counts)
            tram.flush(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=500_000)
        assert received.sum() == 200 * W
        assert tram.stats.items_delivered == 200 * W

    def test_source_attribution_conserved(self, scheme):
        per_src = np.zeros(8, dtype=np.int64)

        def deliver(ctx, wid, count, src_ids, src_counts):
            per_src[src_ids] += src_counts

        rt, tram = build(scheme, g=16, deliver_bulk=deliver)
        W = rt.machine.total_workers

        def driver(ctx):
            counts = np.full(W, 25, dtype=np.int64)  # 25 to everyone
            tram.insert_bulk(ctx, counts)
            tram.flush(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=500_000)
        # Every worker contributed exactly 25 * W items.
        assert (per_src == 25 * W).all()


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestLocalBypass:
    def test_intra_process_items_bypass_network(self, scheme):
        rt, tram = build(scheme, deliver_item=lambda ctx, it: None)

        def driver(ctx):
            tram.insert(ctx, dst=1, payload=None)  # same process as worker 0

        rt.post(0, driver)
        rt.run(max_events=10_000)
        assert tram.stats.items_bypassed_local == 1
        assert tram.stats.items_delivered == 1
        assert rt.transport.stats.total_messages == 0

    def test_bypass_disabled_routes_through_buffers(self, scheme):
        if scheme == "Direct":
            pytest.skip("Direct never buffers")
        rt, tram = build(
            scheme, bypass_local=False, deliver_item=lambda ctx, it: None
        )

        def driver(ctx):
            tram.insert(ctx, dst=1, payload=None)
            tram.flush(ctx)

        rt.post(0, driver)
        rt.run(max_events=10_000)
        assert tram.stats.items_bypassed_local == 0
        assert tram.stats.items_delivered == 1
        assert tram.stats.messages_sent == 1


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
class TestCallbacks:
    def test_missing_callbacks_rejected(self, scheme):
        machine = MachineConfig(nodes=1, processes_per_node=1,
                                workers_per_process=2)
        rt = RuntimeSystem(machine)
        with pytest.raises(ConfigError):
            make_scheme(scheme, rt, TramConfig())

    def test_mode_mixing_rejected(self, scheme):
        """Either fidelity refuses the other on a buffer it created."""
        if scheme in ("Direct", "R2D"):
            pytest.skip("no mixed-mode buffers for this scheme")
        for bulk_first in (False, True):
            errors = []
            rt, tram = build(
                scheme, deliver_item=lambda c, i: None,
                deliver_bulk=lambda c, w, n, si, sc: None,
            )
            W = rt.machine.total_workers
            counts = np.zeros(W, dtype=np.int64)
            counts[W - 1] = 1  # remote: goes into a buffer
            first, second = (
                (lambda ctx: tram.insert(ctx, dst=W - 1)),
                (lambda ctx: tram.insert_bulk(ctx, counts)),
            )
            if bulk_first:
                first, second = second, first

            def driver(ctx):
                first(ctx)
                try:
                    second(ctx)
                except ConfigError as e:
                    errors.append(e)

            rt.post(0, driver)
            rt.run(max_events=10_000)
            assert len(errors) == 1, bulk_first
            assert "do not mix" in str(errors[0])


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("mode", ["item", "bulk"])
class TestTransportAgreement:
    def test_counters_match_transport(self, scheme, mode):
        """The scheme's message and byte counters are what the transport
        carried: WNs/NN intra-node forwards count only as forwarded, R2D's
        forwarded hops also as full or flush messages."""
        if scheme == "R2D" and mode == "bulk":
            pytest.skip("R2D is per-item only")
        if mode == "item":
            rt, tram = build(scheme, g=3, deliver_item=lambda c, i: None)
        else:
            rt, tram = build(
                scheme, g=16, deliver_bulk=lambda c, w, n, si, sc: None
            )
        W = rt.machine.total_workers

        def driver(ctx):
            wid = ctx.worker.wid
            if mode == "item":
                for i in range(5 * W):
                    tram.insert(ctx, dst=(wid + i) % W, payload=i)
            else:
                rng = rt.rng.stream(f"agree/{wid}")
                tram.insert_bulk(ctx, np.bincount(rng.integers(0, W, 150),
                                                  minlength=W))
            tram.flush(ctx)

        for w in range(W):
            rt.post(w, driver)
        rt.run(max_events=500_000)
        stats = tram.stats
        assert stats.items_delivered == stats.items_inserted
        assert tram.pending_items() == 0
        transport = rt.transport.stats
        assert sum(transport.bytes.values()) == stats.bytes_sent
        expected = stats.messages_full + stats.messages_flush
        if scheme in ("WNs", "NN"):
            expected += stats.messages_forwarded
        assert transport.total_messages == expected
        if scheme in ("WNs", "NN", "R2D"):
            assert stats.messages_forwarded > 0  # the hop was exercised


class TestRegistry:
    def test_unknown_scheme_rejected(self):
        machine = MachineConfig(nodes=1, processes_per_node=1,
                                workers_per_process=1)
        rt = RuntimeSystem(machine)
        with pytest.raises(ConfigError, match="unknown scheme"):
            make_scheme("bogus", rt, deliver_item=lambda c, i: None)

    def test_case_insensitive(self):
        machine = MachineConfig(nodes=1, processes_per_node=1,
                                workers_per_process=2)
        rt = RuntimeSystem(machine)
        tram = make_scheme("wps", rt, deliver_item=lambda c, i: None)
        assert tram.name == "WPs"

    def test_scheme_names_in_paper_order(self):
        assert SCHEME_NAMES == ("WW", "WPs", "WsP", "PP")
