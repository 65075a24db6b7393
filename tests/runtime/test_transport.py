"""Unit tests for message routing across locality classes."""

import pytest

from repro.errors import DeliveryError
from repro.network.message import NetMessage, Route


def send_and_time(rt, src, dst_worker, size=100):
    """Send one runtime message src->dst; return arrival time."""
    arrivals = []
    rt.register_handler(
        "t.probe", lambda ctx, msg: arrivals.append(ctx.now), overwrite=True
    )

    def task(ctx):
        msg = NetMessage(
            kind="t.probe",
            src_worker=src,
            dst_process=rt.machine.process_of_worker(dst_worker),
            dst_worker=dst_worker,
            size_bytes=size,
        )
        if not rt.machine.smp:
            ctx.charge(rt.costs.nonsmp_send_service_ns(size))
        ctx.emit(rt.transport.send, msg)

    rt.post(src, task)
    rt.run()
    assert len(arrivals) == 1
    return arrivals[0]


class TestRouting:
    def test_intra_process_fastest(self, make_rt):
        rt = make_rt()
        t = send_and_time(rt, 0, 1)  # same process
        assert t == pytest.approx(rt.costs.enqueue_ns)
        assert rt.transport.stats.messages[Route.INTRA_PROCESS] == 1

    def test_intra_node_goes_through_commthreads(self, make_rt):
        rt = make_rt()
        t = send_and_time(rt, 0, 2)  # process 0 -> 1, same node
        costs = rt.costs
        expected = (
            costs.comm_service_ns(100)
            + costs.alpha_intra_ns
            + costs.comm_service_ns(100)
            + costs.enqueue_ns
        )
        assert t == pytest.approx(expected)
        assert rt.transport.stats.messages[Route.INTRA_NODE] == 1

    def test_inter_node_goes_through_nics(self, make_rt):
        rt = make_rt()
        t = send_and_time(rt, 0, 4)  # node 0 -> node 1
        costs = rt.costs
        occ = costs.tx_occupancy_ns(100)
        expected = (
            costs.comm_service_ns(100)
            + occ
            + costs.alpha_inter_ns
            + occ
            + costs.comm_service_ns(100)
            + costs.enqueue_ns
        )
        assert t == pytest.approx(expected)
        assert rt.transport.stats.messages[Route.INTER_NODE] == 1
        assert rt.node(0).nic.stats.tx_messages == 1
        assert rt.node(1).nic.stats.rx_messages == 1

    def test_ordering_intra_lt_node_lt_internode(self, make_rt):
        t_proc = send_and_time(make_rt(), 0, 1)
        t_node = send_and_time(make_rt(), 0, 2)
        t_inter = send_and_time(make_rt(), 0, 4)
        assert t_proc < t_node < t_inter


class TestNonSmp:
    def test_inter_node_skips_commthreads(self, make_rt):
        rt = make_rt(ppn=4, wpp=1, smp=False)
        t = send_and_time(rt, 0, 4)  # node 0 -> node 1
        costs = rt.costs
        occ = costs.tx_occupancy_ns(100)
        # Sender charged nonsmp send in-task; the receiver's recv service
        # is charged inside the delivery task (handlers run at task
        # start), so it occupies the PE but does not shift the handler's
        # observed time.
        expected = (
            costs.nonsmp_send_service_ns(100)
            + occ
            + costs.alpha_inter_ns
            + occ
        )
        assert t == pytest.approx(expected)
        assert rt.worker(4).stats.busy_ns >= costs.nonsmp_recv_service_ns(100)

    def test_commthreads_absent(self, make_rt):
        rt = make_rt(ppn=2, wpp=1, smp=False)
        assert rt.process(0).commthread is None


class TestProcessAddressing:
    def test_round_robin_receiver(self, make_rt):
        rt = make_rt()
        receivers = []
        rt.register_handler("t.p", lambda ctx, msg: receivers.append(ctx.worker.wid))

        def task(ctx):
            for _ in range(4):
                ctx.emit(
                    rt.transport.send,
                    NetMessage(
                        kind="t.p", src_worker=0, dst_process=1, size_bytes=10
                    ),
                )

        rt.post(0, task)
        rt.run()
        # Process 1 owns workers 2 and 3; round robin alternates.
        assert sorted(set(receivers)) == [2, 3]
        assert receivers.count(2) == 2
        assert receivers.count(3) == 2


class TestStatsAndErrors:
    def test_bytes_counted(self, make_rt):
        rt = make_rt()
        send_and_time(rt, 0, 4, size=333)
        assert rt.transport.stats.bytes[Route.INTER_NODE] == 333
        assert sum(rt.transport.stats.bytes.values()) == 333
        assert rt.transport.stats.total_messages == 1

    def test_bad_destination_process(self, make_rt):
        rt = make_rt()
        failures = []

        def task(ctx):
            ctx.emit(
                rt.transport.send,
                NetMessage(kind="x", src_worker=0, dst_process=99, size_bytes=1),
            )

        rt.post(0, task)
        with pytest.raises(DeliveryError):
            rt.run()

    # 7 exists but lives in process 3, on the other node.
    @pytest.mark.parametrize("bad_worker", [-1, 10_000, 7])
    def test_bad_destination_worker(self, make_rt, bad_worker):
        rt = make_rt()

        def task(ctx):
            ctx.emit(
                rt.transport.send,
                NetMessage(
                    kind="x", src_worker=0, dst_process=0,
                    dst_worker=bad_worker, size_bytes=1,
                ),
            )

        rt.post(0, task)
        with pytest.raises(DeliveryError, match="destination worker"):
            rt.run()

    def test_none_dst_worker_is_valid(self, make_rt):
        # ``None`` means "any worker in the process" (round-robin pick),
        # not an addressing error.
        rt = make_rt()
        hits = []
        rt.register_handler(
            "t.any", lambda ctx, msg: hits.append(ctx.worker.wid), overwrite=True
        )

        def task(ctx):
            ctx.emit(
                rt.transport.send,
                NetMessage(
                    kind="t.any", src_worker=0,
                    dst_process=rt.machine.total_processes - 1,
                    size_bytes=1,
                ),
            )

        rt.post(0, task)
        rt.run()
        assert len(hits) == 1

    def test_unregistered_kind_raises(self, make_rt):
        rt = make_rt()

        def task(ctx):
            ctx.emit(
                rt.transport.send,
                NetMessage(
                    kind="nobody", src_worker=0, dst_process=0, dst_worker=1,
                    size_bytes=1,
                ),
            )

        rt.post(0, task)
        with pytest.raises(DeliveryError):
            rt.run()
