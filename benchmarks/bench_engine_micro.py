"""Microbenchmarks of the DES substrate itself (simulator throughput).

These time the *simulator* (wall-clock events/second), not simulated
time — useful for tracking regressions in the engine hot path.
"""

from repro.machine import MachineConfig
from repro.network.message import NetMessage
from repro.runtime.system import RuntimeSystem
from repro.sim.engine import Engine


def test_engine_event_throughput(benchmark):
    def burn():
        eng = Engine()
        count = [0]

        def tick(remaining):
            count[0] += 1
            if remaining:
                eng.after(1.0, tick, remaining - 1)

        eng.after(0.0, tick, 50_000)
        eng.run()
        return count[0]

    assert benchmark(burn) == 50_001


def test_engine_internal_event_throughput(benchmark):
    """Same chain as above but via the no-validation ``call_after`` tier."""

    def burn():
        eng = Engine()
        count = [0]

        def tick(remaining):
            count[0] += 1
            if remaining:
                eng.call_after(1.0, tick, (remaining - 1,))

        eng.call_after(0.0, tick, (50_000,))
        eng.run()
        return count[0]

    assert benchmark(burn) == 50_001


def test_timer_churn_throughput(benchmark):
    """Arm-then-cancel timeout timers: a cancel-heavy timer-queue stress.

    Each step arms 50 far-out timers and cancels them all before they
    expire; none of the 50,000 cancelled timers may fire.
    """

    def burn():
        eng = Engine()
        steps = [0]

        def step(remaining):
            steps[0] += 1
            handles = [eng.timer_after(1000.0, _never) for _ in range(50)]
            for h in handles:
                eng.cancel(h)
            if remaining:
                eng.after(1.0, step, remaining - 1)

        def _never():  # pragma: no cover - cancelled before firing
            raise AssertionError("cancelled timer fired")

        eng.after(0.0, step, 999)
        eng.run()
        return steps[0]

    assert benchmark(burn) == 1000


def test_transport_message_throughput(benchmark):
    machine = MachineConfig(nodes=2, processes_per_node=2,
                            workers_per_process=2)

    def burn():
        rt = RuntimeSystem(machine, seed=0)
        got = [0]
        rt.register_handler("m", lambda ctx, msg: got.__setitem__(0, got[0] + 1))

        def driver(ctx, remaining):
            for _ in range(50):
                ctx.emit(
                    rt.transport.send,
                    NetMessage(kind="m", src_worker=0, dst_process=3,
                               dst_worker=7, size_bytes=64),
                )
            if remaining:
                ctx.emit(ctx.worker.post_task, driver, remaining - 1)

        rt.post(0, driver, 40)
        rt.run()
        return got[0]

    assert benchmark(burn) == 50 * 41


def test_bulk_insert_throughput(benchmark):
    """Flow-mode histogramming: simulated items per wall second."""
    import numpy as np

    from repro.tram import TramConfig, make_scheme

    machine = MachineConfig(nodes=4, processes_per_node=2,
                            workers_per_process=4)

    def burn():
        rt = RuntimeSystem(machine, seed=0)
        tram = make_scheme(
            "WPs", rt, TramConfig(buffer_items=64),
            deliver_bulk=lambda ctx, w, n, si, sc: None,
        )
        W = machine.total_workers

        def driver(ctx, remaining):
            rng = rt.rng.stream(f"b/{ctx.worker.wid}")
            counts = np.bincount(rng.integers(0, W, 1000), minlength=W)
            tram.insert_bulk(ctx, counts)
            if remaining:
                ctx.emit(ctx.worker.post_task, driver, remaining - 1)
            else:
                tram.flush_when_done(ctx)

        for w in range(W):
            rt.post(w, driver, 4)
        rt.run()
        return tram.stats.items_delivered

    assert benchmark(burn) == 32 * 5 * 1000
