"""Unit tests for ExecContext mechanics."""

from repro.errors import SimulationError


class TestCharges:
    def test_cost_accumulates(self, tiny_rt):
        costs = []

        def task(ctx):
            ctx.charge(100.0)
            ctx.charge(50.5)
            costs.append(ctx.cost)

        tiny_rt.post(0, task)
        tiny_rt.run()
        assert costs == [150.5]

    def test_now_is_task_start(self, tiny_rt):
        observed = []

        def task(ctx):
            ctx.charge(1000.0)
            observed.append(ctx.now)  # still start time after charging

        tiny_rt.post(0, task, delay=500.0)
        tiny_rt.run()
        assert observed == [500.0]


class TestEmissions:
    def test_emissions_ordered_before_next_task(self, tiny_rt):
        """Emissions at completion fire before the worker's next task
        at the same timestamp (insertion order)."""
        order = []

        def first(ctx):
            ctx.charge(100.0)
            ctx.emit(lambda: order.append("emission"))

        def second(ctx):
            order.append("second-task")

        tiny_rt.post(0, first)
        tiny_rt.post(0, second)
        tiny_rt.run()
        assert order == ["emission", "second-task"]

    def test_negative_delay_rejected(self, tiny_rt):
        errors = []

        def task(ctx):
            try:
                ctx.emit(lambda: None, delay=-1.0)
            except SimulationError as e:
                errors.append(e)

        tiny_rt.post(0, task)
        tiny_rt.run()
        assert errors
