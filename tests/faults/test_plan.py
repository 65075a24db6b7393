"""Unit tests for the declarative fault model (FaultPlan / FaultWindow)."""

import pytest

from repro.errors import FaultInjectionError
from repro.faults import FOREVER, KINDS, PROCESS_KINDS, FaultPlan, FaultWindow


class TestFaultWindow:
    def test_active_interval_is_half_open(self):
        w = FaultWindow(100.0, 200.0, "drop")
        assert not w.active(99.0)
        assert w.active(100.0)
        assert w.active(199.9)
        assert not w.active(200.0)

    def test_forever_window(self):
        w = FaultWindow(0.0, FOREVER, "ct_stall", target=3)
        assert w.active(1e18)

    def test_target_matching(self):
        scoped = FaultWindow(0.0, 1.0, "drop", target=2)
        assert scoped.matches(2)
        assert not scoped.matches(1)
        broadcast = FaultWindow(0.0, 1.0, "drop", target=None)
        assert broadcast.matches(0) and broadcast.matches(7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_start=0.0, t_end=1.0, kind="meteor"),
            dict(t_start=-1.0, t_end=1.0, kind="drop"),
            dict(t_start=5.0, t_end=5.0, kind="drop"),
            dict(t_start=0.0, t_end=1.0, kind="drop", magnitude=1.5),
            dict(t_start=0.0, t_end=1.0, kind="nic_degrade", magnitude=0.5),
        ],
    )
    def test_invalid_windows_raise(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultWindow(**kwargs)

    def test_all_kinds_constructible(self):
        for kind in KINDS:
            mag = 2.0 if kind == "nic_degrade" else 0.5
            target = 1 if kind in PROCESS_KINDS else None
            FaultWindow(0.0, 1.0, kind, magnitude=mag, target=target)


class TestFaultPlan:
    def test_defaults_are_noop(self):
        assert FaultPlan().is_noop()

    def test_any_probability_breaks_noop(self):
        assert not FaultPlan(drop=0.01).is_noop()
        assert not FaultPlan(reorder=0.1).is_noop()

    def test_windows_break_noop(self):
        plan = FaultPlan(windows=(FaultWindow(0.0, 1.0, "ct_stall"),))
        assert not plan.is_noop()

    @pytest.mark.parametrize("name", ["drop", "dup", "corrupt", "reorder"])
    def test_probability_bounds(self, name):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**{name: 1.5})
        with pytest.raises(FaultInjectionError):
            FaultPlan(**{name: -0.1})

    def test_reorder_max_must_be_positive(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(reorder_max_ns=0.0)

    @pytest.mark.parametrize("name", [
        "drop", "dup", "corrupt", "reorder", "reorder_max_ns", "crash_procs",
        "crash_t_min_ns", "crash_t_max_ns", "crash_restart_after_ns",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(FaultInjectionError, match="finite"):
            FaultPlan(**{name: value})

    def test_with_window_appends(self):
        base = FaultPlan(drop=0.1)
        w1 = FaultWindow(0.0, 1.0, "drop")
        w2 = FaultWindow(1.0, 2.0, "dup")
        plan = base.with_window(w1).with_window(w2)
        assert plan.windows == (w1, w2)
        assert base.windows == ()  # original untouched (frozen)
        assert plan.drop == 0.1


class TestParse:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "drop=0.05, dup=0.01,corrupt=0.005,reorder=0.02,reorder_max=8000"
        )
        assert plan.drop == 0.05
        assert plan.dup == 0.01
        assert plan.corrupt == 0.005
        assert plan.reorder == 0.02
        assert plan.reorder_max_ns == 8000.0

    def test_parse_empty_is_noop(self):
        assert FaultPlan.parse("").is_noop()

    def test_parse_bad_key(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("explode=0.5")

    def test_parse_bad_value(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("drop=lots")

    def test_parse_missing_equals(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("drop")

    def test_parse_out_of_range_value(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.parse("drop=2.0")
