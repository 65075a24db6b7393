"""Unit tests for time units and formatting."""

import pytest

from repro.sim.simtime import MS, NS, SEC, US, fmt_time, to_ms, to_seconds, to_us


class TestUnits:
    def test_constants(self):
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert SEC == 1000 * MS

    def test_conversions(self):
        assert to_us(1500.0) == 1.5
        assert to_ms(2_500_000.0) == 2.5
        assert to_seconds(SEC) == 1.0


class TestFmtTime:
    @pytest.mark.parametrize(
        "ns,expected",
        [
            (0.0, "0ns"),
            (1.0, "1.000ns"),
            (999.0, "999.000ns"),
            (1500.0, "1.500us"),
            (2_000_000.0, "2.000ms"),
            (3 * SEC, "3.000s"),
            (-1500.0, "-1.500us"),
        ],
    )
    def test_formatting(self, ns, expected):
        assert fmt_time(ns) == expected
