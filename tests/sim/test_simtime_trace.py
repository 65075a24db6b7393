"""Unit tests for time units and formatting."""

import pytest

from repro.sim.simtime import MS, NS, SEC, US, fmt_time


class TestUnits:
    def test_constants(self):
        assert US == 1000 * NS
        assert MS == 1000 * US
        assert SEC == 1000 * MS


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
