"""Unit tests for named RNG streams."""

import pytest

from repro.sim.rng import RngStreams


class TestReproducibility:
    def test_same_seed_same_stream(self):
        a = RngStreams(42).stream("worker/3")
        b = RngStreams(42).stream("worker/3")
        assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x")
        b = RngStreams(2).stream("x")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_different_names_differ(self):
        streams = RngStreams(0)
        a = streams.stream("worker/0")
        b = streams.stream("worker/1")
        assert list(a.integers(0, 10**9, 8)) != list(b.integers(0, 10**9, 8))

    def test_creation_order_irrelevant(self):
        s1 = RngStreams(7)
        _ = s1.stream("b")
        a1 = s1.stream("a")
        s2 = RngStreams(7)
        a2 = s2.stream("a")
        assert a1.random() == a2.random()


class TestCaching:
    def test_stream_is_cached(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(-1)
