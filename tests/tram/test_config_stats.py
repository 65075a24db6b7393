"""Unit tests for TramConfig validation and statistics containers."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.tram.config import TramConfig
from repro.tram.stats import LatencyAggregate, TramStats


class TestTramConfig:
    def test_defaults_valid(self):
        cfg = TramConfig()
        assert cfg.buffer_items == 1024
        assert cfg.bypass_local
        assert cfg.expedited

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(buffer_items=0),
            dict(item_bytes=0),
            dict(overload_buffer_growth=0.5),
            dict(buffer_items=-1),
            dict(latency_sample=-1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TramConfig(**kwargs)

    def test_with_copies(self):
        cfg = TramConfig(buffer_items=64)
        cfg2 = replace(cfg, buffer_items=128, idle_flush=True)
        assert cfg2.buffer_items == 128
        assert cfg2.idle_flush
        assert cfg.buffer_items == 64


class TestLatencyAggregate:
    def test_exact_moments(self):
        agg = LatencyAggregate()
        agg.record(100.0)
        agg.record(300.0, weight=3)
        assert agg.count == 4
        assert agg.mean == pytest.approx(250.0)
        assert agg.min == 100.0
        assert agg.max == 300.0

    def test_record_bulk_mean_exact(self):
        agg = LatencyAggregate()
        # 4 items created at t=10 each, delivered at t=110.
        agg.record_bulk(count=4, t_sum=40.0, t_min=10.0, now=110.0)
        assert agg.mean == pytest.approx(100.0)
        assert agg.max == pytest.approx(100.0)

    def test_record_bulk_tracks_oldest(self):
        agg = LatencyAggregate()
        agg.record_bulk(count=2, t_sum=30.0, t_min=5.0, now=100.0)
        assert agg.max == pytest.approx(95.0)  # oldest item's latency

    def test_empty_bulk_ignored(self):
        agg = LatencyAggregate()
        agg.record_bulk(0, 0.0, 0.0, 10.0)
        assert agg.count == 0
        assert agg.mean == 0.0

    def test_percentile_requires_sampling(self):
        agg = LatencyAggregate()
        agg.record(5.0)
        assert agg.percentile(50) is None

    def test_percentile_with_reservoir(self):
        agg = LatencyAggregate(sample_size=64, seed=1)
        for v in range(100):
            agg.record(float(v))
        p50 = agg.percentile(50)
        assert p50 is not None
        assert 10.0 < p50 < 90.0

    def test_percentile_with_histogram_backend(self):
        agg = LatencyAggregate(histogram=True)
        agg.record(100.0, weight=5)
        agg.record_bulk(count=5, t_sum=0.0, t_min=0.0, now=100.0)
        assert agg.percentile(50) == pytest.approx(100.0)

    def test_reservoir_wins_over_histogram(self):
        agg = LatencyAggregate(sample_size=8, histogram=True)
        agg.record(10.0)
        assert agg._hist is None
        assert agg.percentile(50) == pytest.approx(10.0)


class TestTramStats:
    def test_messages_sent_sums_lanes(self):
        s = TramStats()
        s.messages_full = 3
        s.messages_flush = 2
        assert s.messages_sent == 5

    def test_pending_items(self):
        s = TramStats()
        s.items_inserted = 10
        s.items_delivered = 7
        assert s.pending_items == 3

    def test_summary_keys(self):
        s = TramStats()
        summary = s.summary()
        for key in (
            "items_inserted",
            "items_bypassed_local",
            "pending_items",
            "messages_sent",
            "bytes_sent",
            "mean_latency_ns",
            "min_latency_ns",
            "buffer_bytes_allocated",
        ):
            assert key in summary

    def test_empty_summary_min_latency_finite(self):
        # Empty aggregate keeps min == inf internally; the summary must
        # not leak a non-JSON-serializable infinity.
        summary = TramStats().summary()
        assert summary["min_latency_ns"] == 0.0

    def test_summary_reports_bypass_and_pending(self):
        s = TramStats()
        s.items_inserted = 10
        s.items_delivered = 6
        s.items_bypassed_local = 2
        s.latency.record(40.0)
        summary = s.summary()
        assert summary["items_bypassed_local"] == 2
        assert summary["pending_items"] == 4
        assert summary["min_latency_ns"] == 40.0
