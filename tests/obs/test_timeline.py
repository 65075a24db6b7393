"""Tests for the flight recorder (``repro.obs.timeline``).

Covers activation gating, cadence-boundary sampling from the engine
loop, ring-buffer decimation, final-sample agreement with the metrics
registry, run-to-run determinism, and the overload worked example
(backlog ramp visible in the sampled series).
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.flow import FlowConfig
from repro.machine import MachineConfig
from repro.obs import ObsConfig, TimelineConfig
from repro.obs.registry import registry_from_runtime
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(2, 2, 2)

CADENCE = 1_000.0


def _build(timeline=None, machine=MACHINE, **rt_kwargs):
    obs = ObsConfig(timeline=timeline) if timeline is not None else None
    rt = RuntimeSystem(machine, seed=0, obs=obs, **rt_kwargs)
    tram = make_scheme(
        "WPs", rt, TramConfig(buffer_items=16),
        deliver_bulk=lambda ctx, w, n, si, sc: None,
    )
    return rt, tram


def _traffic(rt, tram, n=100):
    W = rt.machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"tl/{ctx.worker.wid}")
        counts = np.bincount(rng.integers(0, W, n), minlength=W)
        tram.insert_bulk(ctx, counts)
        tram.flush_when_done(ctx)

    for w in range(W):
        rt.post(w, driver)


class TestActivation:
    def test_off_by_default(self):
        rt, _ = _build()
        assert rt.timeline is None
        assert rt.engine.sampler is None

    def test_obs_without_timeline_stays_off(self):
        rt = RuntimeSystem(MACHINE, seed=0, obs=ObsConfig())
        assert rt.timeline is None
        assert rt.engine.sampler is None

    def test_enabled_false_stays_off(self):
        rt, _ = _build(TimelineConfig(enabled=False))
        assert rt.timeline is None
        assert rt.engine.sampler is None

    def test_config_attaches_recorder(self):
        rt, _ = _build(TimelineConfig(cadence_ns=CADENCE))
        assert rt.timeline is not None
        assert rt.engine.sampler is rt.timeline


class TestSampling:
    def test_monotone_times_on_cadence_grid(self):
        rt, tram = _build(TimelineConfig(cadence_ns=CADENCE))
        _traffic(rt, tram)
        rt.run()
        d = rt.timeline.to_dict()
        times = d["times_ns"]
        assert d["n_samples"] == len(times) >= 2
        assert all(b > a for a, b in zip(times, times[1:]))
        for t in times:
            assert t % CADENCE == pytest.approx(0.0)
        # Samples never run past quiescence.
        assert times[-1] <= rt.engine.now
        assert d["final"]["time_ns"] == rt.engine.now

    def test_series_cover_the_subsystems(self):
        rt, tram = _build(TimelineConfig(cadence_ns=CADENCE))
        _traffic(rt, tram)
        rt.run()
        series = rt.timeline.to_dict()["series"]
        for name in (
            "workers.queued_bytes",
            "commthreads.out_messages",
            "commthreads.backlog_ns",
            "nics.tx_messages",
        ):
            assert name in series
        assert any(k.startswith("ct.") for k in series)
        assert any(k.startswith("nic.") for k in series)
        assert any(k.startswith("tram.") for k in series)
        n = len(rt.timeline.to_dict()["times_ns"])
        assert all(len(col) == n for col in series.values())

    def test_sampling_does_not_change_the_run(self):
        rt_plain, tram_plain = _build()
        _traffic(rt_plain, tram_plain)
        rt_plain.run()
        rt_tl, tram_tl = _build(TimelineConfig(cadence_ns=CADENCE))
        _traffic(rt_tl, tram_tl)
        rt_tl.run()
        assert rt_tl.engine.now == rt_plain.engine.now
        assert (
            tram_tl.stats.items_delivered == tram_plain.stats.items_delivered
        )

    def test_final_sample_matches_registry(self):
        rt, tram = _build(TimelineConfig(cadence_ns=CADENCE))
        _traffic(rt, tram)
        rt.run()
        reg = registry_from_runtime(rt).snapshot()
        final = rt.timeline.to_dict()["final"]["values"]
        shadowed = [n for n in final if n in reg]
        assert shadowed, "no timeline series shadows a registry metric"
        for name in shadowed:
            assert final[name] == pytest.approx(float(reg[name])), name

    def test_deterministic_across_identical_runs(self):
        payloads = []
        for _ in range(2):
            rt, tram = _build(TimelineConfig(cadence_ns=CADENCE))
            _traffic(rt, tram)
            rt.run()
            payloads.append(json.dumps(rt.timeline.to_dict(), sort_keys=True))
        assert payloads[0] == payloads[1]


class TestShape:
    @pytest.mark.parametrize("cadence", [0.0, -5.0, float("nan"), float("inf")])
    def test_cadence_must_be_finite_and_positive(self, cadence):
        with pytest.raises(ConfigError, match="cadence"):
            TimelineConfig(cadence_ns=cadence)

    @pytest.mark.parametrize("capacity", [-1, 0, 7])
    def test_capacity_below_eight_rejected(self, capacity):
        with pytest.raises(ConfigError, match="capacity"):
            TimelineConfig(capacity=capacity)


class TestDecimation:
    def test_capacity_respected_with_stride_doubling(self):
        cap = 8
        rt, tram = _build(
            TimelineConfig(cadence_ns=100.0, capacity=cap)
        )
        _traffic(rt, tram, n=400)
        rt.run()
        d = rt.timeline.to_dict()
        assert d["decimations"] >= 1
        assert d["stride"] == 2 ** d["decimations"]
        times = d["times_ns"]
        assert len(times) <= cap
        assert all(b > a for a, b in zip(times, times[1:]))
        # Surviving rows sit on the coarsened grid.
        step = d["stride"] * 100.0
        for t in times:
            assert t % step == pytest.approx(0.0)

    def test_no_decimation_when_capacity_suffices(self):
        rt, tram = _build(TimelineConfig(cadence_ns=CADENCE, capacity=512))
        _traffic(rt, tram)
        rt.run()
        d = rt.timeline.to_dict()
        assert d["decimations"] == 0
        assert d["stride"] == 1


class TestOverloadRamp:
    """The docs' worked example: an overload window shows up as a
    backlog ramp, parked messages, and the overload flag flipping."""

    FLOW = FlowConfig(
        ct_max_msgs=2,
        ct_max_bytes=2048,
        nic_max_msgs=2,
        nic_max_bytes=2048,
        overload_backlog_ns=5_000.0,
        clear_backlog_ns=1_000.0,
    )

    def _saturate(self):
        rt = RuntimeSystem(
            MACHINE, seed=0, flow=self.FLOW,
            obs=ObsConfig(timeline=TimelineConfig(cadence_ns=500.0)),
        )
        tram = make_scheme(
            "WW", rt, TramConfig(buffer_items=4, idle_flush=True),
            deliver_item=lambda ctx, it: None,
        )
        W = MACHINE.total_workers

        def driver(ctx, remaining):
            rng = rt.rng.stream(f"ov/{ctx.worker.wid}/{remaining}")
            for _ in range(50):
                tram.insert(ctx, dst=int(rng.integers(0, W)))
            if remaining:
                ctx.emit(ctx.worker.post_task, driver, remaining - 1)

        for w in range(W):
            rt.post(w, driver, 7)
        rt.run(max_events=50_000_000)
        return rt

    def test_overload_window_visible_in_series(self):
        rt = self._saturate()
        assert rt.flow.stats.overload_escalations >= 1  # workload sanity
        d = rt.timeline.to_dict()
        series = d["series"]
        over = series["flow.overloaded"]
        assert set(over) <= {0.0, 1.0}
        assert 1.0 in over, "overload window never sampled"
        # Backlog ramps up to (at least) the escalation threshold.
        backlog = series["commthreads.backlog_ns"]
        assert max(backlog) >= self.FLOW.overload_backlog_ns
        # Parked messages appear while gates are saturated, and every
        # park is drained by quiescence (last sample or final row).
        parked = series["flow.parked_messages"]
        assert max(parked) > 0
        assert d["final"]["values"]["flow.in_flight_msgs"] == 0.0

    def test_backlog_ramps_then_drains(self):
        rt = self._saturate()
        d = rt.timeline.to_dict()
        over = d["series"]["flow.overloaded"]
        backlog = d["series"]["commthreads.backlog_ns"]
        # The episode has shape: backlog climbs from (near) zero to its
        # peak, the overload flag is observed set while congestion is
        # live, and everything drains by quiescence.
        peak = max(backlog)
        assert peak > 0.0
        assert backlog[0] < peak
        first_over = over.index(1.0)
        assert backlog[first_over] > 0.0  # flag never set on an idle system
        assert d["final"]["values"]["flow.overloaded"] == 0.0
        assert d["final"]["values"]["flow.parked_messages"] == 0.0
