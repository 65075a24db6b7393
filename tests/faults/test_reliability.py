"""End-to-end tests of the ack/retransmit reliable-delivery layer.

The workload is the per-item scheme driver from the stage-partition
suite: every worker inserts remote-bound items through a TramLib scheme,
and exactly-once delivery is asserted through the scheme's own counters
(inserted == delivered + bypassed, nothing pending).
"""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSession
from repro.machine import MachineConfig
from repro.runtime.reliability import ReliabilityConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)

#: Short timeout so retransmissions (and budget trips) happen within the
#: few-ms horizon of these small runs.
FAST = ReliabilityConfig(retransmit_timeout_ns=20_000.0, ack_delay_ns=1_000.0)


def run_workload(
    machine=MACHINE,
    faults=None,
    reliability=None,
    scheme="WPs",
    items=150,
    seed=3,
):
    rt = RuntimeSystem(machine, seed=seed, faults=faults, reliability=reliability)
    tram = make_scheme(
        scheme, rt,
        TramConfig(buffer_items=16, idle_flush=True),
        deliver_item=lambda ctx, it: None,
    )
    W = machine.total_workers

    def driver(ctx):
        rng = rt.rng.stream(f"rel/{ctx.worker.wid}")
        for _ in range(items):
            tram.insert(ctx, dst=int(rng.integers(0, W)))

    for w in range(W):
        rt.post(w, driver)
    stats = rt.run()
    return rt, tram, stats


def assert_exactly_once(tram):
    st = tram.stats
    # Local bypasses are counted within items_delivered.
    assert st.items_delivered == st.items_inserted
    assert st.pending_items == 0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(retransmit_timeout_ns=0.0),
            dict(backoff_factor=0.5),
            dict(max_retries=0),
            dict(ack_delay_ns=-1.0),
            dict(dedup_window=0),
        ],
    )
    def test_bad_config_raises(self, kwargs):
        with pytest.raises(ConfigError):
            ReliabilityConfig(**kwargs)


class TestExactlyOnce:
    def test_drops_are_repaired_by_retransmission(self):
        rt, tram, _ = run_workload(
            faults=FaultPlan(drop=0.1), reliability=FAST
        )
        assert_exactly_once(tram)
        rel = rt.reliable.stats
        assert rt.faults.stats.messages_dropped > 0
        assert rel.retransmits > 0
        assert rt.reliable.pending_count() == 0
        # Protected data is never counted as fabric loss.
        assert rt.faults.stats.items_lost == 0

    def test_duplicates_are_discarded(self):
        rt, tram, _ = run_workload(faults=FaultPlan(dup=0.3), reliability=FAST)
        assert_exactly_once(tram)
        assert rt.faults.stats.messages_duplicated > 0
        assert rt.reliable.stats.duplicates_discarded > 0

    def test_corruption_triggers_nack_and_recovery(self):
        rt, tram, _ = run_workload(
            faults=FaultPlan(corrupt=0.2), reliability=FAST
        )
        assert_exactly_once(tram)
        rel = rt.reliable.stats
        assert rel.corrupt_discarded > 0
        assert rel.nacks_sent > 0
        assert rel.retransmits > 0

    def test_reordering_is_absorbed(self):
        rt, tram, _ = run_workload(
            faults=FaultPlan(reorder=0.3, reorder_max_ns=20_000.0),
            reliability=FAST,
        )
        assert_exactly_once(tram)
        assert rt.faults.stats.messages_reordered > 0

    def test_combined_fault_soup(self):
        rt, tram, _ = run_workload(
            faults=FaultPlan(drop=0.05, dup=0.01, corrupt=0.005),
            reliability=FAST,
        )
        assert_exactly_once(tram)
        assert rt.reliable.pending_count() == 0


class TestUnprotectedLoss:
    def test_drops_without_reliability_lose_items(self):
        rt, tram, _ = run_workload(
            faults=FaultPlan(drop=0.2), reliability=None
        )
        st = tram.stats
        lost = rt.faults.stats.items_lost
        assert lost > 0
        assert st.items_delivered + lost == st.items_inserted


class TestDisabledAndDeterminism:
    def test_noop_plan_matches_plain_run(self):
        _, tram_a, stats_a = run_workload()
        _, tram_b, stats_b = run_workload(faults=FaultPlan())  # noop plan
        assert stats_a.end_time == stats_b.end_time
        assert tram_a.stats.summary() == tram_b.stats.summary()

    def test_disabled_config_is_equivalent_to_none(self):
        _, tram_a, stats_a = run_workload()
        _, tram_b, stats_b = run_workload(
            reliability=ReliabilityConfig(enabled=False)
        )
        assert stats_a.end_time == stats_b.end_time
        assert tram_a.stats.summary() == tram_b.stats.summary()

    def test_faulty_runs_are_deterministic(self):
        plan = FaultPlan(drop=0.05, dup=0.02, corrupt=0.01)
        rt_a, tram_a, stats_a = run_workload(faults=plan, reliability=FAST)
        rt_b, tram_b, stats_b = run_workload(faults=plan, reliability=FAST)
        assert stats_a.end_time == stats_b.end_time
        assert tram_a.stats.summary() == tram_b.stats.summary()
        assert rt_a.faults.stats.to_dict() == rt_b.faults.stats.to_dict()
        assert rt_a.reliable.stats.to_dict() == rt_b.reliable.stats.to_dict()


class TestFaultSession:
    def test_session_installs_plan_and_reliability(self):
        with FaultSession(FaultPlan(drop=0.1)):
            rt = RuntimeSystem(MACHINE, seed=0)
        assert rt.faults is not None
        assert rt.reliable is not None

    def test_session_reliability_opt_out(self):
        with FaultSession(FaultPlan(drop=0.1), reliability=None):
            rt = RuntimeSystem(MACHINE, seed=0)
        assert rt.faults is not None
        assert rt.reliable is None

    def test_explicit_argument_overrides_session(self):
        with FaultSession(FaultPlan(drop=0.5)):
            rt = RuntimeSystem(MACHINE, seed=0, faults=FaultPlan(dup=1.0))
        assert rt.faults.plan.dup == 1.0
        assert rt.faults.plan.drop == 0.0

    def test_no_session_no_faults(self):
        rt = RuntimeSystem(MACHINE, seed=0)
        assert rt.faults is None
        assert rt.reliable is None

    def test_session_run_delivers_exactly_once(self):
        with FaultSession(FaultPlan(drop=0.05)):
            _, tram, _ = run_workload()
        assert_exactly_once(tram)
