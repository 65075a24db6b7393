"""Process-failure fabric: crash/restart events end to end.

A scripted or seeded ``proc_crash`` kills a simulated process mid-run:
its workers stop scheduling, hosted aggregation buffers die with its
heap, and traffic towards it is dropped — all of it accounted into the
conservation ledger (``produced == delivered + lost_to_crash + ...``).
With the reliability layer on, retransmit-budget exhaustion turns into
peer-death suspicion, probe confirmation and channel teardown; a mere
reordering storm must never take that path (the suspicion trigger is
the retry budget, not the wire dice).

The workload trickles inserts across a simulated horizon (rather than
one burst at t=0) so that death confirmation lands *mid-traffic* and
the post-confirmation paths — insert-site drops, R2D alternate-hop
reroutes, WNs round-robin skips — actually execute.
"""

import numpy as np
import pytest

from repro.faults import FOREVER, FaultPlan, FaultWindow
from repro.flow import conservation_ledger
from repro.machine import MachineConfig
from repro.runtime.reliability import ReliabilityConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import SCHEME_NAMES, TramConfig, make_scheme

MACHINE = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)

FAST = ReliabilityConfig(retransmit_timeout_ns=20_000.0, ack_delay_ns=1_000.0)

#: Short budgets so peer death is confirmed a few tens of us after the
#: crash, well inside the insert horizon.  The retransmit timeout stays
#: above the loaded ack round-trip: an over-aggressive budget exhausts
#: on *live* channels too, degrading them to direct sends and starving
#: the aggregated paths this class exists to exercise.
CONFIRM_FAST = ReliabilityConfig(
    retransmit_timeout_ns=12_000.0,
    ack_delay_ns=500.0,
    max_retries=2,
    probe_timeout_ns=5_000.0,
    probe_retries=1,
)

#: Process 3 dies 10us in — early in the insert horizon.
CRASH_P3 = FaultPlan(
    windows=(FaultWindow(10_000.0, FOREVER, "proc_crash", target=3),)
)

#: Same crash, but the process rejoins 80us later.
CRASH_RESTART_P3 = CRASH_P3.with_window(
    FaultWindow(90_000.0, FOREVER, "proc_restart", target=3)
)


def run_workload(
    machine=MACHINE,
    faults=None,
    reliability=None,
    scheme="WPs",
    items=400,
    horizon_ns=150_000.0,
    seed=3,
    until=None,
):
    """Trickle ``items`` randomly-addressed inserts over ``horizon_ns``."""
    rt = RuntimeSystem(
        machine, seed=seed, faults=faults, reliability=reliability
    )
    tram = make_scheme(
        scheme, rt,
        TramConfig(buffer_items=16, idle_flush=True),
        deliver_item=lambda ctx, it: None,
    )
    W = machine.total_workers

    def one_send(ctx, dst):
        tram.insert(ctx, dst=dst)

    rng = np.random.default_rng(seed)
    for _ in range(items):
        src = int(rng.integers(0, W))
        dst = int(rng.integers(0, W))
        rt.post(src, one_send, dst, delay=float(rng.random() * horizon_ns))
    stats = rt.run(until=until, max_events=5_000_000)
    return rt, tram, stats


def assert_ledger_closed(rt):
    led = conservation_ledger(rt)
    assert led["balanced"] is True, led
    assert led["buffered"] == 0, led
    assert led["parked"] == 0, led
    return led


class TestCrashEvents:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES + ("R2D", "WNs", "NN"))
    def test_scripted_crash_closes_the_ledger(self, scheme):
        rt, tram, _ = run_workload(faults=CRASH_P3, scheme=scheme)
        assert rt.dead_procs == {3}
        assert not rt.process(3).alive
        assert rt.faults.stats.proc_crashes == 1
        led = assert_ledger_closed(rt)
        # Mid-horizon death must actually cost items, and the loss must
        # be attributed to the crash (the wire dice are all zero here).
        assert led["lost_to_crash"] > 0
        assert led["lost"] == 0
        assert led["delivered"] + led["lost_to_crash"] == led["produced"]

    def test_restart_revives_the_process(self):
        rt, tram, _ = run_workload(faults=CRASH_RESTART_P3)
        assert rt.dead_procs == set()
        assert rt.process(3).alive
        assert rt.faults.stats.proc_crashes == 1
        assert rt.faults.stats.proc_restarts == 1
        led = assert_ledger_closed(rt)
        # Work lost during the outage stays lost (and stays accounted).
        assert led["lost_to_crash"] > 0

    def test_seeded_crashes_are_deterministic(self):
        plan = FaultPlan(
            crash_procs=1, crash_t_min_ns=5_000.0, crash_t_max_ns=40_000.0
        )
        rt_a, tram_a, stats_a = run_workload(faults=plan)
        rt_b, tram_b, stats_b = run_workload(faults=plan)
        assert rt_a.dead_procs == rt_b.dead_procs
        assert stats_a.end_time == stats_b.end_time
        assert tram_a.stats.summary() == tram_b.stats.summary()
        assert tram_a.stats.crash_summary() == tram_b.stats.crash_summary()
        assert conservation_ledger(rt_a) == conservation_ledger(rt_b)

    def test_seeded_victims_never_include_process_zero(self):
        # Process 0 hosts the quiescence coordinator; killing it would
        # take the referee down with the players.
        for seed in range(8):
            plan = FaultPlan(crash_procs=3, crash_t_max_ns=20_000.0)
            rt, _, _ = run_workload(faults=plan, seed=seed, items=40)
            assert 0 not in rt.dead_procs
            assert len(rt.dead_procs) == 3

    def test_wire_only_plan_keeps_fabric_unbuilt(self):
        rt, tram, _ = run_workload(faults=FaultPlan(drop=0.05))
        assert rt.dead_procs is None
        led = conservation_ledger(rt)
        assert "lost_to_crash" not in led
        from repro.obs.snapshot import run_snapshot

        snap = run_snapshot(rt)
        assert "proc_crashes" not in snap["faults"]
        assert "dead_peer_drops" not in snap["schemes"][0]["stats"]

    def test_crash_keys_serialized_when_armed(self):
        rt, tram, _ = run_workload(faults=CRASH_P3)
        from repro.obs.snapshot import run_snapshot

        snap = run_snapshot(rt)
        assert snap["faults"]["proc_crashes"] == 1
        assert snap["faults"]["items_lost_to_crash"] > 0
        assert "dead_peer_drops" in snap["schemes"][0]["stats"]
        assert "faults.dead_processes" in snap["metrics"]["metrics"]


class TestSuspicionProtocol:
    def test_dead_peer_is_suspected_confirmed_and_torn_down(self):
        rt, tram, _ = run_workload(faults=CRASH_P3, reliability=CONFIRM_FAST)
        st = rt.reliable.stats
        assert st.peers_suspected >= 1
        assert st.peers_confirmed_dead >= 1
        assert st.channels_torn_down >= 1
        # Confirmation told the scheme, which now drops at insert time
        # instead of burning retransmit budget.
        assert tram._dead_peers == {3}
        assert_ledger_closed(rt)

    def test_suspicion_does_not_fire_on_reordering(self):
        # The satellite case: heavy reorder + duplicate dice with the
        # crash fabric armed (a scripted crash parked far beyond the
        # horizon arms it; ``until`` stops the run before it fires).
        # Retransmit timeouts may trip, but every ack eventually lands
        # inside the backed-off retry budget — peer-death suspicion
        # must never trigger on a live peer.
        plan = FaultPlan(
            reorder=0.4,
            reorder_max_ns=30_000.0,
            dup=0.2,
            windows=(FaultWindow(1e12, FOREVER, "proc_crash", target=1),),
        )
        rt, tram, _ = run_workload(
            faults=plan, reliability=FAST, until=5_000_000.0
        )
        assert rt.dead_procs == set()  # armed, nobody died
        st = rt.reliable.stats
        assert rt.faults.stats.messages_reordered > 0
        assert rt.faults.stats.messages_duplicated > 0
        assert st.peers_suspected == 0
        assert st.peers_confirmed_dead == 0
        assert st.probes_sent == 0
        # Exactly-once delivery still holds.
        assert tram.stats.items_delivered == tram.stats.items_inserted
        assert tram.stats.pending_items == 0

    def test_restart_after_confirmation_resumes_delivery(self):
        rt, tram, _ = run_workload(
            faults=CRASH_RESTART_P3, reliability=CONFIRM_FAST, items=600,
            horizon_ns=250_000.0,
        )
        assert rt.dead_procs == set()
        # The restart cleared the scheme's dead mark: inserts pool
        # behind process 3 again.
        assert not tram._dead_peers
        led = assert_ledger_closed(rt)
        assert led["delivered"] > 0
        assert led["lost_to_crash"] > 0


class TestFailoverRouting:
    def _crash_with_confirmation(self, scheme, items=600):
        return run_workload(
            faults=CRASH_P3, reliability=CONFIRM_FAST, scheme=scheme,
            items=items,
        )

    def test_r2d_reroutes_around_dead_intermediary(self):
        rt, tram, _ = self._crash_with_confirmation("R2D")
        assert tram.stats.failover_reroutes > 0
        assert_ledger_closed(rt)

    def test_wns_skips_dead_sibling_in_round_robin(self):
        rt, tram, _ = self._crash_with_confirmation("WNs")
        # Node-addressed buffers survive: the dead process's node
        # sibling is alive, so chunks reroute to it.
        assert tram.stats.failover_reroutes > 0
        assert_ledger_closed(rt)

    @pytest.mark.parametrize("scheme", ("WW", "WPs", "PP", "NN"))
    def test_dead_destination_drops_at_insert_site(self, scheme):
        rt, tram, _ = self._crash_with_confirmation(scheme)
        # Post-confirmation inserts towards the dead peer are dropped
        # (and loss-accounted) before buffering anything.
        assert tram.stats.dead_peer_drops > 0
        assert_ledger_closed(rt)


#: The CLI crash plan from docs/reproducing.md.
CRASH_SPEC = "crash_procs=1,crash_t_min=5000,crash_t_max=40000"


class TestCrashTargets:
    """Only extB honours crash keys; the rest refuse them or fail loudly."""

    @pytest.mark.parametrize("argv", [
        ["fig14", "--profile", "quick"],
        ["all", "--profile", "quick"],
        ["extC", "--profile", "quick"],
        # sweep has no --profile: its parser would refuse that first.
        ["sweep", "--app", "histogram", "--axes", "nodes=1,2"],
    ], ids=lambda argv: argv[0])
    def test_target_refuses_crash_keys(self, argv, tmp_path, monkeypatch, capsys):
        from repro.harness.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--faults", CRASH_SPEC]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "extB" in err
        assert list(tmp_path.iterdir()) == []  # refused before running

    def test_extB_takes_crash_keys(self, tmp_path):
        import json

        from repro.harness.cli import main

        path = tmp_path / "b.json"
        argv = ["extB", "--profile", "quick", "--faults", CRASH_SPEC,
                "--metrics-out", str(path)]
        assert main(argv) == 0
        runs = json.loads(path.read_text())["runs"]
        assert runs and all(r["faults"]["proc_crashes"] == 1 for r in runs)

    def test_extC_keeps_the_wire_faults_of_the_plan(self, tmp_path):
        import json

        from repro.harness.cli import main

        path = tmp_path / "c.json"
        argv = ["extC", "--profile", "quick", "--faults", "drop=0.05",
                "--metrics-out", str(path)]
        assert main(argv) == 0
        runs = json.loads(path.read_text())["runs"]
        assert len(runs) == 18
        assert all(r["faults"]["messages_dropped"] > 0 for r in runs)

    @pytest.mark.parametrize("app, kwargs", [
        ("run_sssp", {"num_vertices": 512}),
        ("run_phold", {"quota_per_worker": 64}),
    ])
    def test_lossy_run_raises_quiescence_error(self, app, kwargs):
        import repro.apps
        from repro.errors import QuiescenceError
        from repro.faults import FaultSession

        with FaultSession(FaultPlan.parse(CRASH_SPEC)):
            with pytest.raises(QuiescenceError, match="undelivered"):
                getattr(repro.apps, app)(MACHINE, "WPs", **kwargs)
