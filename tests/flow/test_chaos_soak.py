"""Chaos/soak: faults + overload + shedding, item conservation exact.

Drives every scheme under saturating multi-round load with the fault
fabric and the flow controller active at once, then closes the item
ledger::

    produced == delivered + shed + lost + abandoned + buffered + parked

Variant A runs *without* the reliability layer (drop + corrupt only —
no duplication, which would make conservation unclosable) and with
shedding armed, so both loss paths are exercised. Variant B runs the
full soup behind the reliability layer: nothing may be shed or lost,
every item arrives exactly once.
"""

import pytest

from repro.faults import FaultPlan, FaultWindow
from repro.flow import FlowConfig
from repro.machine import MachineConfig
from repro.runtime.reliability import ReliabilityConfig
from repro.runtime.system import RuntimeSystem
from repro.tram import SCHEME_NAMES, TramConfig, make_scheme

SMP = MachineConfig(nodes=2, processes_per_node=2, workers_per_process=2)

#: Loss-tolerant chaos: no dup (keeps the ledger closable without
#: reliability), plus component windows so overload and faults compose.
CHAOS = FaultPlan(
    drop=0.03,
    corrupt=0.01,
    windows=(
        FaultWindow(5_000.0, 40_000.0, "ct_stall", target=0),
        FaultWindow(10_000.0, 60_000.0, "nic_degrade", target=1,
                    magnitude=4.0),
    ),
)

SHEDDING = FlowConfig(
    ct_max_msgs=2,
    ct_max_bytes=1024,
    nic_max_msgs=2,
    nic_max_bytes=1024,
    overload_backlog_ns=3_000.0,
    clear_backlog_ns=500.0,
    shed_backlog_ns=4_000.0,
    max_parked_per_dest=2,
    max_stall_ns=10_000.0,
)

CAPS_ONLY = SHEDDING.with_(shed_backlog_ns=None)

REL = ReliabilityConfig(retransmit_timeout_ns=60_000.0, ack_delay_ns=1_000.0)

SOUP = FaultPlan(drop=0.05, dup=0.01, corrupt=0.005)


def soak(scheme, *, faults, reliability, flow, rounds=6, per_round=60):
    rt = RuntimeSystem(
        SMP, seed=7, faults=faults, reliability=reliability, flow=flow
    )
    tram = make_scheme(
        scheme, rt,
        TramConfig(buffer_items=8, idle_flush=True),
        deliver_item=lambda ctx, it: None,
    )
    W = SMP.total_workers

    def driver(ctx, remaining):
        rng = rt.rng.stream(f"soak/{ctx.worker.wid}/{remaining}")
        for _ in range(per_round):
            tram.insert(ctx, dst=int(rng.integers(0, W)))
        if remaining:
            ctx.emit(ctx.worker.post_task, driver, remaining - 1)

    for w in range(W):
        rt.post(w, driver, rounds - 1)
    rt.run(max_events=50_000_000)
    return rt, tram


class TestLossyConservation:
    """Variant A: unprotected chaos with shedding armed."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_ledger_closes_exactly(self, scheme):
        rt, tram = soak(
            scheme, faults=CHAOS, reliability=None, flow=SHEDDING
        )
        cons = rt.flow.conservation()
        assert cons["balanced"] is True
        assert cons["produced"] == tram.stats.items_inserted
        assert cons["parked"] == 0
        assert cons["buffered"] == 0
        # Chaos actually destroyed something on at least one path.
        assert cons["lost"] + cons["shed"] > 0
        assert (
            cons["delivered"] + cons["shed"] + cons["lost"]
            == cons["produced"]
        )

    def test_shedding_triggers_and_is_attributed(self):
        rt, _ = soak("WW", faults=CHAOS, reliability=None, flow=SHEDDING)
        stats = rt.flow.stats
        assert stats.messages_shed > 0
        assert stats.items_shed > 0
        assert stats.bytes_shed > 0
        assert sum(rt.flow.shed_by_dest.values()) == stats.messages_shed

    def test_shed_drops_feed_loss_accounting(self):
        """Shed items are counted per destination, and the conservation
        ledger accounts them next to the fabric's wire losses."""
        rt, tram = soak("WW", faults=CHAOS, reliability=None, flow=SHEDDING)
        stats = rt.flow.stats
        assert stats.items_shed > 0
        assert sum(rt.flow.shed_by_dest.values()) == stats.messages_shed
        cons = rt.flow.conservation()
        assert cons["shed"] == stats.items_shed
        assert cons["produced"] == tram.stats.items_inserted
        assert (
            cons["delivered"] + cons["shed"] + cons["lost"]
            == cons["produced"]
        )


class TestProtectedConservation:
    """Variant B: full soup behind reliability — exactly once, no loss."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_exactly_once_under_soup(self, scheme):
        rt, tram = soak(
            scheme, faults=SOUP, reliability=REL, flow=CAPS_ONLY
        )
        cons = rt.flow.conservation()
        assert cons["balanced"] is True
        assert cons["shed"] == 0  # shedding disarmed: caps only
        assert cons["delivered"] == cons["produced"]
        assert tram.stats.items_delivered == tram.stats.items_inserted
        assert rt.reliable.pending_count() == 0
        assert rt.flow.stats.messages_parked > 0

    def test_retransmits_respect_credits(self):
        """Recovery traffic re-enters the gated transport: the message
        caps hold even while retransmission storms repair drops."""
        rt, tram = soak("WPs", faults=SOUP, reliability=REL, flow=CAPS_ONLY)
        assert rt.reliable.stats.retransmits > 0
        for gate in rt.flow.gates():
            assert gate.hwm_msgs <= gate.max_msgs

    def test_dup_without_reliability_is_unclosable(self):
        """Duplication with nobody deduplicating delivers twice — the
        controller reports the ledger as unclosable, not as violated."""
        rt, _ = soak(
            "WW", faults=FaultPlan(dup=0.05), reliability=None,
            flow=CAPS_ONLY, rounds=3,
        )
        assert rt.flow.conservation()["balanced"] is None
